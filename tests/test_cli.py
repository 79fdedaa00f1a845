import concurrent.futures
import contextlib
import csv
import datetime
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import ROUND_DOWN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from emeasure import cfrac, cli, density, enclosure, kempner, measures, verify
from emeasure.enclosure import partial_sum
from emeasure.rationals import ResourceError, exact_context, int_str


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_kempner_subcommand(capsys):
    code, doc = run_json(capsys, ["kempner", "--q", "6"])
    assert code == 0
    assert doc == {
        "q": "6",
        "S": "3",
        "P": "3",
        "factorization": [["2", "1"], ["3", "1"]],
    }


def test_kempner_oracle_check(capsys):
    code, doc = run_json(capsys, ["kempner", "--oracle-check", "--max", "500"])
    assert code == 0
    assert doc["mismatches"] == []


def test_interval_subcommand(capsys):
    code, doc = run_json(capsys, ["interval", "--n", "4"])
    assert code == 0
    assert doc["left"] == {"num": "65", "den": "24"}
    assert doc["right"] == {"num": "11", "den": "4"}


def test_interval_domain_error(capsys):
    code = cli.run(["interval", "--n", "0"])
    assert code == 1
    assert "n >= 1" in capsys.readouterr().err


def test_distance_with_bounds(capsys):
    code, doc = run_json(
        capsys,
        ["distance", "--p", "65", "--q", "24", "--digits", "5",
         "--bound", "1/120", "--bound", "1/24"],
    )
    assert code == 0
    assert doc["r"] == {"num": "65", "den": "24"}
    assert doc["digits"] == "0.00994"
    assert doc["bounds"][0] == {
        "bound": {"num": "1", "den": "120"},
        "distance_is": "greater",
    }
    assert doc["bounds"][1] == {
        "bound": {"num": "1", "den": "24"},
        "distance_is": "less",
    }


def test_measure_verdict(capsys):
    code, doc = run_json(capsys, ["measure", "--p", "65", "--q", "24"])
    assert code == 0
    assert doc["holds"] is True
    assert doc["bound"] == {"num": "1", "den": "120"}

    code, doc = run_json(
        capsys, ["measure", "--p", "65", "--q", "24", "--bound", "prime-factor"]
    )
    assert code == 0
    assert doc["holds"] is False


# `measure` output, byte for byte as when every verdict built its bound
# 1/k!: .bound now builds it only when the output reads it.
MEASURE_GOLDEN = [
    (
        ["measure", "--p", "65", "--q", "24", "--bound", "theorem1"],
        '{\n'
        '  "p": "65",\n'
        '  "q": "24",\n'
        '  "bound_name": "theorem1",\n'
        '  "bound": {\n'
        '    "num": "1",\n'
        '    "den": "120"\n'
        '  },\n'
        '  "holds": true,\n'
        '  "margin_digits": "0.001615"\n'
        '}\n',
    ),
    (
        ["measure", "--p", "65", "--q", "24", "--bound", "prime-factor"],
        '{\n'
        '  "p": "65",\n'
        '  "q": "24",\n'
        '  "bound_name": "prime_factor",\n'
        '  "bound": {\n'
        '    "num": "1",\n'
        '    "den": "24"\n'
        '  },\n'
        '  "holds": false,\n'
        '  "margin_digits": "-0.031718"\n'
        '}\n',
    ),
    (
        ["measure", "--p", "65", "--q", "24", "--bound", "weak-prime"],
        '{\n'
        '  "p": "65",\n'
        '  "q": "24",\n'
        '  "bound_name": "weak_prime",\n'
        '  "bound": {\n'
        '    "num": "1",\n'
        '    "den": "15511210043330985984000000"\n'
        '  },\n'
        '  "holds": true,\n'
        '  "margin_digits": "0.009948"\n'
        '}\n',
    ),
    (
        ["measure", "--p", "65", "--q", "24", "--bound", "known"],
        '{\n'
        '  "p": "65",\n'
        '  "q": "24",\n'
        '  "bound_name": "known_eps",\n'
        '  "bound": {\n'
        '    "num": "1",\n'
        '    "den": "576"\n'
        '  },\n'
        '  "holds": true,\n'
        '  "margin_digits": "0.008212"\n'
        '}\n',
    ),
    (
        ["measure", "--p", "65", "--q", "24", "--bound", "known", "--eps", "1/3"],
        '{\n'
        '  "p": "65",\n'
        '  "q": "24",\n'
        '  "bound_name": "known_eps",\n'
        '  "bound": {\n'
        '    "num": "15625000000000000000000000000",\n'
        '    "den": "25960492265533350881789489594049"\n'
        '  },\n'
        '  "holds": true,\n'
        '  "margin_digits": "0.009346"\n'
        '}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", MEASURE_GOLDEN)
def test_measure_output_is_byte_identical(capsys, argv, expected):
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == expected


def test_measure_output_at_the_top_of_the_bit_budget(capsys):
    # The bound 1/65522! has a 287 127-digit denominator.
    assert cli.run(["measure", "--p", "178104", "--q", "65521"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 287287
    assert hashlib.sha256(out).hexdigest() == (
        "3d452c90d63393945ecf60886575ad047656980bd1cfa9ba2d231931dde4b325"
    )


def test_measure_corollary2(capsys):
    code, doc = run_json(capsys, ["measure", "--corollary2", "4"])
    assert code == 0
    assert doc["prime"] is False and doc["witness"] == ["65", "24"]


def test_measure_compare(capsys):
    code, doc = run_json(capsys, ["measure", "--compare", "--q", "720"])
    assert code == 0
    assert doc["stronger"] == "theorem1"


@pytest.mark.parametrize("eps", [[], ["--eps", "1/3"]])
def test_measure_compare_at_a_large_prime(capsys, eps):
    # Would need (10^6 + 4)! if the factorials were built in full.
    code, doc = run_json(capsys, ["measure", "--compare", "--q", "1000003", *eps])
    assert code == 0
    assert doc["stronger"] == "known"
    assert doc["conjecture1_holds_at_q"] is True


def test_convergents_subcommand(capsys):
    code, doc = run_json(capsys, ["convergents", "--count", "3"])
    assert code == 0
    assert [row["value"] for row in doc] == [
        {"num": "2", "den": "1"},
        {"num": "3", "den": "1"},
        {"num": "8", "den": "3"},
    ]


@pytest.mark.parametrize("count", [1, 2, 1500])
def test_convergents_print_the_stored_pairs_without_a_gcd(capsys, monkeypatch, count):
    # Oracle: the library's Fraction convergents under the CLI's JSON rule.
    values = [(c.index, c.value) for c in cfrac.convergents(count)]
    oracle = [
        {"index": str(k), "value": {"num": str(r.numerator), "den": str(r.denominator)}}
        for k, r in values
    ]
    printed = {(r.numerator, r.denominator) for _, r in values}
    gcd, calls = math.gcd, []

    def counted_gcd(*args):
        calls.append(args)
        return gcd(*args)

    with monkeypatch.context() as patch:
        patch.setattr(math, "gcd", counted_gcd)
        assert cli.run(["convergents", "--count", str(count)]) == 0
    assert capsys.readouterr().out == json.JSONEncoder(indent=2).encode(oracle) + "\n"
    assert not printed.intersection(calls)


def test_partial_sums_csv(capsys):
    code = cli.run(["partial-sums", "--max-n", "4", "--check-convergent"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,s_n_num,s_n_den,q_n,full_factorial,is_convergent"
    assert lines[2] == "1,2,1,1,1,1"
    assert lines[4] == "3,8,3,3,0,1"
    assert lines[5] == "4,65,24,24,1,0"


def test_partial_sums_rows_match_the_recurrence(capsys):
    # Oracle: N_n = n N_(n-1) + 1 over n!, reduced by Fraction; only s_1 and
    # s_3 are convergents.
    assert cli.run(["partial-sums", "--max-n", "300", "--check-convergent"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    expected = [["n", "s_n_num", "s_n_den", "q_n", "full_factorial", "is_convergent"]]
    num, fact = 1, 1
    for n in range(301):
        if n:
            num, fact = n * num + 1, n * fact
        s_n = Fraction(num, fact)
        q_n = s_n.denominator
        row = (n, s_n.numerator, q_n, q_n, int(q_n == fact), int(n in (1, 3)))
        expected.append([str(v) for v in row])
    assert rows == expected


# 59 is the last of 60 rows: every row is checked before the first is written.
@pytest.mark.parametrize("poisoned", [0, 40, 59])
def test_a_wrong_decimal_convergent_writes_nothing(capsys, monkeypatch, poisoned):
    # Only the decimal recurrence errs: its context's fma reads the quotient
    # one too large at row `poisoned`, while the ints and their proof are true.
    class Poisoned:
        def __init__(self):
            self.context, self.steps = exact_context(), 0

        def fma(self, a, x, y):
            row, self.steps = self.steps // 2, self.steps + 1
            return self.context.fma(a + (row == poisoned), x, y)

    monkeypatch.setattr(cfrac, "exact_context", Poisoned)
    with pytest.raises(AssertionError, match=r"mod 2\^61 - 1"):
        cli.run(["convergents", "--count", "60"])
    assert capsys.readouterr().out == ""


class CharacterCount:
    """A stdout that keeps no text, only how many characters it was sent."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)


def test_convergents_are_written_row_by_row(monkeypatch):
    # The command keeps no table: what it holds is a row or two of ints and
    # text, not the document: 9.1 MB for 3000 rows.
    sink = CharacterCount()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert cli.run(["convergents", "--count", "3000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sink.written / 4


# s_40 is in lowest terms over 40!; s_41 and s_3 are not, and their rows print
# the decimal N_n and n! divided by g = n!/q_n > 1.
@pytest.mark.parametrize("poisoned", [3, 40, 41])
@pytest.mark.parametrize("flags", [[], ["--check-convergent"]])
def test_a_wrong_decimal_partial_sum_stops_the_rows(capsys, monkeypatch, poisoned, flags):
    step = cfrac._next_sum

    def poisoned_step(pair, n):
        num, fact = step(pair, n)
        if n == poisoned and isinstance(num, Decimal):
            num += 1
        return num, fact

    monkeypatch.setattr(cfrac, "_next_sum", poisoned_step)
    with pytest.raises(AssertionError, match=r"mod 2\^61 - 1"):
        cli.run(["partial-sums", "--max-n", "60", *flags])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in range(poisoned)]


def convergents_oracle(count):
    """The convergents command's output for `count`, from the quotients
    2; 1, 2, 1, 1, 4, 1, ... and int_str, without the package's table."""
    rows, p, q = [], (0, 1), (1, 0)
    for k in range(count):
        a = 2 if k == 0 else 2 * (k + 1) // 3 if k % 3 == 2 else 1
        p, q = (p[1], a * p[1] + p[0]), (q[1], a * q[1] + q[0])
        rows.append({"index": str(k), "value": {"num": int_str(p[1]), "den": int_str(q[1])}})
    return json.JSONEncoder(indent=2).encode(rows) + "\n"


def partial_sums_oracle(max_n, check_convergent):
    """The partial-sums command's output, from N_n = n N_(n-1) + 1 over n!
    reduced by Fraction, int_str and csv.writer."""
    out = io.StringIO()
    writer = csv.writer(out)
    header = ["n", "s_n_num", "s_n_den", "q_n", "full_factorial"]
    writer.writerow(header + ["is_convergent"] * check_convergent)
    num, fact = 1, 1
    for n in range(max_n + 1):
        if n:
            num, fact = n * num + 1, n * fact
        s_n = Fraction(num, fact)
        q_n = int_str(s_n.denominator)
        row = [n, int_str(s_n.numerator), q_n, q_n, int(s_n.denominator == fact)]
        writer.writerow(row + [int(n in (1, 3))] * check_convergent)
    return out.getvalue()


@pytest.mark.parametrize(
    "argv, oracle",
    [
        (["convergents", "--count", "1500"], lambda: convergents_oracle(1500)),
        (["partial-sums", "--max-n", "1700"], lambda: partial_sums_oracle(1700, False)),
        (
            ["partial-sums", "--max-n", "1700", "--check-convergent"],
            lambda: partial_sums_oracle(1700, True),
        ),
    ],
    ids=["convergents", "partial-sums", "partial-sums-check"],
)
def test_streamed_texts_match_an_int_str_oracle(capsys, digit_limit, argv, oracle):
    # Under the lowest int-to-str digit limit CPython allows, both commands
    # print far past it.
    digit_limit(640)
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == oracle()


def test_cantor_subcommand(capsys):
    code, doc = run_json(
        capsys, ["cantor", "--family", "unit", "--a0", "2", "--N", "3", "--classify"]
    )
    assert code == 0
    assert doc["partial_sum"] == {"num": "65", "den": "24"}
    assert doc["classification"] == "irrational"


def test_cantor_mask_and_custom_json(capsys, tmp_path):
    code, doc = run_json(
        capsys, ["cantor", "--family", "mask:10", "--N", "4", "--classify"]
    )
    assert code == 0
    assert doc["classification"] == "irrational"

    spec = {
        "a0": 3,
        "a_table": [1],
        "b_table": [2],
        "tail_mode": "all-zero",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(
        capsys, ["cantor", "--spec-json", str(path), "--N", "10", "--classify"]
    )
    assert code == 0
    assert doc["classification"] == "rational"
    assert doc["rational_value"] == {"num": "7", "den": "2"}


# A spec that asserts a tail flag is refused, not read without it.
@pytest.mark.parametrize(
    "key",
    [
        "all_primes_divide_infinitely_many_b",
        "a_positive_infinitely_often",
        "a_below_b_minus_1_infinitely_often",
    ],
)
def test_unknown_spec_key_is_refused(capsys, tmp_path, key):
    spec = {"a0": 3, "a_table": [1, 0], "b_table": [2, 3], key: True}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = cli.run(["cantor", "--spec-json", str(path), "--classify"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: unknown spec key {key!r}\n"


def test_density_subcommand(capsys):
    code, doc = run_json(capsys, ["density", "--x", "1000"])
    assert code == 0
    assert doc["count_S_neq_P"] == "127"
    assert doc["exceptions_S_neq_P"][0] == "4"


def test_density_determinism(capsys):
    code1 = cli.run(["density", "--x", "5000"])
    out1 = capsys.readouterr().out
    code2 = cli.run(["density", "--x", "5000"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_bad_cantor_spec_is_domain_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a0": 0, "a_table": [9], "b_table": [2]}))
    code = cli.run(["cantor", "--spec-json", str(path)])
    assert code == 1


SPEC = {"a_table": [1], "b_table": [2]}


@pytest.mark.parametrize(
    "name, text",
    [
        ("missing.json", None),
        ("dir", "directory"),
        ("list.json", json.dumps([1, 2])),
        ("string_entry.json", json.dumps({**SPEC, "a_table": ["1"]})),
        ("bool_entry.json", json.dumps({**SPEC, "a_table": [True]})),
        ("float_entry.json", json.dumps({**SPEC, "b_table": [2.0]})),
        ("float_a0.json", json.dumps({**SPEC, "a0": 0.5})),
        ("table_not_list.json", json.dumps({**SPEC, "a_table": 1})),
        (
            "string_flag.json",
            json.dumps(
                {
                    "a_table": [1, 0],
                    "b_table": [2, 3],
                    "tail_mode": "all-zero",
                    "a_positive_infinitely_often": "false",
                }
            ),
        ),
        ("int_flag.json", json.dumps({**SPEC, "all_primes_divide_infinitely_many_b": 1})),
        ("list_tail_mode.json", json.dumps({**SPEC, "tail_mode": ["all-zero"]})),
        ("unknown_tail_mode.json", json.dumps({**SPEC, "tail_mode": "nope"})),
        ("no_a_table.json", json.dumps({"b_table": [2]})),
        ("no_b_table.json", json.dumps({"a_table": [1]})),
        # Read without it, the spec would run repeat-last-block: 1, not 1/2.
        ("typo_key.json", json.dumps({**SPEC, "tail-mode": "all-zero"})),
    ],
)
def test_unreadable_cantor_spec_is_domain_error(capsys, tmp_path, name, text):
    path = tmp_path / name
    if text == "directory":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    assert cli.run(["cantor", "--spec-json", str(path), "--N", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if name.startswith("no_"):  # the spec lacks the key its file is named after
        assert name.removeprefix("no_").removesuffix(".json") in captured.err


def test_unwritable_density_csv_is_domain_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    assert cli.run(["density", "--x", "100", "--csv", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_resource_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(density, "MAX_SCAN_ENTRIES", 10)
    code = cli.run(["density", "--x", "1000"])
    assert code == 2
    assert "resource" in capsys.readouterr().err


def test_memory_error_is_named(capsys, monkeypatch):
    # str(MemoryError()) is empty: the line says what ran out.
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_interval", out_of_memory)
    assert cli.run(["interval", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "resource error: out of memory\n")


@pytest.mark.parametrize(
    "env, argv, expected",
    [
        ({"EMEASURE_WORKERS": "abc"}, ["kempner", "--q", "6"], 0),
        ({"EMEASURE_WORKERS": "abc"}, ["density", "--x", "1000"], 0),
        ({"EMEASURE_WORKERS": "0"}, ["density", "--x", "1000"], 0),
        ({}, ["density", "--x", "1000", "--workers", "0"], 1),
    ],
)
def test_bad_overrides(capsys, monkeypatch, env, argv, expected):
    # A bad --workers fails its command, with a message. EMEASURE_WORKERS is
    # not read.
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.run(argv) == expected
    err = capsys.readouterr().err
    if expected:
        assert err.startswith("error: ")


def _no_pool(*args, **kwargs):
    raise AssertionError("density started a process pool")


def test_worker_counts_identical(capsys, monkeypatch):
    # --workers is accepted and has no effect: the report starts no process.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    for x in (2 * density.BLOCK_SIZE + 100, 10**6):
        outputs = set()
        for workers in ("1", "2", "1000"):
            assert cli.run(["density", "--x", str(x), "--workers", workers]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


def assert_resource_error(capsys, argv):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["interval", "--n", "10001"],
        ["partial-sums", "--max-n", "10001"],
        ["measure", "--corollary2", "10001"],
        ["cantor", "--N", "10001"],
        ["convergents", "--count", "20001"],
    ],
)
def test_depth_past_max_depth_is_resource_error(capsys, argv):
    # Refused before any endpoint is built, and before any output.
    misses = enclosure._endpoint.cache_info().misses
    assert_resource_error(capsys, argv)
    assert enclosure._endpoint.cache_info().misses == misses


def test_convergent_count_past_its_proof_is_refused_at_once(capsys):
    # The whole recurrence ran first (0.3-0.4 s at 20000), then the proof
    # failed at MAX_DEPTH; the proof is now priced before the recurrence.
    start = time.perf_counter()
    assert_resource_error(capsys, ["convergents", "--count", "20000"])
    assert time.perf_counter() - start < 0.1


# An input past each budget that the CLI can reach, one per ResourceError
# raise site; kempner_range's BLOCK_SIZE check and kempner_S_naive's own
# MAX_ORACLE_Q check sit behind others.
PAST_A_BUDGET = {
    "depth": ["interval", "--n", "10001"],
    "convergent-proof": ["convergents", "--count", "13942"],
    "undecided": ["distance", "--p", "65", "--q", "24", "--digits", "39999"],
    "digits": ["distance", "--p", "65", "--q", "24", "--digits", "40000"],
    "trial-division": ["kempner", "--q", "1000002000007"],
    "oracle": ["kempner", "--oracle-check", "--max", "100001"],
    "bound-bits": ["measure", "--p", "2718284", "--q", "1000003"],
    "scan": ["density", "--x", "100000000"],
}


# Runs the CLI, then writes its own peak RSS to stderr: VmHWM counts this
# process alone, where ru_maxrss would count the test process it was forked
# from.
RUN_AND_REPORT_PEAK = """
import sys
from emeasure import cli
try:
    code = cli.run(sys.argv[1:])
finally:
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM:"):
            sys.stderr.write(line)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize("argv", PAST_A_BUDGET.values(), ids=PAST_A_BUDGET)
def test_a_refusal_costs_about_a_start(argv):
    # Exit 2 and empty stdout in a fresh process, within 1 s and 64 MB of
    # peak RSS. refine's "undecided at MAX_DEPTH" is the one refusal that
    # cannot be priced first; it costs at most the endpoint at MAX_DEPTH.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", RUN_AND_REPORT_PEAK, *argv], env=env, capture_output=True
    )
    assert time.perf_counter() - start < 1.0
    assert (done.returncode, done.stdout) == (2, b"")
    error, peak = done.stderr.decode().splitlines()
    assert error.startswith("resource error: ")
    assert int(peak.split()[1]) < 64 * 1024  # kB


def test_partial_sums_convergent_table_refused_before_header(capsys, monkeypatch):
    # A table past 200! would need a proof near depth 400. The scan proves
    # quotients only for s_1, s_2 and s_3, so it answers within a depth of 300.
    monkeypatch.setattr(enclosure, "MAX_DEPTH", 300)
    assert cli.run(["partial-sums", "--max-n", "200", "--check-convergent"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 202
    assert [row[0] for row in rows[1:] if row[-1] == "1"] == ["1", "3"]


def test_undecided_at_max_depth_is_resource_error(capsys, monkeypatch):
    monkeypatch.setattr(enclosure, "MAX_DEPTH", 8)
    assert_resource_error(capsys, ["distance", "--p", "65", "--q", "24", "--digits", "20"])


def fail_to_build(*args):
    raise AssertionError("built a number the budget should have refused")


@pytest.mark.parametrize(
    "module, name, argv",
    [
        # 40000 digits need 10000! > 10^40000, which is false.
        (
            enclosure,
            "scaled_text",
            ["distance", "--p", "65", "--q", "24", "--digits", "40000"],
        ),
        (kempner, "kempner_S_naive", ["kempner", "--oracle-check", "--max", "1000000"]),
    ],
    ids=["distance-digits", "kempner-oracle"],
)
def test_work_past_its_budget_is_refused_before_it_starts(
    capsys, monkeypatch, module, name, argv
):
    monkeypatch.setattr(module, name, fail_to_build)
    assert_resource_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--p", "2718284", "--q", "1000003"],
        ["measure", "--p", "2718284", "--q", "1000003", "--bound", "prime-factor"],
        ["measure", "--p", "3", "--q", "1000003", "--bound", "weak-prime"],
        ["measure", "--p", "3", "--q", "7", "--bound", "known", "--eps", "1/100000"],
        ["measure", "--p", "3", "--q", "7", "--bound", "known", "--eps", "10000000"],
        ["measure", "--compare", "--q", "1000003", "--eps", "1/100000"],
        ["measure", "--compare", "--q", "7", "--eps", "1000000"],
    ],
)
def test_bound_past_the_bit_budget_is_resource_error(capsys, monkeypatch, argv):
    # Decided by arithmetic on sizes: no factorial or power is built.
    monkeypatch.setattr(math, "factorial", fail_to_build)
    monkeypatch.setattr(math, "perm", fail_to_build)
    monkeypatch.setattr(measures, "rising_product", fail_to_build)
    monkeypatch.setattr(measures, "_nth_root_ceil", fail_to_build)
    assert_resource_error(capsys, argv)


def test_one_resource_error_type():
    assert density.ResourceError is ResourceError
    assert issubclass(enclosure.DepthCapExceeded, ResourceError)


def test_factorize_work_limit_is_resource_error(capsys):
    assert_resource_error(capsys, ["kempner", "--q", "1000000000000000003"])


@pytest.fixture
def run_big(capsys):
    """stdout of a command whose result passes the int-to-str digit limit.

    The command runs under the limit and must leave it unchanged; the limit
    is then lifted until the test ends, because int() parsing the output back
    has the same limit.
    """
    limit = sys.get_int_max_str_digits()

    def run(argv):
        assert cli.run(argv) == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        return capsys.readouterr().out

    yield run
    sys.set_int_max_str_digits(limit)


def fraction(doc):
    return Fraction(int(doc["num"]), int(doc["den"]))


def test_interval_prints_big_endpoints(run_big):
    doc = json.loads(run_big(["interval", "--n", "1600"]))
    left = fraction(doc["left"])
    assert left == partial_sum(1600)
    assert fraction(doc["right"]) == left + Fraction(1, math.factorial(1600))


def test_cantor_prints_big_partial_sum(run_big):
    doc = json.loads(run_big(["cantor", "--family", "unit", "--N", "2000"]))
    assert fraction(doc["partial_sum"]) == partial_sum(2001) - 2


def test_partial_sums_print_big_rows(run_big):
    text = run_big(["partial-sums", "--max-n", "1700"])
    rows = [[int(v) for v in row] for row in list(csv.reader(io.StringIO(text)))[1:]]
    assert [row[0] for row in rows] == list(range(1701))
    n, num, den, q_n, _ = rows[-1]
    assert Fraction(num, den) == partial_sum(n) and den == q_n


def test_big_output_leaves_the_digit_limit_alone(capsys, monkeypatch):
    # Results past the int-to-str digit limit print in full without the limit
    # being changed. The expected texts come from int_str, which
    # tests/test_rationals.py checks against str().
    def refuse(limit):
        raise AssertionError("the int-to-str digit limit was changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    code, doc = run_json(capsys, ["interval", "--n", "1600"])
    assert code == 0
    left = partial_sum(1600)
    assert doc["left"]["num"] == int_str(left.numerator)
    assert doc["left"]["den"] == int_str(left.denominator)

    code, doc = run_json(
        capsys, ["distance", "--p", "65", "--q", "24", "--digits", "5000"]
    )
    assert code == 0
    assert len(doc["digits"]) == 5002 and doc["digits"].startswith("0.00994")

    assert cli.run(["partial-sums", "--max-n", "1700"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    s_n = partial_sum(1700)
    assert rows[-1][:3] == ["1700", int_str(s_n.numerator), int_str(s_n.denominator)]


def test_distance_prints_digits_past_the_int_limit(run_big):
    doc = json.loads(run_big(["distance", "--p", "65", "--q", "24", "--digits", "5000"]))
    with localcontext() as ctx:
        ctx.prec = 5100
        e, term, k = Decimal(0), Decimal(1), 0
        while term > Decimal(10) ** -5100:
            e += term
            k += 1
            term /= k
        distance = e - Decimal(65) / 24
        expected = distance.quantize(Decimal(10) ** -5000, rounding=ROUND_DOWN)
    assert doc["digits"] == str(expected)
    assert doc["digits"].startswith("0.00994")


def test_json_round_trip_big_values(capsys):
    q19 = Fraction(1, math.factorial(19) // 4000)
    cli._emit_json({"q19": q19, "n": 19, "holds": True, "witness": (65, 24)})
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "q19": {"num": "1", "den": str(math.factorial(19) // 4000)},
        "n": "19",
        "holds": True,
        "witness": ["65", "24"],
    }
    assert fraction(doc["q19"]) == q19


def _jsonable(obj):
    """obj under the CLI's JSON rule, as a copy for json's own encoder: an int
    (not a bool) becomes its decimal string and a Fraction {"num", "den"};
    dicts, lists and tuples are converted item by item, anything else is
    kept. The oracle of cli._render."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int_str(obj)
    if isinstance(obj, Fraction):
        return {"num": int_str(obj.numerator), "den": int_str(obj.denominator)}
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    return obj


# Strings that json must escape: quotes, backslashes, control characters,
# non-ASCII and astral code points (written as surrogate pairs).
JSON_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\né€😀') | st.characters())
JSON_LEAVES = (
    JSON_TEXT
    | st.integers()
    | st.fractions()
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(JSON_TEXT, inner),
    max_leaves=30,
)


@example([True, False, None, -1, Fraction(-7, 3), 0.001, (), [], {}])
@given(JSON_DOCS)
def test_emit_json_matches_the_json_encoder(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(doc)
    assert out.getvalue() == json.JSONEncoder(indent=2).encode(_jsonable(doc)) + "\n"


def test_emit_writes_nothing_when_rendering_fails(capsys):
    # No CLI document has a key that is not a str, or holds a record (a
    # command hands over a report's vars()), so either is refused, not
    # converted as json's encoder would convert it.
    report = density.density_report(10)
    for doc in ({"n": 1, "bad": object()}, {1: "a"}, {"n": 1, "report": report}):
        with pytest.raises(TypeError):
            cli._emit_json(doc)
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--p", "1", "--q", "0"],
        ["distance", "--p", "1", "--q", "2", "--bound", "1/0"],
        ["measure", "--p", "1", "--q", "5", "--bound", "known", "--eps", "1/0"],
        ["measure", "--compare", "--q", "5", "--eps", "-3"],
        ["kempner", "--oracle-check", "--max", "-5"],
        # --bound and --eps take P or P/Q in integers. An exponent would make
        # Fraction build 10^|exp| before any budget check: 1e-2000000 takes
        # about a second, 1e100000000 does not finish.
        ["distance", "--p", "3", "--q", "1", "--bound", "1e-2000000"],
        ["measure", "--p", "3", "--q", "7", "--bound", "known", "--eps", "0.5"],
        ["measure", "--compare", "--q", "7", "--eps", "1e100000000"],
    ],
)
def test_bad_rational_is_domain_error(capsys, argv):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if "1/0" in argv:
        flag = argv[argv.index("1/0") - 1]
        assert captured.err == f"error: {flag} takes P/Q with Q != 0\n"


@pytest.mark.parametrize("argv", [["interval"], ["interval", "--n", "x"]])
def test_usage_error_is_domain_error(capsys, argv):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")


def test_unknown_flag_rejected(capsys):
    assert cli.run(["interval", "--n", "4", "--bogus", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --bogus 1" in captured.err


def test_help_exits_0(capsys):
    assert cli.run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")


# ------------------------------------------------ properties at the boundary

MALFORMED = st.sampled_from(["", "x", "1.5", "1/0", "-1/0", "0x10", "2/-4"])


def integers(lo, hi):
    """A decimal string in [lo, hi], or about one time in four a malformed value."""
    valid = st.integers(lo, hi).map(str)
    return st.integers(0, 3).flatmap(lambda k: MALFORMED if k == 0 else valid)


# Exponent literals, which --bound and --eps refuse (exit 1) before building
# 10^|exp|.
EXPONENTS = ["1e-5", "1e100000000", "1E-100000000"]


def rationals(max_den):
    return st.one_of(
        st.builds("{}/{}".format, st.integers(-5, 5), st.integers(0, max_den)),
        integers(-5, 5),
        st.sampled_from(EXPONENTS),
    )


def option(name, values):
    """[] or [name, value]; a flag when values is None."""
    present = st.just([name]) if values is None else values.map(lambda v: [name, v])
    return st.one_of(st.just([]), present)


def given_option(name, values):
    return values.map(lambda v: [name, v])


def command(name, *options):
    return st.tuples(*options).map(lambda parts: [name] + sum(parts, []))


# eps denominators past the bound budget: a measure that uses eps exits 2.
BIG_EPS = ["1/1000000", "3/2000000"]
# 5000 digits pass the int-to-str limit; 40000 and more are past what
# MAX_DEPTH can decide and exit 2.
MANY_DIGITS = ["5000", "40000", str(10**8)]
# Oracle ranges past kempner.MAX_ORACLE_Q: exit 2.
BIG_MAX = [str(kempner.MAX_ORACLE_Q + 1), str(10**9)]

MEASURE_OPTIONS = (
    option(
        "--bound",
        st.sampled_from(["theorem1", "prime-factor", "weak-prime", "known", "x"]),
    ),
    option("--eps", st.one_of(rationals(12), st.sampled_from(BIG_EPS))),
)

ARGV = st.one_of(
    command(
        "kempner",
        option("--q", integers(-3, 10**4)),
        option("--oracle-check", None),
        option("--max", st.one_of(integers(-3, 300), st.sampled_from(BIG_MAX))),
    ),
    command("interval", option("--n", integers(-3, 60))),
    command(
        "distance",
        given_option("--p", integers(-50, 200)),
        given_option("--q", integers(-3, 100)),
        option("--digits", st.one_of(integers(-1, 20), st.sampled_from(MANY_DIGITS))),
        option("--bound", rationals(10**6)),
        option("--bound", rationals(10**6)),
    ),
    command(
        "measure",
        option("--p", integers(-5, 300)),
        given_option("--q", integers(-3, 200)),
        option("--compare", None),
        *MEASURE_OPTIONS,
    ),
    command("measure", given_option("--corollary2", integers(-2, 8)), *MEASURE_OPTIONS),
    command("convergents", option("--count", integers(-2, 40))),
    command(
        "cantor",
        option(
            "--family",
            st.sampled_from(["unit", "complement", "mask:10", "mask:", "mask:12", "x"]),
        ),
        option("--a0", integers(-3, 10)),
        option("--N", integers(-3, 40)),
        option("--classify", None),
    ),
    command("density", option("--x", integers(-3, 2000)), st.just(["--workers", "1"])),
)


def no_json_number(text):
    raise AssertionError(f"integer {text} is not a string")


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_cli_boundary(argv):
    # Any argv: an exit code, never a traceback or SystemExit; JSON with
    # string integers on success, and nothing on stdout otherwise.
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            pytest.fail(f"SystemExit({exc.code}) escaped from {argv}")
    assert code in (0, 1, 2)
    uses_eps = ("--compare" in argv or "known" in argv) and "--corollary2" not in argv
    if uses_eps and any(eps in argv for eps in BIG_EPS):
        assert code != 0
    if "--digits" in argv and argv[argv.index("--digits") + 1] in MANY_DIGITS[1:]:
        assert code != 0
    if "--oracle-check" in argv and any(big in argv for big in BIG_MAX):
        assert code != 0
    if any(exponent in argv for exponent in EXPONENTS):
        assert code == 1
    if code == 0:
        json.loads(out.getvalue(), parse_int=no_json_number)
    else:
        assert out.getvalue() == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "--compare"], "--compare requires --q"),
        (["cantor", "--family", "nope"], "unknown family 'nope'"),
        # Each message names the flag that was given a bad value.
        (["distance", "--p", "1", "--q", "0"], "--q must not be 0"),
        (["cantor", "--family", "mask:1x"], "--family mask:BITS"),
        (["cantor", "--family", "mask:12"], "--family mask:BITS"),
        (["cantor", "--family", "mask:"], "--family mask:BITS"),
    ],
)
def test_missing_or_unknown_choice_is_domain_error(capsys, argv, message):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def run_verify_paper(monkeypatch, capsys, results, *flags):
    monkeypatch.setattr(verify, "run_all", lambda: results)
    code = cli.run(["verify-paper", *flags])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_verify_paper_exits_1_on_a_failed_check(monkeypatch, capsys):
    results = [
        verify.CheckResult("good", True, "ok", 0.5),
        verify.CheckResult("bad", False, "no", 1.25),
    ]
    code, doc, err = run_verify_paper(monkeypatch, capsys, results, "--no-timestamp")
    assert code == 1
    assert "[FAIL] bad (1.25s)" in err.splitlines()
    assert "[PASS] good (0.50s)" in err.splitlines()
    assert doc == {
        "checks": [
            {"name": "good", "passed": True, "detail": "ok", "seconds": 0.5},
            {"name": "bad", "passed": False, "detail": "no", "seconds": 1.25},
        ],
        "all_passed": False,
    }


def test_verify_paper_passing_run_carries_a_timestamp(monkeypatch, capsys):
    results = [verify.CheckResult("good", True, "ok", 0.5)]
    code, doc, err = run_verify_paper(monkeypatch, capsys, results)
    assert code == 0
    assert doc["all_passed"] is True
    assert "[FAIL]" not in err
    stamp = datetime.datetime.fromisoformat(doc["timestamp"])
    assert stamp.utcoffset() == datetime.timedelta(0)
