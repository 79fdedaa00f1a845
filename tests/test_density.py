import concurrent.futures
import csv
import io
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import compress
from operator import ne

import pytest
from hypothesis import given, settings, strategies as st

from emeasure import density
from emeasure.density import (
    DensityReport,
    ResourceError,
    density_report,
    kempner_plan,
    kempner_range,
)
from emeasure.kempner import kempner_prime_power, kempner_S, largest_prime_factor
from emeasure.rationals import truncate_decimal


def spf_table(x: int) -> list[int]:
    """Oracle: spf[q] = least prime dividing q, for 0 <= q <= x."""
    spf = list(range(x + 1))
    spf[0] = spf[1] = 0
    for p in range(2, math.isqrt(x) + 1):
        if spf[p] == p:
            for multiple in range(p * p, x + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def spf_walk(lo: int, hi: int, spf: list[int]) -> tuple[list[int], list[int]]:
    """Oracle: S(q) and P(q) for q = lo .. hi by factoring each q with the
    spf table, an algorithm that shares nothing with the segmented kernel."""
    S, P = [], []
    for q in range(lo, hi + 1):
        s = 0
        while q > 1:
            p, e = spf[q], 0
            while q % p == 0:
                q //= p
                e += 1
            s = max(s, kempner_prime_power(p, e))
        S.append(s)
        P.append(p)
    return S, P


def block_tally(x: int) -> DensityReport:
    """Oracle: the report from a scan of every q in [2, x], block by block
    with kempner_range, instead of an enumeration of the exceptions."""
    plan = kempner_plan(x)
    facts = [1]  # up to the first factorial above x^2
    while facts[-1] <= x * x:
        facts.append(facts[-1] * len(facts))
    neq, fail, count_fail_P = [], [], 0
    for lo in range(2, x + 1, density.BLOCK_SIZE):
        hi = min(lo + density.BLOCK_SIZE - 1, x)
        S, P = kempner_range(lo, hi, plan)
        qs = range(lo, hi + 1)
        neq += compress(qs, map(ne, S, P))
        for q, s, p in zip(qs, S, P):
            if p < len(facts) and q * q >= facts[p]:
                count_fail_P += 1
                if s < len(facts) and q * q >= facts[s]:
                    fail.append(q)
    return DensityReport(
        x=x,
        count_S_neq_P=len(neq),
        count_conjecture1_fail=len(fail),
        count_conjecture1_fail_P=count_fail_P,
        ratio_S_neq_P=truncate_decimal(Fraction(len(neq), x), 8),
        ratio_conjecture1_fail=truncate_decimal(Fraction(len(fail), x), 8),
        exceptions_S_neq_P=neq[: density.EXCEPTIONS_CAP],
        exceptions_conjecture1=fail[: density.EXCEPTIONS_CAP],
    )


def test_batch_agrees_with_pointwise():
    plan = kempner_plan(20_000)
    S, P = kempner_range(2, 10_000, plan)
    for q, s, p in zip(range(2, 10_001), S, P):
        assert s == kempner_S(q)
        assert p == largest_prime_factor(q)
    # A range that starts mid-plan, as every block after the first does.
    rng = random.Random(7)
    lo = rng.randrange(10_001, 19_000)
    S, P = kempner_range(lo, 20_000, plan)
    assert S == [kempner_S(q) for q in range(lo, 20_001)]
    assert P == [largest_prime_factor(q) for q in range(lo, 20_001)]


def test_batch_first_values():
    S, P = kempner_range(2, 10, kempner_plan(10))
    assert S == [2, 3, 4, 5, 3, 7, 4, 6, 5]
    assert P == [2, 3, 2, 5, 3, 7, 2, 3, 5]


@pytest.mark.parametrize("lo, hi", [(2, 11), (1, 10), (9, 11), (5, 4), (10**30, -1)])
def test_range_outside_plan_rejected(lo, hi):
    with pytest.raises(ValueError):
        kempner_range(lo, hi, kempner_plan(10))


@given(st.data())
def test_kernel_agrees_with_pointwise(data):
    x = data.draw(st.integers(min_value=2, max_value=2 * 10**5))
    lo = data.draw(st.integers(min_value=2, max_value=x))
    hi = data.draw(st.integers(min_value=lo, max_value=min(x, lo + 300)))
    S, P = kempner_range(lo, hi, kempner_plan(x))
    assert S == [kempner_S(q) for q in range(lo, hi + 1)]
    assert P == [largest_prime_factor(q) for q in range(lo, hi + 1)]


@pytest.mark.parametrize(
    "x",
    [113**2, 113**2 - 1, 113 * 127, 2 * density.BLOCK_SIZE + 100],
    ids=["square", "square-minus-one", "largest-base-prime-times-next", "three-blocks"],
)
def test_kernel_agrees_with_spf_oracle(x):
    # 113 is a base prime of 113^2 but not of 113^2 - 1, whose multiples of
    # 113 then carry it as their one factor above isqrt(x).
    plan, spf = kempner_plan(x), spf_table(x)
    for lo in range(2, x + 1, density.BLOCK_SIZE):
        hi = min(lo + density.BLOCK_SIZE - 1, x)
        assert kempner_range(lo, hi, plan) == spf_walk(lo, hi, spf)


def test_largest_base_prime_and_next_prime():
    # isqrt(113 * 127) = 119: 113 is the largest base prime and 127 the
    # smallest prime above isqrt(x).
    plan = kempner_plan(113 * 127)
    assert kempner_range(113**2, 113**2, plan) == ([226], [113])
    assert kempner_range(113 * 127, 113 * 127, plan) == ([127], [127])


def test_range_across_block_boundary():
    lo, hi = density.BLOCK_SIZE - 40, density.BLOCK_SIZE + 40
    S, P = kempner_range(lo, hi, kempner_plan(2 * density.BLOCK_SIZE))
    assert S == [kempner_S(q) for q in range(lo, hi + 1)]
    assert P == [largest_prime_factor(q) for q in range(lo, hi + 1)]


def test_smallest_exceptions():
    report = density_report(100)
    assert report.exceptions_S_neq_P[0] == 4
    assert report.exceptions_conjecture1[0] == 2
    assert 4 not in report.exceptions_conjecture1


def test_counts_against_direct_recount():
    report = density_report(3000)
    direct_sp = direct_c1 = direct_c1p = 0
    for q in range(2, 3001):
        s, p = kempner_S(q), largest_prime_factor(q)
        if s != p:
            direct_sp += 1
        if q * q >= math.factorial(s):
            direct_c1 += 1
        if q * q >= math.factorial(p):
            direct_c1p += 1
    assert report.count_S_neq_P == direct_sp
    assert report.count_conjecture1_fail == direct_c1
    assert report.count_conjecture1_fail_P == direct_c1p


def test_ratios_shrink():
    small = density_report(1000)
    large = density_report(100_000)
    assert large.count_S_neq_P * small.x < small.count_S_neq_P * large.x
    assert large.count_conjecture1_fail * small.x < small.count_conjecture1_fail * large.x


@pytest.mark.parametrize(
    "x",
    [2, 3, 4, 5, 8, 9, 100, 113**2 - 1, 113**2, 113 * 127]
    + [2 * density.BLOCK_SIZE + 100, 10**6],
)
def test_report_agrees_with_block_tally(x):
    # Below 4 the plan has no square prime power, so there is no S != P.
    assert density_report(x) == block_tally(x)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=2 * 10**5))
def test_report_agrees_with_block_tally_drawn(x):
    assert density_report(x) == block_tally(x)


@pytest.mark.parametrize(
    "x, counts",
    [(10**7, (67_252, 1_642, 7_546)), (99_999_999, (342_862, 3_284, 19_654))],
)
def test_pinned_counts(x, counts):
    # Counts of a full block scan at these x, pinned since the scan takes
    # seconds to minutes there.
    report = density_report(x)
    assert (
        report.count_S_neq_P,
        report.count_conjecture1_fail,
        report.count_conjecture1_fail_P,
    ) == counts


def _no_pool(*args, **kwargs):
    raise AssertionError("density_report started a process pool")


@pytest.mark.parametrize("over", [0, 1], ids=["fits", "one-over"])
def test_scan_budget_counted_once(monkeypatch, over):
    # The budget bounds the scan size x + 1, and the report starts no process.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    x = density.BLOCK_SIZE + 300
    monkeypatch.setattr(density, "MAX_SCAN_ENTRIES", x + 1 - over)
    if over:
        with pytest.raises(ResourceError):
            density_report(x)
    else:
        assert density_report(x).x == x


def test_plan_carries_the_scan_budget(monkeypatch):
    # x + 1 = 10^8 is the last scan the budget allows; one more is refused
    # before the sieve runs.
    plan = kempner_plan(10**8 - 1)
    assert plan.x == 10**8 - 1

    def fail_to_sieve(n):
        raise AssertionError("sieved for a plan past the budget")

    monkeypatch.setattr(density, "_primes_upto", fail_to_sieve)
    with pytest.raises(ResourceError, match="scan of 100000001 entries"):
        kempner_plan(10**8)


def test_scan_memory_independent_of_x():
    # The report holds an O(sqrt(x)) plan and at most EXCEPTIONS_CAP
    # exceptions at once, never a table or a block of x entries: at x = 10^7
    # its peak stays below 1 MiB, which one kempner_range block exceeds.
    tracemalloc.start()
    try:
        density_report(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_csv_export(tmp_path):
    # x spans two blocks, so rows are written by more than one block scan.
    x = density.BLOCK_SIZE + 300
    path = tmp_path / "exceptions.csv"
    report = density_report(x, csv_path=str(path))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert [int(r["q"]) for r in rows] == list(range(2, x + 1))
    assert sum(int(r["S_neq_P"]) for r in rows) == report.count_S_neq_P
    assert sum(int(r["conj1_fail"]) for r in rows) == report.count_conjecture1_fail
    flagged = [int(r["q"]) for r in rows if r["S_neq_P"] == "1"]
    assert flagged[: len(report.exceptions_S_neq_P)] == report.exceptions_S_neq_P
    row6 = next(r for r in rows if r["q"] == "6")
    assert (row6["S"], row6["P"]) == ("3", "3")


def test_csv_is_the_csv_writer_text(tmp_path):
    # Oracle: csv.writer over the batch values, with q^2 >= S(q)! tested on
    # math.factorial (20! > 10^10 >= q^2, so a larger S(q) never fails).
    x = 10**5
    path = tmp_path / "rows.csv"
    density_report(x, csv_path=str(path))
    S, P = kempner_range(2, x, kempner_plan(x))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["q", "S", "P", "S_neq_P", "conj1_fail"])
    for q, s, p in zip(range(2, x + 1), S, P):
        writer.writerow([q, s, p, int(s != p), int(q * q >= math.factorial(min(s, 20)))])
    assert path.read_bytes() == out.getvalue().encode()


def test_csv_replaces_target_atomically(tmp_path, monkeypatch):
    # A failure mid-write leaves the old file and no temporary file; a
    # finished write replaces the file whole.
    target = tmp_path / "exceptions.csv"
    target.write_text("old\n")
    x = density.BLOCK_SIZE + 300
    blocks = []

    def failing_range(lo, hi, plan):
        blocks.append(lo)
        if len(blocks) == 2:
            raise RuntimeError("disk gone")
        return kempner_range(lo, hi, plan)

    monkeypatch.setattr(density, "kempner_range", failing_range)
    with pytest.raises(RuntimeError):
        density_report(x, csv_path=str(target))
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["exceptions.csv"]

    monkeypatch.undo()
    density_report(x, csv_path=str(target))
    with open(target) as handle:
        assert sum(1 for _ in handle) == x
    assert [p.name for p in tmp_path.iterdir()] == ["exceptions.csv"]
