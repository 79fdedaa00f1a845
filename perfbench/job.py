"""One repetition of one benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition:

    python3 perfbench/job.py <workload> --seed N --t0 T [--check] [--trace] [--probe] [--sample]

It imports emeasure from the checkout's src/, builds the workload's inputs
from the seed, times the workload's fixed job and prints one JSON line: the
set-up time (from T, the parent's CLOCK_MONOTONIC reading taken just before it
started this interpreter, to the first timed operation), the job's wall time,
the operations attempted and failed, the peak RSS, the median calibration
unit right after set-up and that for the job (timed during the job with
--sample, and taken out of its wall time, else before and after it), a
digest of the outputs and, with --check, the correctness checks that failed
and the operations they found wrong (they run after the timed spans). With --trace, calls into
each module's public functions are timed by wrappers installed from here
(src/emeasure is not edited) and the workload's per-layer metrics are added
under "layers". --probe runs the deep-scan layer probes instead of a job.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


# ------------------------------------------------------------------ tracing


class Span:
    """Time spent in the outermost calls of a group of functions, the number
    of calls (nested ones included) and the last value returned."""

    __slots__ = ("seconds", "calls", "depth", "last")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.depth = 0
        self.last = None


# span name -> (module, public functions it times together)
SPANS = {
    "enclosure.decide": ("enclosure", ("compare_distance_to_e",)),
    "enclosure.render": ("enclosure", ("render_distance",)),
    "enclosure.floor": ("enclosure", ("floor_e_times",)),
    "kempner.factorize": ("kempner", ("factorize",)),
    "kempner.S": ("kempner", ("kempner_S",)),
    "measures.bound": ("measures", ("theorem1_bound", "prime_factor_bound")),
    "measures.check": (
        "measures",
        (
            "check_theorem1",
            "check_prime_factor_bound",
            "check_weak_prime",
            "check_known",
            "render_margin",
        ),
    ),
    "measures.compare_bounds": ("measures", ("compare_bounds",)),
    "measures.sharpness": ("measures", ("check_sharpness", "corollary2_scan")),
    "cantor.partial_sum": ("cantor", ("cantor_partial_sum",)),
    "cantor.classify": ("cantor", ("classify",)),
    "density.sieve": ("density", ("sieve_smallest_prime_factor",)),
    "density.report": ("density", ("density_report",)),
    "verify.run_all": ("verify", ("run_all",)),
}


class RssGrowth:
    """Growth of peak RSS across the calls of one function, in KiB."""

    __slots__ = ("kb",)

    def __init__(self) -> None:
        self.kb = 0


def peak_rss_kb() -> int:
    """Largest ru_maxrss of this process and of its waited-for children."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _timed(fn, span: Span):
    def wrapper(*args, **kwargs):
        span.calls += 1
        if span.depth:
            return fn(*args, **kwargs)
        span.depth = 1
        start = time.perf_counter()
        try:
            span.last = fn(*args, **kwargs)
            return span.last
        finally:
            span.seconds += time.perf_counter() - start
            span.depth = 0

    return wrapper


def _rss_growth(fn, growth: RssGrowth):
    def wrapper(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return fn(*args, **kwargs)
        finally:
            growth.kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before

    return wrapper


def install_spans() -> dict[str, Span | RssGrowth]:
    """Replace every binding of each timed function, in every emeasure
    module, by a wrapper, so calls between modules are timed too. Only the
    sieve also records RSS growth (under "density.sieve_rss"), since
    getrusage on every call would slow the hot spans."""
    modules = {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "emeasure" or name.startswith("emeasure.")
    }
    growth = RssGrowth()
    spans = {"density.sieve_rss": growth}
    for span_name, (module, names) in SPANS.items():
        span = spans[span_name] = Span()
        for name in names:
            original = getattr(modules.get(module), name, None)
            if original is None:  # renamed or removed: the span stays empty
                continue
            wrapped = _timed(original, span)
            if span_name == "density.sieve":
                wrapped = _rss_growth(wrapped, growth)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return spans


# -------------------------------------------------------------- calibration

CALIBRATION_UNITS = 60
# Units timed right after set-up, to scale the set-up time.
SETUP_UNITS = 20


def calibration_unit() -> None:
    """A fixed piece of exact arithmetic that uses the standard library
    alone: the sum of 1/k! for k < 300 as a Fraction. It is the same kind of
    work as the program's (big-integer products and gcds in the interpreter)
    and none of the program's code, so no change to emeasure can move it."""
    total, factorial = Fraction(0), 1
    for k in range(1, 300):
        factorial *= k
        total += Fraction(1, factorial)


def calibrate(units: int = CALIBRATION_UNITS) -> list[float]:
    """Seconds taken by each of `units` calibration units."""
    times = []
    for _ in range(units):
        start = time.perf_counter()
        calibration_unit()
        times.append(time.perf_counter() - start)
    return times


SAMPLE_INTERVAL_S = 0.25


class SpeedSampler:
    """Times one calibration unit every SAMPLE_INTERVAL_S, from a SIGALRM
    handler in this process, so that the machine's speed is measured while
    the job runs and not only around it. The machine's speed changes in
    steps within seconds; units timed during the job follow it far more
    closely than units timed before and after it."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_unit()
        self.times.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_calibrated(fn, sample: bool) -> tuple[dict, list[float]]:
    """(fn(), calibration unit times). With sample, the units are timed
    during fn by a SpeedSampler and their time is taken out of the result's
    wall_s; otherwise CALIBRATION_UNITS are timed before fn and as many
    after it."""
    if not sample:
        before = calibrate()
        result = fn()
        return result, before + calibrate()
    with SpeedSampler() as sampler:
        result = fn()
    result["wall_s"] -= sum(sampler.times)
    return result, sampler.times or calibrate()


# ---------------------------------------------------------------- utilities


def cli_call(argv: list[str]) -> tuple[int | str, str]:
    """(exit code, stdout) of cli.run(argv), with stdout kept in memory."""
    from emeasure import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation
            code = f"raised {exc!r}"
    return code, out.getvalue()


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def partial_sums(upto: int):
    """s_n = N_n / n! for n = 0..upto, from N_n = n N_(n-1) + 1: an oracle
    that does not use the program's enclosure."""
    numerator, factorial = 1, 1
    for n in range(upto + 1):
        if n:
            numerator, factorial = n * numerator + 1, n * factorial
        yield Fraction(numerator, factorial), factorial


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def kempner_table(x: int) -> tuple[list[int], list[int]]:
    """(S, P) for every q <= x, computed here as an oracle that shares no
    code with the program: P by slice assignment over the primes in
    ascending order, S as the larger of P and the largest S(p^a), a >= 2,
    over the prime powers dividing q."""
    flags = bytearray([1]) * (x + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, x + 1, p)))
    primes = [p for p in range(x + 1) if flags[p]]
    largest = [0] * (x + 1)
    for p in primes:
        largest[p::p] = [p] * len(range(p, x + 1, p))
    powers = []
    for p in (p for p in primes if p * p <= x):
        power, a = p * p, 2
        while power <= x:
            k = p  # smallest multiple of p whose factorial holds p^a
            while sum(k // p**i for i in range(1, a + 1)) < a:
                k += p
            powers.append((k, power))
            power, a = power * p, a + 1
    square_part = [0] * (x + 1)
    for k, power in sorted(powers):
        square_part[power::power] = [k] * len(range(power, x + 1, power))
    return list(map(max, square_part, largest)), largest


# ------------------------------------------------------------------- decide

PLAIN_QUERIES = 2710
# theorem1_bound builds (S(q)+1)! exactly, so a prime q costs a factorial of
# q digits; drawn up to 1e9, 2000 queries did not finish in 10 minutes.
Q_MAX = 2 * 10**4
SHARP_N = range(3, 61)
SHARP_REPEATS = 5  # 290 sharp queries, about 10% of the 3000
COROLLARY2_MAX_N = 14
RENDER_DIGITS = 12
GOLDEN = (math.sqrt(5) - 1) / 2


def decide_inputs(rng: random.Random) -> list[tuple[str, int]]:
    """Plain queries at q log-uniform in [2, Q_MAX], sharp ones at q = n!.

    A query's cost grows steeply with S(q), which is P(q), the largest prime
    factor, for most q. So query i takes the i-th of PLAIN_QUERIES equal
    slices of [log 2, log Q_MAX] and, among that slice's integers ordered by
    P(q), the one at a rank from a randomly shifted golden-ratio sequence.
    Every seed then asks about the same spread of sizes and of P(q), with
    different q.
    """
    _, largest = kempner_table(Q_MAX)
    lo, step = math.log(2), math.log(Q_MAX / 2) / PLAIN_QUERIES
    shift = rng.random()
    queries = []
    for i in range(PLAIN_QUERIES):
        first = round(math.exp(lo + i * step))
        last = max(first, round(math.exp(lo + (i + 1) * step)) - 1)
        members = sorted(range(first, last + 1), key=lambda q: (largest[q], q))
        rank = (shift + i * GOLDEN) % 1
        queries.append(("q", members[int(rank * len(members))]))
    queries += [("n", n) for n in SHARP_N for _ in range(SHARP_REPEATS)]
    rng.shuffle(queries)
    return queries


def decide_job(queries, spans) -> dict:
    from emeasure import enclosure, kempner, measures

    def plain(q):
        f = enclosure.floor_e_times(q)
        result = kempner.kempner_result(q)
        at_f = measures.check_theorem1(f, q)
        above_f = measures.check_theorem1(f + 1, q)
        prime_factor = measures.check_prime_factor_bound(f, q)
        digits = enclosure.render_distance(Fraction(f, q), RENDER_DIGITS)
        strength = measures.compare_bounds(q)
        return (
            f,
            result.s,
            result.p,
            at_f.holds,
            above_f.holds,
            prime_factor.holds,
            digits,
            strength["stronger"],
            strength["conjecture1_holds_at_q"],
        )

    def sharp(n):
        sharp_ok = measures.check_sharpness(n)
        if n > COROLLARY2_MAX_N:
            return (sharp_ok,)
        scan = measures.corollary2_scan(n)
        return (sharp_ok, scan["prime"], scan["all_hold"], scan["witness"])

    outputs, latencies, failed = [], [], 0
    start = time.perf_counter()
    for kind, value in queries:
        begin = time.perf_counter()
        try:
            result = plain(value) if kind == "q" else sharp(value)
        except Exception as exc:  # counted as a failed operation, never skipped
            result, failed = f"raised {exc!r}", failed + 1
        latencies.append(time.perf_counter() - begin)
        outputs.append(result)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "ops": len(queries),
        "failed": failed,
        "outputs": outputs,
        "latencies": latencies,
    }


def decide_check(queries, job) -> tuple[list[str], int]:
    """(problems, queries answered wrongly)."""
    from emeasure import kempner

    with localcontext() as ctx:
        ctx.prec = 80
        e = sum(Decimal(1) / math.factorial(k) for k in range(70))
        floors = {
            q: int((e * q).to_integral_value(rounding=ROUND_FLOOR))
            for kind, q in queries
            if kind == "q"
        }
    naive_S = {q: kempner.kempner_S_naive(q) for q in floors}
    errors, wrong = [], 0
    for (kind, value), result in zip(queries, job["outputs"]):
        known = len(errors)
        if isinstance(result, str):  # raised: already counted as failed
            errors.append(f"{kind}={value}: {result}")
            continue
        if kind == "q":
            f, s, _, at_f, above_f = result[:5]
            if f != floors[value]:
                errors.append(f"floor(e*{value}) = {f}, expected {floors[value]}")
            if not (at_f and above_f):
                errors.append(f"theorem1 fails at q={value}")
            if s != naive_S[value]:
                errors.append(f"S({value}) = {s}, naive {naive_S[value]}")
        else:
            if not result[0]:
                errors.append(f"check_sharpness({value}) is false")
            if value <= COROLLARY2_MAX_N:
                prime, all_hold, witness = result[1:]
                if not prime == all_hold == is_prime(value):
                    errors.append(f"corollary2_scan({value}): prime <=> all_hold fails")
                if value == 4 and witness != (65, 24):
                    errors.append(f"corollary2_scan(4) witness {witness}")
        wrong += len(errors) > known
    return errors, wrong


def decide_latency(job) -> dict:
    """Per-query latency quantiles; run.py takes them from an untraced job,
    so that they hold no tracing overhead."""
    latencies_ms = [t * 1000 for t in job["latencies"]]
    return {
        "decide.op_p50_ms": statistics.median(latencies_ms),
        "decide.op_p99_ms": statistics.quantiles(latencies_ms, n=100)[98],
        "decide.op_samples": len(latencies_ms),
    }


def decide_layers(spans, job) -> dict:
    layers = {}
    for name in (
        "enclosure.decide",
        "enclosure.render",
        "enclosure.floor",
        "kempner.factorize",
        "kempner.S",
        "measures.bound",
        "measures.check",
        "measures.compare_bounds",
        "measures.sharpness",
    ):
        layers[f"{name}_s"] = spans[name].seconds
    layers["enclosure.decide_calls"] = spans["enclosure.decide"].calls
    layers["kempner.factorize_calls"] = spans["kempner.factorize"].calls
    return layers


# ---------------------------------------------------------------- deep-scan

CONVERGENTS = 1500
MAX_N = 500
CANTOR_N = 1400
# Depth the enclosure reaches while validating CONVERGENTS convergents.
FILL_DEPTH = 2048


def deep_scan_inputs(rng: random.Random) -> dict:
    return {"a0": rng.randrange(1, 1000)}


def deep_scan_commands(inputs) -> list[list[str]]:
    return [
        ["convergents", "--count", str(CONVERGENTS)],
        ["partial-sums", "--max-n", str(MAX_N), "--check-convergent"],
        ["cantor", "--family", "unit", "--a0", str(inputs["a0"]),
         "--N", str(CANTOR_N), "--classify"],
    ]


# Output rows per command: one per convergent, per n, and one Cantor result.
ROWS = (CONVERGENTS, MAX_N + 1, 1)


def deep_scan_job(inputs, spans) -> dict:
    start = time.perf_counter()
    outputs = [cli_call(argv) for argv in deep_scan_commands(inputs)]
    wall = time.perf_counter() - start
    failed = sum(rows for rows, (code, _) in zip(ROWS, outputs) if code != 0)
    return {"wall_s": wall, "ops": sum(ROWS), "failed": failed, "outputs": outputs}


def deep_scan_check(inputs, job) -> tuple[list[str], int]:
    """(problems, output rows of the commands whose output is wrong); a
    command that exited non-zero is already counted as failed."""
    checks = (check_convergents, check_partial_sums, check_cantor)
    errors, wrong = [], 0
    for argv, rows, check, (code, text) in zip(
        deep_scan_commands(inputs), ROWS, checks, job["outputs"]
    ):
        if code != 0:
            errors.append(f"{argv[0]} exited {code}")
            continue
        found = check(inputs, text)
        errors += found
        wrong += rows if found else 0
    return errors, wrong


def check_convergents(inputs, text: str) -> list[str]:
    values = [Fraction(int(r["value"]["num"]), int(r["value"]["den"])) for r in json.loads(text)]
    errors = []
    if len(values) != CONVERGENTS:
        errors.append(f"{len(values)} convergents, expected {CONVERGENTS}")
    if values[:5] != [2, 3, Fraction(8, 3), Fraction(11, 4), Fraction(19, 7)]:
        errors.append(f"convergents begin {values[:5]}")
    if any(
        abs(a.numerator * b.denominator - b.numerator * a.denominator) != 1
        for a, b in zip(values, values[1:])
    ):
        errors.append("consecutive convergents are not adjacent fractions")
    return errors


def check_partial_sums(inputs, text: str) -> list[str]:
    rows = list(csv_rows(text))
    expected = [
        [n, s.numerator, s.denominator, s.denominator, int(s.denominator == fact), int(n in (1, 3))]
        for n, (s, fact) in enumerate(partial_sums(MAX_N))
    ]
    if rows == expected:
        return []
    bad = next((r for r, x in zip(rows, expected) if r != x), rows[len(expected):])
    return [f"partial-sums row differs: {str(bad)[:200]}"]


def check_cantor(inputs, text: str) -> list[str]:
    doc = json.loads(text)
    total = Fraction(int(doc["partial_sum"]["num"]), int(doc["partial_sum"]["den"]))
    *_, (s_next, _) = partial_sums(CANTOR_N + 1)
    errors = []
    if total != inputs["a0"] - 2 + s_next:
        errors.append("Cantor partial sum differs from a0 - 2 + s(N+1)")
    if doc["classification"] != "irrational":
        errors.append(f"Cantor verdict {doc['classification']}")
    return errors


def csv_rows(text: str):
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for row in reader:
        yield [int(v) for v in row]


def deep_scan_layers(spans, job) -> dict:
    return {
        "cantor.partial_sum_s": spans["cantor.partial_sum"].seconds,
        "cantor.classify_s": spans["cantor.classify"].seconds,
    }


def deep_scan_probe(inputs, spans) -> dict:
    """Per-layer probes on the deep-scan sizes, in this order: a cold fill of
    the enclosure to FILL_DEPTH, convergent validation with the enclosure
    warm, the partial-sum convergent scan with the table warm, and the CLI
    commands re-run with every cache warm."""
    from emeasure import cfrac, enclosure

    start = time.perf_counter()
    enclosure.partial_sum(FILL_DEPTH)
    fill = time.perf_counter() - start

    calls = spans["enclosure.decide"].calls
    start = time.perf_counter()
    cfrac.convergents(CONVERGENTS)
    validate = time.perf_counter() - start
    validated = spans["enclosure.decide"].calls - calls

    start = time.perf_counter()
    hits = [n for n in range(MAX_N + 1) if cfrac.is_convergent(enclosure.partial_sum(n))]
    scan = time.perf_counter() - start

    start = time.perf_counter()
    outputs = [cli_call(argv) for argv in deep_scan_commands(inputs)]
    emit = time.perf_counter() - start
    return {
        "layers": {
            "enclosure.partial_sum_fill_s": fill,
            "cfrac.convergents_s": validate,
            "cfrac.validated": validated,
            "cfrac.is_convergent_s": scan,
            "cli.emit_s": emit,
        },
        "ops": sum(ROWS),
        # A wrong scan makes every row of the partial-sums table wrong.
        "failed": sum(rows for rows, (code, _) in zip(ROWS, outputs) if code != 0)
        + (0 if hits == [1, 3] else ROWS[1]),
        "digest": digest(outputs),
        "errors": [] if hits == [1, 3] else [f"partial sums that are convergents: {hits}"],
    }


# ------------------------------------------------------------------ density

DENSITY_X = 2_000_000


def density_inputs(rng: random.Random) -> dict:
    return {"x": DENSITY_X + rng.randrange(1000)}


def density_argv(inputs, workers: int) -> list[str]:
    return ["density", "--x", str(inputs["x"]), "--workers", str(workers)]


def density_job(inputs, spans) -> dict:
    report = spans and spans["density.report"].seconds
    start = time.perf_counter()
    code, text = cli_call(density_argv(inputs, 1))
    wall = time.perf_counter() - start
    job = {"wall_s": wall, "ops": inputs["x"] - 1, "failed": 0, "outputs": text}
    if code != 0:
        job["failed"] = job["ops"]
    if spans:
        job["report_s"] = spans["density.report"].seconds - report
        start = time.perf_counter()
        job["w2"] = cli_call(density_argv(inputs, 2))
        job["wall_w2_s"] = time.perf_counter() - start
    return job


def density_check(inputs, job) -> tuple[list[str], int]:
    """(problems, scanned q counted wrong): the report covers the whole
    scan, so a wrong report makes every scanned q wrong."""
    from emeasure import kempner

    if job["failed"]:
        return ["density --workers 1 failed"], 0
    code, text = job["w2"] if "w2" in job else cli_call(density_argv(inputs, 2))
    errors = [] if code == 0 and text == job["outputs"] else [
        "density JSON differs between 1 and 2 workers"
    ]
    doc = json.loads(job["outputs"])
    for q in map(int, doc["exceptions_S_neq_P"]):
        if kempner.kempner_S(q) == kempner.largest_prime_factor(q):
            errors.append(f"listed S != P exception {q} has S = P")

    x = inputs["x"]
    S, P = kempner_table(x)
    limit = x * x
    facts = [1]
    while facts[-1] <= limit:
        facts.append(facts[-1] * len(facts))
    neq = [q for q in range(2, x + 1) if S[q] != P[q]]
    fail = [q for q in range(2, x + 1) if S[q] < len(facts) and q * q >= facts[S[q]]]
    fail_P = [q for q in range(2, x + 1) if P[q] < len(facts) and q * q >= facts[P[q]]]
    expected = {
        "count_S_neq_P": str(len(neq)),
        "count_conjecture1_fail": str(len(fail)),
        "count_conjecture1_fail_P": str(len(fail_P)),
        "exceptions_S_neq_P": [str(q) for q in neq[:100]],
        "exceptions_conjecture1": [str(q) for q in fail[:100]],
    }
    errors += [
        f"{key} = {str(doc.get(key))[:120]}, expected {str(value)[:120]}"
        for key, value in expected.items()
        if doc.get(key) != value
    ]
    return errors, job["ops"] if errors else 0


def density_layers(spans, job) -> dict:
    sieve = spans["density.sieve"]
    return {
        "density.sieve_s": sieve.seconds,
        "density.sieve_rss_mb": spans["density.sieve_rss"].kb / 1024,
        "density.scan_s": job["report_s"] - sieve.seconds,
        "density.wall_w2_s": job["wall_w2_s"],
        "density.scaling_eff": job["wall_s"] / (2 * job["wall_w2_s"]),
    }


# ------------------------------------------------------------- verify-paper

# verify-paper check name prefix -> metric slug
VERIFY_CHECKS = {
    "interval construction": "intervals",
    "sandwich": "sandwich",
    "Kempner fast/naive": "kempner_oracle",
    "lower bound": "measure_sweep",
    "sharpness": "sharpness",
    "first 50 convergents": "convergents",
    "reduced denominator": "q19",
    "partial-sum convergent scan": "conjecture2",
    "Cantor series": "cantor",
    "range scan": "density",
    "(n+1)! < (n!)^2": "factorial_boundary",
}


def verify_inputs(rng: random.Random) -> dict:
    return {}  # verify-paper takes no input


def verify_job(inputs, spans) -> dict:
    start = time.perf_counter()
    code, text = cli_call(["verify-paper", "--no-timestamp"])
    wall = time.perf_counter() - start
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError):
        checks = []
    # The seconds differ between runs; the rest of the report does not.
    outputs = [code] + [(c["name"], c["passed"], c["detail"]) for c in checks]
    failed = sum(not c["passed"] for c in checks) if code in (0, 1) else len(VERIFY_CHECKS)
    return {"wall_s": wall, "ops": max(len(checks), 1), "failed": failed, "outputs": outputs}


def verify_check(inputs, job) -> tuple[list[str], int]:
    """(problems, 0): a check that did not pass is already counted as failed
    by verify_job."""
    code, *checks = job["outputs"]
    errors = [f"{name}: {detail}" for name, passed, detail in checks if not passed]
    if code != 0 or not checks:
        errors.append(f"verify-paper exited {code}")
    return errors, 0


def verify_layers(spans, job) -> dict:
    layers = {}
    for i, result in enumerate(spans["verify.run_all"].last or []):
        slug = next(
            (s for prefix, s in VERIFY_CHECKS.items() if result.name.startswith(prefix)),
            f"check{i}",
        )
        layers[f"verify.{slug}_s"] = result.seconds
    return layers


# --------------------------------------------------------------------- main

WORKLOADS = {
    "decide": (decide_inputs, decide_job, decide_check, decide_layers),
    "deep-scan": (deep_scan_inputs, deep_scan_job, deep_scan_check, deep_scan_layers),
    "density": (density_inputs, density_job, density_check, density_layers),
    "verify-paper": (verify_inputs, verify_job, verify_check, verify_layers),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--sample", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import emeasure.cli  # noqa: F401  (imports every module of the package)

    spans = install_spans() if args.trace or args.probe else None
    make_inputs, job_fn, check_fn, layers_fn = WORKLOADS[args.workload]
    inputs = make_inputs(random.Random(args.seed))
    setup = time.monotonic() - args.t0
    setup_calibration = statistics.median(calibrate(SETUP_UNITS))
    if args.probe:
        result, calibration = run_calibrated(lambda: deep_scan_probe(inputs, spans), False)
    else:
        job, calibration = run_calibrated(lambda: job_fn(inputs, spans), args.sample)
        result = {
            "setup_s": setup,
            "setup_calibration_s": setup_calibration,
            "wall_s": job["wall_s"],
            "ops": job["ops"],
            "failed": job["failed"],
            "rss_mb": peak_rss_kb() / 1024,
            "digest": digest(job["outputs"]),
        }
        if "latencies" in job:
            result["latency"] = decide_latency(job)
        if spans:
            result["layers"] = layers_fn(spans, job)
    result["calibration_s"] = statistics.median(calibration)
    if args.check:
        result["errors"], result["wrong"] = check_fn(inputs, job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
