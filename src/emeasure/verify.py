"""End-to-end verification suite: one check per headline claim.

`CHECKS` is the only copy of the claims. `run_all()` is the canonical
reproduction path (exposed as the `verify-paper` CLI subcommand); the
acceptance tests run each check with `run_check` and hold it to its runtime
budget. Every check is exact; `detail` carries the computed values so a
failure is self-explanatory.

On a POSIX machine where this process may run on more than one CPU, and no
other thread runs, `run_all()` shares the checks with one forked child: the
two take check indices from one pipe, a byte at a time, and the child sends
back each result it finished. The parent runs again itself every check with
no result from the child (one that raised there, or a child that died), so
the results, and any exception a check raises, are those of a serial run.
Each result's `seconds` is timed in the process that ran the check.
"""

from __future__ import annotations

import marshal
import math
import os
import threading
import time
from fractions import Fraction

from . import cantor, cfrac, density, enclosure, kempner, measures
from .rationals import GREATER, LESS, Record, truncate_decimal


class CheckResult(Record):
    def __init__(self, name: str, passed: bool, detail: str, seconds: float = 0.0):
        vars(self).update(name=name, passed=passed, detail=detail, seconds=seconds)


def _check(name: str, budget: float):
    """Register fn as the check `name`, which must finish within `budget`
    seconds once the endpoint and convergent caches are warm."""

    def wrap(fn):
        fn.check_name = name
        fn.budget = budget
        CHECKS.append(fn)
        return fn

    return wrap


CHECKS: list = []


@_check("interval construction I1..I4", budget=0.001)
def check_intervals() -> tuple[bool, str]:
    expected = {
        1: (Fraction(2), Fraction(3)),
        2: (Fraction(5, 2), Fraction(6, 2)),
        3: (Fraction(16, 6), Fraction(17, 6)),
        4: (Fraction(65, 24), Fraction(66, 24)),
    }
    got = {n: (enclosure.interval(n).left, enclosure.interval(n).right) for n in expected}
    return got == expected, f"{got}"


@_check("sandwich 1/120 < |e - 65/24| < 1/24 with printed digits", budget=0.010)
def check_sandwich() -> tuple[bool, str]:
    r = Fraction(65, 24)
    ok = (
        enclosure.compare_distance_to_e(r, Fraction(1, 120)) == GREATER
        and enclosure.compare_distance_to_e(r, Fraction(1, 24)) == LESS
    )
    printed = (
        truncate_decimal(Fraction(1, 120), 5),
        enclosure.render_distance(r, 5),
        truncate_decimal(Fraction(1, 24), 5),
    )
    ok = ok and printed == ("0.00833", "0.00994", "0.04166")
    return ok, f"comparisons exact, digits {printed}"


@_check("Kempner fast/naive agreement on q <= 10^4 and anchor values", budget=1.0)
def check_kempner_oracle() -> tuple[bool, str]:
    mismatches = kempner.oracle_mismatches(10_000)
    anchors = (
        kempner.kempner_S(6) == 3
        and all(kempner.kempner_S(q) == q for q in range(1, 6))
        and all(
            kempner.kempner_S(math.factorial(n)) == n for n in range(2, 13)
        )
    )
    return not mismatches and anchors, f"mismatches={mismatches[:5]}, anchors={anchors}"


@_check(
    "lower bound 1/(S(q)+1)! sweep, q in [2, 2000], nearest numerators",
    budget=3.0,
)
def check_measure_sweep() -> tuple[bool, str]:
    # The q are visited in order of S(q), so each bound factorial extends
    # the last one: k! = k * (k - 1)! for k up to S(q) + 1. The enclosure
    # weighs the bound as 1/(k! 0!) from this running k!, off the path of
    # check_theorem1's 1/(1 k!), and p/q unreduced.
    S = [0, 0] + [kempner.kempner_S(q) for q in range(2, 2001)]
    failures = []
    k = fact = 1
    for q in sorted(range(2, 2001), key=S.__getitem__):
        while k <= S[q]:
            k += 1
            fact *= k
        f = enclosure.floor_e_times(q)
        for p in (f - 1, f, f + 1, f + 2):
            if not enclosure._exceeds(p, q, 1, fact, 0):
                failures.append((p, q))
    return not failures, f"failures={failures[:5]}"


@_check("sharpness for 3 <= n <= 12 and prime-factor-bound scan to 12", budget=5.0)
def check_sharpness_and_primality() -> tuple[bool, str]:
    sharp = all(measures.check_sharpness(n) for n in range(3, 13))
    scans = [measures.corollary2_scan(n) for n in range(2, 13)]
    biconditional = all(s["prime"] == s["all_hold"] for s in scans)
    witness4 = next(s for s in scans if s["n"] == 4)["witness"] == (65, 24)
    return sharp and biconditional and witness4, (
        f"sharp={sharp}, biconditional={biconditional}, witness at 4 ok={witness4}"
    )


@_check("first 50 convergents: |e - p/q| < 1/q^2 and inside interval(12)", budget=5.0)
def check_convergents() -> tuple[bool, str]:
    box = enclosure.interval(12)
    bad_quality = []
    outside = []
    for conv in cfrac.convergents(50):
        value = conv.value
        bound = Fraction(1, value.denominator**2)
        quality = enclosure.compare_distance_to_e(value, bound)
        if quality != LESS:
            bad_quality.append(conv.index)
        # Containment in interval(12) kicks in once q_k exceeds 12!: below
        # that a convergent may legitimately sit outside the interval.
        inside = box.left <= value <= box.right
        if value.denominator > math.factorial(12) and not inside:
            outside.append(conv.index)
    return not bad_quality and not outside, (
        f"quality failures={bad_quality}, outside interval(12)={outside}"
    )


@_check("reduced denominator of s_19 equals 19!/4000", budget=0.010)
def check_q19() -> tuple[bool, str]:
    # The scan's residue table, which partial-sums and the scans read, not
    # partial_sum_record's trial of every prime.
    *_, (record, _) = cfrac.partial_sum_scan(19)
    expected = math.factorial(19) // 4000
    return record.q_n == expected, f"q_19={record.q_n}, expected {expected}"


@_check("partial-sum convergent scan to 500 yields exactly n = 1 and 3", budget=5.0)
def check_conjecture2() -> tuple[bool, str]:
    hits = cfrac.conjecture2_scan(500)
    rows = cfrac.corollary3_scan(60)
    violations = [r["n"] for r in rows if r["violated"]]
    return hits == [1, 3] and not violations, f"hits={hits}, violations={violations}"


@_check("Cantor series classifications (unit, complement, masked)", budget=1.0)
def check_cantor() -> tuple[bool, str]:
    unit = cantor.classify(cantor.unit_family(a0=2))
    comp = cantor.classify(cantor.complement_family(a0=0))
    even = cantor.classify(cantor.masked_unit_family((1, 0)))
    odd = cantor.classify(cantor.masked_unit_family((0, 1)))
    telescoping = all(
        cantor.cantor_partial_sum(cantor.complement_family(0), N)
        == 1 - Fraction(1, math.factorial(N + 1))
        for N in range(0, 21)
    )
    ok = (
        unit.classification == cantor.IRRATIONAL
        and comp.classification == cantor.RATIONAL
        and comp.rational_value == 1
        and even.classification == cantor.IRRATIONAL
        and odd.classification == cantor.IRRATIONAL
        and telescoping
    )
    return ok, (
        f"unit={unit.classification}, complement={comp.classification}"
        f"({comp.rational_value}), masked={even.classification}/{odd.classification},"
        f" telescoping={telescoping}"
    )


@_check("range scan: batch agrees pointwise; exception ratios shrink", budget=0.5)
def check_density() -> tuple[bool, str]:
    plan = density.kempner_plan(10_000)
    # 1000 q at a time: the whole range at once is the suite's peak memory.
    blocks = ((lo, min(lo + 999, 10_000)) for lo in range(2, 10_001, 1000))
    # S(q) and P(q) read one factorization of q: below 2^14 none is cached.
    agree = all(
        (s, p) == (kempner._kempner_S(factors), factors[-1][0])
        for lo, hi in blocks
        for q, s, p in zip(range(lo, hi + 1), *density.kempner_range(lo, hi, plan))
        for factors in [kempner._factors(q)]
    )
    small = density.density_report(1000)
    large = density.density_report(10**6)
    shrinking = (
        Fraction(large.count_S_neq_P, large.x) < Fraction(small.count_S_neq_P, small.x)
        and Fraction(large.count_conjecture1_fail, large.x)
        < Fraction(small.count_conjecture1_fail, small.x)
    )
    return agree and shrinking, (
        f"pointwise agreement={agree}; ratios S!=P {small.ratio_S_neq_P} -> "
        f"{large.ratio_S_neq_P}, conj1 {small.ratio_conjecture1_fail} -> "
        f"{large.ratio_conjecture1_fail}"
    )


@_check("(n+1)! < (n!)^2 for 3 <= n <= 100, fails at n = 2", budget=0.001)
def check_factorial_boundary() -> tuple[bool, str]:
    holds = all(measures.factorial_square_boundary(n) for n in range(3, 101))
    fails_at_2 = not measures.factorial_square_boundary(2)
    return holds and fails_at_2, f"holds(3..100)={holds}, fails at 2={fails_at_2}"


def run_check(fn) -> CheckResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CheckResult(
        name=fn.check_name,
        passed=passed,
        detail=detail,
        seconds=time.perf_counter() - start,
    )


def _take(queue: int):
    """Check indices read from the `queue` pipe a byte at a time until it is
    empty. The pipe hands each byte to one reader only."""
    while index := os.read(queue, 1):
        yield index[0]


def _fork(queue: int):
    """(pid, file of results) of a child sharing the checks in `queue`, or
    (0, None) when run_all runs them alone: without os.fork, on one CPU, or
    with another thread running. That thread could hold a module's lock
    (kempner._BLOCKS_LOCK) at the fork, and Python 3.12
    warns of a fork with threads running."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 0, None
    back, out = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: run alone
        os.close(back)
        os.close(out)
        return 0, None
    if pid:
        os.close(out)
        return pid, open(back, "rb")
    # The child writes each result as it finishes, so its write fails once
    # the parent has stopped reading, and leaves by os._exit: it never
    # flushes inherited stdio nor runs atexit hooks. A check that raises
    # ends it; the parent runs that check again.
    try:
        os.close(back)
        with open(out, "wb") as results:
            for i in _take(queue):
                r = run_check(CHECKS[i])
                marshal.dump((i, r.passed, r.detail, r.seconds), results)
                results.flush()
    finally:
        os._exit(0)


def run_all() -> list[CheckResult]:
    """Every check's result, in CHECKS order. The checks are shared with one
    forked child where _fork allows; a check with no result from the child
    runs here, so the results never depend on the child."""
    done: dict[int, CheckResult] = {}
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(CHECKS))))
    os.close(feed)
    pid, results = 0, None
    try:
        pid, results = _fork(queue)
        for i in _take(queue):
            done[i] = run_check(CHECKS[i])
        while results is not None:
            try:
                i, passed, detail, seconds = marshal.load(results)
            except (EOFError, ValueError):  # the child has ended
                break
            done[i] = CheckResult(CHECKS[i].check_name, passed, detail, seconds)
    finally:
        os.close(queue)
        if results is not None:
            results.close()
        if pid:
            os.waitpid(pid, 0)
    return [done[i] if i in done else run_check(fn) for i, fn in enumerate(CHECKS)]
