"""Exact counts of the exceptions to the almost-all claims, and segmented
range scans of S(q) and P(q).

Two exception counters over q in [2, x]:

* S(q) != P(q)        -- exceptions to the almost-all identity S = P
* q^2 >= S(q)!        -- exceptions to the conjectured q^2 < S(q)! (and the
                         P(q)! variant is counted alongside for comparison)

Both kinds of exception are rare smooth numbers, so density_report
enumerates them from the O(sqrt(x)) prime powers of kempner_plan instead of
scanning every q. kempner_range scans consecutive q from the same plan; it
writes the one-row-per-q CSV and serves as the reference the counts are
tested against.
"""

from __future__ import annotations

import heapq
import math
import os
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import floordiv, gt, ne

from .kempner import _kempner_prime_power, _primes_upto
from .rationals import ResourceError, require_int, rising_product, scaled_text

# The most q one kempner_range call covers: it builds three lists that long.
BLOCK_SIZE = 1 << 16
# The most entries one scan may cover (x + 1), read when a plan is made.
MAX_SCAN_ENTRIES = 10**8
EXCEPTIONS_CAP = 100


@dataclass(frozen=True)
class DensityReport:
    x: int
    count_S_neq_P: int
    count_conjecture1_fail: int  # q with q^2 >= S(q)!
    count_conjecture1_fail_P: int  # q with q^2 >= P(q)!, for comparison
    ratio_S_neq_P: str
    ratio_conjecture1_fail: str
    exceptions_S_neq_P: list[int]  # first <= 100 offenders
    exceptions_conjecture1: list[int]


@dataclass(frozen=True)
class KempnerPlan:
    """What kempner_range needs to scan any q in [2, x]: every prime power
    p^a <= x with p <= isqrt(x), as (S(p^a), p^a, p), sorted by S(p^a).

    Its size is O(sqrt(x)); no table of x entries is ever built.
    """

    x: int
    powers: tuple[tuple[int, int, int], ...]


def kempner_plan(x: int) -> KempnerPlan:
    """The base primes p <= isqrt(x) and the S value of each of their
    powers up to x, for a scan of x + 1 <= MAX_SCAN_ENTRIES entries."""
    require_int(x, "x", "kempner_plan", 2)
    if x + 1 > MAX_SCAN_ENTRIES:
        raise ResourceError(
            f"scan of {x + 1} entries exceeds budget of {MAX_SCAN_ENTRIES}"
        )
    powers = []
    for p in _primes_upto(math.isqrt(x)):
        power, a = p, 1
        while power <= x:
            powers.append((_kempner_prime_power(p, a), power, p))
            power, a = power * p, a + 1
    powers.sort()
    return KempnerPlan(x, tuple(powers))


def kempner_range(lo: int, hi: int, plan: KempnerPlan) -> tuple[list[int], list[int]]:
    """Lists of S(q) and of P(q) for q = lo .. hi, from the plan's prime
    powers alone.

    The kernel behind every scan of consecutive q; its values agree with the
    pointwise kempner_S and largest_prime_factor. S(q) is the largest
    S(p^a) over the prime powers dividing q, because S(p^a) is
    nondecreasing in a; the powers are written in ascending S order, so
    the last write is that maximum. The a = 1 entries come in ascending p,
    so the last write to P is the largest base prime dividing q. Dividing
    q by p once per p^a | q leaves 1 or the one prime factor of q above
    isqrt(x).
    """
    require_int(lo, "lo", "kempner_range")
    require_int(hi, "hi", "kempner_range")
    if not 2 <= lo <= hi <= plan.x:
        raise ValueError("kempner_range requires 2 <= lo <= hi <= the plan's x")
    n = hi - lo + 1
    if n > BLOCK_SIZE:
        raise ResourceError(f"range of {n} q exceeds BLOCK_SIZE = {BLOCK_SIZE}")
    S = [0] * n
    P = [0] * n
    rest = list(range(lo, hi + 1))
    for s, power, p in plan.powers:
        start = -lo % power
        if start >= n:
            continue
        fill = [s] * len(range(start, n, power))
        S[start::power] = fill
        if power == p:
            P[start::p] = fill
        rest[start::power] = map(floordiv, rest[start::power], repeat(p))
    S = [r if r > s else s for r, s in zip(rest, S)]
    P = [r if r > 1 else p for r, p in zip(rest, P)]
    return S, P


def _factorial_threshold(x: int) -> tuple[int, list[int]]:
    """Smallest t with t! > x^2, plus the factorials 0!, ..., t!.

    Any q <= x with S(q) >= t automatically satisfies q^2 < S(q)!, so the
    big-integer comparison is only needed for small S. t <= x + 1, since
    (x + 1)! >= (x + 1) x > x^2; t = x + 1 at x = 2 and 3.
    """
    t, _ = rising_product(2, x + 1, x * x)
    return t, [math.factorial(k) for k in range(t + 1)]


def _exceptions_S_neq_P(plan: KempnerPlan) -> Iterator[int]:
    """Every q in [2, plan.x] with S(q) != P(q), each once, in no order.

    S(q) is the largest S(r^b) over the r^b exactly dividing q. It exceeds
    P(q) exactly when that largest value belongs to some b >= 2: S(r) = r is
    at most P(q), and S(r^b) = k*r with k >= 2 is composite for b >= 2, so
    it never ties with a prime. Such an r^b <= x has r <= isqrt(x), so it is
    a plan entry. Each such q is yielded from one entry only, the (s, p^a)
    latest in the plan's (S, power) order among the p^a exactly dividing q:
    q = p^a * m, where p does not divide m, every prime of m is below s, and
    every r^b exactly dividing m with b >= 2 comes earlier in the plan.
    """
    x, powers = plan.x, plan.powers
    order = {power: i for i, (_, power, _) in enumerate(powers)}
    squareful = [i for i, (_, power, p) in enumerate(powers) if power != p]
    if not squareful:  # x < 4
        return
    primes = _primes_upto(powers[squareful[-1]][0])
    for i in squareful:
        s, power, p = powers[i]
        stop = bisect_left(primes, s)
        # (q, index of the smallest prime q may still take)
        stack = [(power, 0)]
        while stack:
            q, j = stack.pop()
            yield q
            for k in range(j, stop):
                r = primes[k]
                if q * r > x:
                    break
                if r == p:
                    continue
                rb = r
                while q * rb <= x and (rb == r or order[rb] < i):
                    stack.append((q * rb, k + 1))
                    rb *= r


def _smooth(x: int, primes: list[int]) -> Iterator[tuple[int, int, int]]:
    """(q, S(q), P(q)) for every q in [2, x] whose primes all lie in the
    ascending list primes, each once, in no order."""
    stack = [(1, 1, 1, 0)]
    while stack:
        q, s, p, j = stack.pop()
        if q > 1:
            yield q, s, p
        for k in range(j, len(primes)):
            r = primes[k]
            rb, b = r, 1
            while q * rb <= x:
                stack.append((q * rb, max(s, _kempner_prime_power(r, b)), r, k + 1))
                rb, b = rb * r, b + 1


def _count_and_smallest(items: Iterable[int]) -> tuple[int, list[int]]:
    """How many items there are, and the EXCEPTIONS_CAP smallest in
    ascending order, holding at most EXCEPTIONS_CAP of them at once."""
    tally = count()
    # zip draws from items before tally, so tally advances once per item.
    smallest = heapq.nsmallest(EXCEPTIONS_CAP, zip(items, tally))
    return next(tally), [q for q, _ in smallest]


def _write_csv(path: str, plan: KempnerPlan, threshold: int, facts: list[int]) -> None:
    """One row per q in [2, plan.x] with S(q), P(q) and both flags. Every
    field is an integer, which csv never quotes, so each row is formatted
    text ending in csv's own terminator, "\\r\\n".

    The rows go to a temporary file beside path, which then replaces path
    whole; if anything fails, the temporary file is removed and an existing
    path is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    handle = open(tmp, "x", newline="")
    try:
        with handle:
            handle.write("q,S,P,S_neq_P,conj1_fail\r\n")
            for lo in range(2, plan.x + 1, BLOCK_SIZE):
                hi = min(lo + BLOCK_SIZE - 1, plan.x)
                S, P = kempner_range(lo, hi, plan)
                qs = range(lo, hi + 1)
                # q^2 >= S(q)! needs S(q) < threshold; few q per block qualify.
                small = compress(zip(qs, S), map(gt, repeat(threshold), S))
                fails = {q for q, s in small if q * q >= facts[s]}
                flags = map(int, map(fails.__contains__, qs))
                rows = zip(qs, S, P, map(int, map(ne, S, P)), flags)
                handle.writelines(map("%d,%d,%d,%d,%d\r\n".__mod__, rows))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def density_report(x: int, csv_path: str | None = None) -> DensityReport:
    """Exact exception counts over q in [2, x].

    The counts come from enumerating the exceptions themselves, so time and
    memory grow with their number and with sqrt(x), not with x:
    S(q) != P(q) from _exceptions_S_neq_P, and both q^2 >= S(q)! and
    q^2 >= P(q)! from the q whose primes are all below t, the smallest t
    with t! > x^2, since P(q) >= t gives q^2 < t! <= P(q)! <= S(q)!.
    kempner_plan checks x: an int >= 2, with x + 1 <= MAX_SCAN_ENTRIES.
    csv_path, if given, receives one row per q with its S/P values and flags,
    from a block scan.
    """
    plan = kempner_plan(x)
    threshold, facts = _factorial_threshold(x)
    count_sp, sample_sp = _count_and_smallest(_exceptions_S_neq_P(plan))
    tally_c1p = count()

    def conjecture1_fails() -> Iterator[int]:
        # S(q) >= P(q), so q^2 >= S(q)! implies q^2 >= P(q)!: one walk
        # tallies the P failures and yields the S failures among them.
        for q, s, p in _smooth(x, _primes_upto(threshold - 1)):
            if q * q >= facts[p]:
                next(tally_c1p)
                if s < threshold and q * q >= facts[s]:
                    yield q

    count_c1, sample_c1 = _count_and_smallest(conjecture1_fails())
    count_c1p = next(tally_c1p)
    if csv_path is not None:
        _write_csv(csv_path, plan, threshold, facts)
    return DensityReport(
        x=x,
        count_S_neq_P=count_sp,
        count_conjecture1_fail=count_c1,
        count_conjecture1_fail_P=count_c1p,
        ratio_S_neq_P=scaled_text(False, count_sp * 10**8 // x, 8),
        ratio_conjecture1_fail=scaled_text(False, count_c1 * 10**8 // x, 8),
        exceptions_S_neq_P=sample_sp,
        exceptions_conjecture1=sample_c1,
    )
