"""Exact counts of the exceptions to the almost-all claims, and segmented
range scans of S(q) and P(q).

Two exception counters over q in [2, x]:

* S(q) != P(q)        -- exceptions to the almost-all identity S = P
* q^2 >= S(q)!        -- exceptions to the conjectured q^2 < S(q)! (and the
                         P(q)! variant is counted alongside for comparison)

Both kinds of exception are rare smooth numbers, so density_report counts
them from the O(sqrt(x)) prime powers of kempner_plan instead of scanning
every q. The S != P walk counts the exceptions whose last prime is large
from a table of pi(y), without visiting them. kempner_range scans
consecutive q from the same plan; it finds the smallest S != P exceptions
in the first block of [2, x], writes the one-row-per-q CSV and serves as
the reference the counts are tested against.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from itertools import accumulate, compress, repeat
from operator import floordiv, ne

from .kempner import _kempner_prime_power, _prime_flags, _primes_upto
from .rationals import Record, ResourceError, require_int, rising_product, scaled_text

# The most q one kempner_range call covers: it builds three lists that long.
BLOCK_SIZE = 1 << 16
# The most entries one scan may cover (x + 1), read when a plan is made.
MAX_SCAN_ENTRIES = 10**8
EXCEPTIONS_CAP = 100
# The q per kempner_range call of the S != P sample: 127 of them lie in
# [2, 1000], so one block holds the EXCEPTIONS_CAP smallest for any x >= 1000.
_SAMPLE_BLOCK = 1 << 10


class DensityReport(Record):
    def __init__(
        self,
        x: int,
        count_S_neq_P: int,
        count_conjecture1_fail: int,  # q with q^2 >= S(q)!
        count_conjecture1_fail_P: int,  # q with q^2 >= P(q)!, for comparison
        ratio_S_neq_P: str,
        ratio_conjecture1_fail: str,
        exceptions_S_neq_P: list[int],  # first <= 100 offenders
        exceptions_conjecture1: list[int],
    ):
        vars(self).update(
            x=x,
            count_S_neq_P=count_S_neq_P,
            count_conjecture1_fail=count_conjecture1_fail,
            count_conjecture1_fail_P=count_conjecture1_fail_P,
            ratio_S_neq_P=ratio_S_neq_P,
            ratio_conjecture1_fail=ratio_conjecture1_fail,
            exceptions_S_neq_P=exceptions_S_neq_P,
            exceptions_conjecture1=exceptions_conjecture1,
        )


class KempnerPlan(Record):
    """What kempner_range needs to scan any q in [2, x]: every prime power
    p^a <= x with p <= isqrt(x), as (S(p^a), p^a, p), sorted by S(p^a).

    Its size is O(sqrt(x)); no table of x entries is ever built.
    """

    def __init__(self, x: int, powers: tuple[tuple[int, int, int], ...]):
        vars(self).update(x=x, powers=powers)


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


def _count_S_neq_P(plan: KempnerPlan) -> int:
    """How many q in [2, plan.x] have S(q) != P(q).

    S(q) is the largest S(r^b) over the r^b exactly dividing q. It exceeds
    P(q) exactly when that largest value belongs to some b >= 2: S(r) = r is
    at most P(q), and S(r^b) = k*r with k >= 2 is composite for b >= 2, so
    it never ties with a prime. Such an r^b <= x has r <= isqrt(x), so it is
    a plan entry. Each such q is counted from one entry only, the (s, p^a)
    latest in the plan's (S, power) order among the p^a exactly dividing q:
    q = p^a * m, where p does not divide m, every prime of m is below s, and
    every r^b exactly dividing m with b >= 2 comes earlier in the plan.

    The walk from p^a appends primes in ascending order. At a node q whose
    next prime may be no smaller than primes[j], it visits only the primes
    r <= isqrt(x // q) and counts the children q*r with
    isqrt(x // q) < r <= x // q, r < s, r != p, at once from a table of
    pi(y), the number of primes <= y. Such a child is a leaf: a child of it
    would be q*r*r' with a prime r' > r, or q*r^2, and both are at least
    q*r^2 >= q * (x // q + 1) > x, since r > isqrt(x // q) means
    r^2 >= x // q + 1.
    """
    x, powers = plan.x, plan.powers
    order = {power: i for i, (_, power, _) in enumerate(powers)}
    squareful = [i for i, (_, power, p) in enumerate(powers) if power != p]
    if not squareful:  # x < 4
        return 0
    top = powers[squareful[-1]][0] - 1  # every prime a walk appends is <= top
    flags = _prime_flags(top)
    primes = list(compress(range(top + 1), flags))
    pi = list(accumulate(flags))  # pi[y] = number of primes <= y
    total = 0
    for i in squareful:
        s, power, p = powers[i]
        last = s - 1
        k_p = pi[p] - 1  # the index of p in primes
        # (q, index of the smallest prime q may still take)
        stack = [(power, 0)]
        while stack:
            q, j = stack.pop()
            lim = x // q
            root = math.isqrt(lim)
            # primes[j:mid] are visited, primes[max(j, mid):end] are leaves
            mid = pi[root] if root < last else pi[last]
            end = pi[lim] if lim < last else pi[last]
            first = mid if mid > j else j
            if first < end:  # less p, if it is among them
                total += end - first - (first <= k_p and p <= lim)
            total += 1
            for k in range(j, mid):
                r = primes[k]
                if r == p:
                    continue
                stack.append((q * r, k + 1))
                rb = r * r
                while rb <= lim and order[rb] < i:
                    stack.append((q * rb, k + 1))
                    rb *= r
    return total


def _smallest_S_neq_P(plan: KempnerPlan) -> list[int]:
    """The EXCEPTIONS_CAP smallest q in [2, plan.x] with S(q) != P(q), in
    ascending order, from kempner_range over the first _SAMPLE_BLOCK q, and
    the next block only while fewer than EXCEPTIONS_CAP are found."""
    found: list[int] = []
    for lo in range(2, plan.x + 1, _SAMPLE_BLOCK):
        if len(found) >= EXCEPTIONS_CAP:
            break
        hi = min(lo + _SAMPLE_BLOCK - 1, plan.x)
        S, P = kempner_range(lo, hi, plan)
        found += compress(range(lo, hi + 1), map(ne, S, P))
    return found[:EXCEPTIONS_CAP]


def _smooth(x: int, primes: list[int]) -> Iterator[tuple[int, int, int]]:
    """(q, S(q), P(q)) for every q in [2, x] whose primes all lie in the
    ascending list primes, each once, in no order."""
    # (r^b, S(r^b)) for each prime r and each of its powers up to x
    table = []
    for r in primes:
        row, rb, b = [], r, 1
        while rb <= x:
            row.append((rb, _kempner_prime_power(r, b)))
            rb, b = rb * r, b + 1
        table.append(row)
    stack = [(1, 1, 1, 0)]
    while stack:
        q, s, p, j = stack.pop()
        if q > 1:
            yield q, s, p
        lim = x // q
        for k in range(j, len(primes)):
            for rb, t in table[k]:
                if rb > lim:
                    break
                stack.append((q * rb, t if t > s else s, primes[k], k + 1))


def _write_csv(path: str, plan: KempnerPlan, fails: set[int]) -> None:
    """One row per q in [2, plan.x] with S(q), P(q) and both flags, the
    conj1_fail flag read from fails, the set of q with q^2 >= S(q)!. Every
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
                flags = map(int, map(fails.__contains__, qs))
                rows = zip(qs, S, P, map(int, map(ne, S, P)), flags)
                handle.writelines(map("%d,%d,%d,%d,%d\r\n".__mod__, rows))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def density_report(x: int, csv_path: str | None = None) -> DensityReport:
    """Exact exception counts over q in [2, x].

    The counts come from walks over the exceptions, so time and memory grow
    with their number and with sqrt(x), not with x. S(q) != P(q) is counted
    by _count_S_neq_P, which visits the exceptions whose last prime is small
    and counts those whose last prime is large from a table of pi(y); the
    EXCEPTIONS_CAP smallest come from kempner_range over the first block
    of [2, x]. One walk over the q whose primes are all below t, the
    smallest t with t! > x^2, counts both q^2 >= S(q)! and q^2 >= P(q)!,
    since P(q) >= t gives q^2 < t! <= P(q)! <= S(q)!. It keeps the
    q^2 >= S(q)! exceptions in one sorted list (3 284 at x = 10^8 - 1):
    their count, the EXCEPTIONS_CAP smallest and the CSV's conj1_fail
    column are all read from it.
    kempner_plan checks x: an int >= 2, with x + 1 <= MAX_SCAN_ENTRIES.
    csv_path, if given, receives one row per q with its S/P values and flags,
    from a block scan.
    """
    plan = kempner_plan(x)
    threshold, facts = _factorial_threshold(x)
    count_sp, sample_sp = _count_S_neq_P(plan), _smallest_S_neq_P(plan)
    # S(q) >= P(q), so q^2 >= S(q)! implies q^2 >= P(q)!: one walk counts
    # the P failures and keeps the S failures among them.
    count_c1p, fails = 0, []
    for q, s, p in _smooth(x, _primes_upto(threshold - 1)):
        if q * q >= facts[p]:
            count_c1p += 1
            if s < threshold and q * q >= facts[s]:
                fails.append(q)
    fails.sort()
    if csv_path is not None:
        _write_csv(csv_path, plan, set(fails))
    return DensityReport(
        x=x,
        count_S_neq_P=count_sp,
        count_conjecture1_fail=len(fails),
        count_conjecture1_fail_P=count_c1p,
        ratio_S_neq_P=scaled_text(False, count_sp * 10**8 // x, 8),
        ratio_conjecture1_fail=scaled_text(False, len(fails) * 10**8 // x, 8),
        exceptions_S_neq_P=sample_sp,
        exceptions_conjecture1=fails[:EXCEPTIONS_CAP],
    )
