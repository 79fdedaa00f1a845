"""Exact counts of the exceptions to the almost-all claims, and segmented
range scans of S(q) and P(q).

Two exception counters over q in [2, x]:

* S(q) != P(q)        -- exceptions to the almost-all identity S = P
* q^2 >= S(q)!        -- exceptions to the conjectured q^2 < S(q)! (and the
                         P(q)! variant is counted alongside for comparison)

Both kinds of exception are rare smooth numbers, so density_report counts
them without scanning every q. The S != P walk goes through the O(sqrt(x))
prime powers of kempner_plan and counts the exceptions whose last prime is
large from a table of pi(y), without visiting them. conjecture1_counts
visits no q at all: it counts the divisors of s! and the smooth numbers up
to x by meet in the middle. kempner_range scans consecutive q from the
plan; it finds the smallest S != P exceptions in the first block of [2, x],
writes the one-row-per-q CSV and serves as the reference the counts are
tested against.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from itertools import accumulate, compress, repeat
from operator import floordiv, ne

from .kempner import _SMALL_PRIMES, _kempner_prime_power, _prime_flags, _primes_upto
from .rationals import Record, ResourceError, require_int, rising_product, scaled_text

# The most q one kempner_range call covers: it builds three lists that long.
BLOCK_SIZE = 1 << 16
# The most entries one scan may cover (x + 1), read when a plan is made.
MAX_SCAN_ENTRIES = 10**8
# The largest x conjecture1_counts answers, read at each call.
MAX_CONJECTURE1_X = 10**18
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


def _ceil_sqrt(n: int) -> int:
    """The least L with L^2 >= n, for n >= 1."""
    return math.isqrt(n - 1) + 1


def _small_primes(n: int) -> tuple[int, ...]:
    """The primes <= n, for n < 1000: the t - 1 of any x up to
    MAX_CONJECTURE1_X is 32."""
    return _SMALL_PRIMES[: bisect_right(_SMALL_PRIMES, n)]


def _products(primes: tuple[int, ...], caps: list[int], y: int) -> list[int]:
    """Every product of p^e <= y over the primes, with 0 <= e <= p's cap,
    once each, in no order, for y >= 1."""
    out = [1]
    for p, cap in zip(primes, caps):
        more = []
        for m in out:
            for _ in range(cap):
                m *= p
                if m > y:
                    break
                more.append(m)
        out += more
    return out


def _count_products(primes: tuple[int, ...], caps: list[int], y: int) -> int:
    """len(_products(primes, caps, y)), by meet in the middle: the sorted
    products A of the first third of the primes (rounded up, which at
    x = 10^18 is faster and smaller than rounded down), and for each product
    b of the rest, the bisect_right(A, y // b) products a in A with
    a*b <= y."""
    k = (len(primes) + 2) // 3
    low = sorted(_products(primes[:k], caps[:k], y))
    high = _products(primes[k:], caps[k:], y)
    return sum(map(bisect_right, repeat(low), map(floordiv, repeat(y), high)))


def _legendre(primes: tuple[int, ...], s: int) -> list[int]:
    """The exponent of each prime in s!, by Legendre's formula."""
    caps = []
    for p in primes:
        e, power = 0, p
        while power <= s:
            e, power = e + s // power, power * p
        caps.append(e)
    return caps


def _count_divisors(s: int, y: int) -> int:
    """D(s, y): how many divisors of s! are <= y, for y >= 0."""
    primes = _small_primes(s)
    return _count_products(primes, _legendre(primes, s), y)


def _count_smooth(r: int, y: int) -> int:
    """Psi(y, r): how many m in [1, y] have no prime factor above r, for
    y >= 0. The exponent cap y.bit_length() never binds: p^e > y first."""
    primes = _small_primes(r)
    return _count_products(primes, [y.bit_length()] * len(primes), y)


def conjecture1_counts(x: int) -> tuple[int, int]:
    """(#{q in [2, x] : q^2 >= S(q)!}, #{q in [2, x] : q^2 >= P(q)!}),
    counted without visiting the q, for 2 <= x <= MAX_CONJECTURE1_X.

    With t the smallest integer with t! > x^2, q^2 <= x^2 < t! makes the
    first need S(q) < t and the second P(q) < t. S(q) <= s exactly when
    q | s!, so D(s, y), the divisors of s! up to y, counts the q <= y with
    S(q) <= s, and D(s, y) - D(s - 1, y) those with S(q) = s. Such a q fails
    when q >= L_s = ceil(sqrt(s!)); summed over s = 2 .. t - 1 the counts up
    to x telescope to D(t - 1, x) - D(1, x). A q with P(q) = r is r*m with
    m r-smooth, and fails when r*m >= L_r: over the primes r < t that is
    Psi(x // r, r) - Psi((L_r - 1) // r, r), with Psi(y, r) the number of
    r-smooth m <= y. At x = 10^18 this takes about 0.3 s; x above
    MAX_CONJECTURE1_X is refused before any work.
    """
    require_int(x, "x", "conjecture1_counts", 2)
    if x > MAX_CONJECTURE1_X:
        raise ResourceError(
            f"conjecture1_counts refuses x above MAX_CONJECTURE1_X = {MAX_CONJECTURE1_X}"
        )
    t, facts = _factorial_threshold(x)
    count_S = _count_divisors(t - 1, x) - 1
    for s in range(2, t):
        edge = _ceil_sqrt(facts[s]) - 1
        count_S -= _count_divisors(s, edge) - _count_divisors(s - 1, edge)
    count_P = 0
    for r in _small_primes(t - 1):
        edge = (_ceil_sqrt(facts[r]) - 1) // r
        count_P += _count_smooth(r, x // r) - _count_smooth(r, edge)
    return count_S, count_P


def _smallest_conjecture1(x: int, t: int, facts: list[int]) -> list[int]:
    """The EXCEPTIONS_CAP smallest q in [2, x] with q^2 >= S(q)!, in
    ascending order: for s = 2 .. t - 1, the divisors q <= x of s! with
    q >= L_s = ceil(sqrt(s!)) that do not divide (s - 1)!, until
    EXCEPTIONS_CAP are found and L_s passes the EXCEPTIONS_CAP-th smallest.
    L_s grows with s, so no later s adds a smaller q."""
    cap = EXCEPTIONS_CAP
    found: list[int] = []
    for s in range(2, t):
        least = _ceil_sqrt(facts[s])
        if len(found) >= cap and least > found[cap - 1]:
            break
        primes = _small_primes(s)
        for q in _products(primes, _legendre(primes, s), x):
            if q >= least and facts[s - 1] % q:
                found.append(q)
        found.sort()
    return found[:cap]


def _write_csv(path: str, plan: KempnerPlan, t: int, facts: list[int]) -> None:
    """One row per q in [2, plan.x] with S(q), P(q) and both flags:
    S_neq_P is S(q) != P(q), and conj1_fail is q^2 >= S(q)!, tested as
    S(q) < t and q^2 >= facts[S(q)] with t and facts from
    _factorial_threshold(plan.x). Every field is an integer, which csv never
    quotes, so each row is formatted text ending in csv's own terminator,
    "\\r\\n".

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
                flags = [int(s < t and q * q >= facts[s]) for q, s in zip(qs, S)]
                rows = zip(qs, S, P, map(int, map(ne, S, P)), flags)
                handle.writelines(map("%d,%d,%d,%d,%d\r\n".__mod__, rows))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def density_report(x: int, csv_path: str | None = None) -> DensityReport:
    """Exact exception counts over q in [2, x].

    No count scans every q, so time and memory grow with sqrt(x) and the
    exceptions visited, not with x. S(q) != P(q) is counted by
    _count_S_neq_P, which visits the exceptions whose last prime is small
    and counts those whose last prime is large from a table of pi(y); the
    EXCEPTIONS_CAP smallest come from kempner_range over the first block
    of [2, x]. q^2 >= S(q)! and q^2 >= P(q)! are counted by
    conjecture1_counts, from divisor and smooth-number counts, and the
    EXCEPTIONS_CAP smallest q^2 >= S(q)! exceptions come from the divisors
    of s! for the first few s (_smallest_conjecture1).
    kempner_plan checks x: an int >= 2, with x + 1 <= MAX_SCAN_ENTRIES.
    csv_path, if given, receives one row per q with its S/P values and flags,
    all from a block scan.
    """
    plan = kempner_plan(x)
    t, facts = _factorial_threshold(x)
    count_sp, sample_sp = _count_S_neq_P(plan), _smallest_S_neq_P(plan)
    count_c1, count_c1p = conjecture1_counts(x)
    if csv_path is not None:
        _write_csv(csv_path, plan, t, facts)
    return DensityReport(
        x=x,
        count_S_neq_P=count_sp,
        count_conjecture1_fail=count_c1,
        count_conjecture1_fail_P=count_c1p,
        ratio_S_neq_P=scaled_text(False, count_sp * 10**8 // x, 8),
        ratio_conjecture1_fail=scaled_text(False, count_c1 * 10**8 // x, 8),
        exceptions_S_neq_P=sample_sp,
        exceptions_conjecture1=_smallest_conjecture1(x, t, facts),
    )
