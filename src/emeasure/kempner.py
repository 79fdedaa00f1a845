"""Kempner (Smarandache) function S(q) and largest prime factor P(q).

S(q) is the smallest positive k with q | k!. The fast path computes S from
the prime factorization of q via Legendre's formula; a literal brute-force
version is kept as an independent oracle.
"""

from __future__ import annotations

import math
import threading
from itertools import chain, compress

from .rationals import Record, ResourceError, require_int

# (prime, exponent) pairs, primes strictly increasing.
Factorization = list[tuple[int, int]]

# factorize tries divisors up to this; every q below its square factors.
TRIAL_DIVISION_LIMIT = 10**6

# The largest q that kempner_S_naive accepts. It reaches S(q) <= q in steps
# of _BLOCK factors, so checking every q up to x costs about x^2/(2*_BLOCK)
# block steps and at most 16 smaller ones per q: 0.05-0.07 s at 10^4 and
# 4.7-5.1 s at 10^5 on one shared Xeon core under CPython 3.11 (0.07-0.10 s
# and 5.3-6.0 s with single steps inside the block). Past the cap its block
# tables would grow with q, by nine products per 64.
MAX_ORACLE_Q = 10**5

# _BLOCKS[j] is the product of the _BLOCK factors j*_BLOCK+1 .. (j+1)*_BLOCK,
# and _SUBS[i] that of the _SUB factors i*_SUB+1 .. (i+1)*_SUB, shared by
# every call. kempner_S_naive grows both to cover its q, so they hold at most
# ceil(MAX_ORACLE_Q / _BLOCK) = 1563 and 12 504 entries (253 KiB and 0.6 MiB
# by tracemalloc). Growing is check-then-append, so it holds the lock: two
# threads must not both append block j. Block j's sub-products are appended
# before block j, so a reader that sees block j can read its sub-blocks.
_BLOCK = 64
_SUB = 8
_BLOCKS: list[int] = []
_SUBS: list[int] = []
_BLOCKS_LOCK = threading.Lock()


def _prime_flags(n: int) -> bytearray:
    """flags[k] = 1 if k is prime else 0, for 0 <= k <= n."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, from a bytearray sieve."""
    return list(compress(range(n + 1), _prime_flags(n)))


# The 168 primes below 1000. factorize divides by these, and goes on with
# the odd d from 1001 only when they leave a cofactor of at least 997^2.
_SMALL_PRIMES = tuple(_primes_upto(999))
_ODD_DIVISORS = range(1001, TRIAL_DIVISION_LIMIT + 1, 2)


class KempnerResult(Record):
    """q, S(q), P(q) (the largest prime factor) and q's factorization."""

    def __init__(self, q: int, s: int, p: int, factorization: Factorization):
        vars(self).update(q=q, s=s, p=p, factorization=factorization)


def factorize(q: int) -> Factorization:
    """Prime factorization of q >= 2: read off a table of smallest prime
    factors below 2^14, by deterministic trial division from there on.

    Raises ResourceError if the divisors up to TRIAL_DIVISION_LIMIT leave a
    cofactor that may still be composite: one with no divisor up to the
    limit and at least (TRIAL_DIVISION_LIMIT + 1)^2 = 1 000 002 000 001.
    """
    return list(_factors(q))


# _factors reads every int q with 2 <= q < _SPF_LIMIT off _SPF: the smallest
# prime factor of q if q is composite, 0 if q is prime. That factor is at most
# isqrt(q) < 128, so it fits a byte and the table is 16 KiB. _fill_spf builds
# it on the first such q, not at import: a run that factors no small q never
# holds it.
_SPF_LIMIT = 1 << 14
_SPF = bytearray()


def _fill_spf() -> bytearray:
    """_SPF, filled from the primes below 128 (about 0.05 ms). Each prime p,
    largest first, writes itself at p^2, p^2 + p, ...: the last prime to
    write at a composite q is the smallest that divides it. The table is
    built whole, then copied into _SPF in one step, so a thread that finds
    _SPF filled reads all of it."""
    spf = bytearray(_SPF_LIMIT)
    for p in reversed(_primes_upto(math.isqrt(_SPF_LIMIT - 1))):
        spf[p * p :: p] = bytes([p]) * len(range(p * p, _SPF_LIMIT, p))
    _SPF[:] = spf
    return _SPF


# The last q factored, with its factors. One query asks for S(q), P(q) and
# the verdicts at q, five factorizations of one q in a row; a sweep asks
# about each q once and pays one compare and one store. Only an int q is
# looked up, as 6.0 == 6, and only an answer is kept, never a refusal. The
# pair is replaced whole, so a thread reads a q with its own factors.
_LAST = (None, ())


def _factors(q: int) -> tuple[tuple[int, int], ...]:
    """factorize(q) as a tuple, which every caller shares: read off _SPF for an
    int q with 2 <= q < _SPF_LIMIT, from _trial_factors for any other q."""
    global _LAST
    if type(q) is not int:
        return _trial_factors(q)  # require_int refuses all but an int subclass
    last = _LAST
    if last[0] == q:
        return last[1]
    if not 2 <= q < _SPF_LIMIT:
        result = _trial_factors(q)
    else:
        spf = _SPF or _fill_spf()
        factors: Factorization = []
        rest = q
        # _divide_out's loop, inline: a call per prime costs a sixth of the path.
        while d := spf[rest]:
            rest //= d
            e = 1
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        if rest > 1:
            factors.append((rest, 1))
        result = tuple(factors)
    _LAST = q, result
    return result


def _trial_factors(q: int) -> tuple[tuple[int, int], ...]:
    """factorize(q) as a tuple, by trial division."""
    require_int(q, "q", "factorize", 2)
    factors: Factorization = []
    rest = q
    for d in chain(_SMALL_PRIMES, _ODD_DIVISORS):
        if d * d > rest:
            break
        if rest % d == 0:
            rest = _divide_out(rest, d, factors)
    else:
        # No d up to TRIAL_DIVISION_LIMIT divides rest, so it is prime if it
        # is below (TRIAL_DIVISION_LIMIT + 1)^2.
        if rest >= (TRIAL_DIVISION_LIMIT + 1) ** 2:
            raise ResourceError(
                f"trial division up to {TRIAL_DIVISION_LIMIT} leaves a"
                f" {rest.bit_length()}-bit cofactor"
            )
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def _divide_out(rest: int, d: int, factors: Factorization) -> int:
    """rest with every factor d taken out; appends (d, their count)."""
    e = 0
    while rest % d == 0:
        e += 1
        rest //= d
    factors.append((d, e))
    return rest


def is_prime(n: int) -> bool:
    """Whether n is prime, decided by factorize: raises ResourceError where
    factorize does (the first prime refused is 1 000 002 000 007)."""
    require_int(n, "n", "is_prime")
    return n >= 2 and _factors(n) == ((n, 1),)


def kempner_prime_power(p: int, a: int) -> int:
    """S(p^a) for a prime p: the smallest k with p^a | k!, i.e. the least k
    for which the exponent of p in k! is at least a. A composite p is
    refused; whether p is prime is decided by factorize, which raises
    ResourceError where it does."""
    require_int(p, "p", "kempner_prime_power", 2)
    require_int(a, "a", "kempner_prime_power", 1)
    if _factors(p) != ((p, 1),):
        raise ValueError("kempner_prime_power requires a prime p")
    return _kempner_prime_power(p, a)


def _kempner_prime_power(p: int, a: int) -> int:
    """kempner_prime_power(p, a), unchecked, for a prime p and an int a >= 1
    that the caller vouches for.

    The answer is a multiple of p and is at most a*p, so a linear walk over
    multiples of p, summing their p-adic valuations, is plenty fast here.
    """
    if a == 1:
        return p
    k = valuation = 0
    while valuation < a:
        k += p
        m = k
        while m % p == 0:
            valuation += 1
            m //= p
    return k


def kempner_S(q: int) -> int:
    """S(q): smallest positive k such that q divides k!. S(1) = 1."""
    require_int(q, "q", "kempner_S", 1)
    return 1 if q == 1 else _kempner_S(_factors(q))


def _kempner_S(factors) -> int:
    """S(q) from the factorization of q >= 2: the largest S(p^a)."""
    s = 0
    for p, a in factors:
        # S(p) = p without a call: most exponents are 1, and verify-paper
        # runs this loop for some 22 000 q, almost all of them uncached.
        k = p if a == 1 else _kempner_prime_power(p, a)
        if k > s:
            s = k
    return s


def kempner_S_naive(q: int) -> int:
    """Literal definition min {k > 0 : q | k!}, tracking k! mod q.

    Independent oracle for kempner_S, for 1 <= q <= MAX_ORACLE_Q: it uses no
    factorization, only products and remainders. k! mod q moves forward a
    block of _BLOCK factors at a time while the block leaves it nonzero. At
    the first block that would bring it to 0, q does not divide (j*_BLOCK)!
    but divides ((j+1)*_BLOCK)!, so S(q) lies in that block. The walk goes on
    the same way through its sub-blocks of _SUB factors, and then one factor
    at a time through the first sub-block that brings it to 0; the first k
    found there with q | k! is S(q).
    """
    require_int(q, "q", "kempner_S_naive", 1)
    if q > MAX_ORACLE_Q:
        raise ResourceError(
            f"kempner_S_naive({q}) exceeds MAX_ORACLE_Q = {MAX_ORACLE_Q}"
        )
    # S(q) <= q, so the blocks up to the one holding q reach the answer.
    needed = -(-q // _BLOCK)
    if len(_BLOCKS) < needed:
        with _BLOCKS_LOCK:
            for j in range(len(_BLOCKS), needed):
                subs = [
                    math.prod(range(i * _SUB + 1, (i + 1) * _SUB + 1))
                    for i in range(j * _BLOCK // _SUB, (j + 1) * _BLOCK // _SUB)
                ]
                _SUBS.extend(subs)
                _BLOCKS.append(math.prod(subs))
    # (j*_BLOCK)! mod q; 1 rather than 1 % q, so that q = 1 walks to k = 1.
    # Each product is reduced before it meets the residue, so no product of
    # the residue with a whole block is ever built.
    residue = 1
    for j, block in enumerate(_BLOCKS):
        after = block % q * residue % q
        if after == 0:
            break
        residue = after
    i = j * _BLOCK // _SUB
    while after := _SUBS[i] % q * residue % q:
        residue = after
        i += 1
    k = i * _SUB
    while residue:
        k += 1
        residue = residue * k % q
    return k


def oracle_mismatches(max_q: int) -> list[int]:
    """The q in [1, max_q] at which kempner_S and kempner_S_naive disagree:
    the one sweep of the fast path against its oracle. A max_q past
    MAX_ORACLE_Q is refused before any q is checked."""
    require_int(max_q, "max_q", "oracle_mismatches", 1)
    if max_q > MAX_ORACLE_Q:
        raise ResourceError(
            f"oracle_mismatches({max_q}) exceeds MAX_ORACLE_Q = {MAX_ORACLE_Q}"
        )
    return [q for q in range(1, max_q + 1) if kempner_S(q) != kempner_S_naive(q)]


def largest_prime_factor(q: int) -> int:
    """P(q): greatest prime dividing q, for q >= 2."""
    return _factors(q)[-1][0]


def kempner_result(q: int) -> KempnerResult:
    factors = _factors(q)
    return KempnerResult(q, _kempner_S(factors), factors[-1][0], list(factors))
