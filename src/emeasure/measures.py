"""Irrationality-measure checks for e.

Four lower bounds on |e - p/q| are wired up:

* theorem1     : 1/(S(q)+1)!   -- holds for every q > 1
* weak_prime   : 1/(q+1)!      -- the weakening via S(q) <= q
* prime_factor : 1/(P(q)+1)!   -- holds only for almost all q
* known_eps    : 1/q^(2+eps)   -- the classical continued-fraction measure

plus the sharpness check (the theorem1 factorial cannot be lowered) and a
pointwise comparator of theorem1 vs the classical bound.

A verdict carries its bound as the ints (u, v, m) of u / (v m!) that the
enclosure reads, and is decided on the sign of the margin bracket
|e - p/q| - bound alone, rendering nothing. A bound 1/k! is decided without
building k!: the enclosure scales the bound onto each bracket's denominator
n! q, dividing by k! through the factors between n and k, so it answers for
any k. MeasureVerdict.margin_digits renders the margin, and
MeasureVerdict.bound builds 1/k!, only when first read.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .enclosure import _exceeds, _render, endpoint
from .kempner import _factors, _kempner_S, is_prime, largest_prime_factor
from .rationals import (
    Record,
    ResourceError,
    require_int,
    require_rational,
    rising_product,
)

MARGIN_DIGITS = 6

# The most bits a bound, or an integer built to compare bounds, may have.
# Each is checked against a small-int upper bound on its size before it is
# built: k! has fewer than k * k.bit_length() bits. A verdict against 1/k!
# builds no k!, so it answers past this budget.
MAX_BOUND_BITS = 1 << 20

def _check_bits(bits: int, what: str) -> None:
    """Raise ResourceError if `bits`, an upper bound on the size of what is
    about to be built, is past MAX_BOUND_BITS."""
    if bits > MAX_BOUND_BITS:
        raise ResourceError(f"{what} exceeds MAX_BOUND_BITS = {MAX_BOUND_BITS} bits")


def _inverse_factorial(k: int) -> Fraction:
    """1/k!, within the bit budget."""
    _check_bits(k * k.bit_length(), "the bound 1/k!")
    return Fraction(1, math.factorial(k))


class MeasureVerdict(Record):
    def __init__(self, p: int, q: int, bound_name: str, holds: bool, bound_terms):
        # bound_terms is (u, v, m) with bound = u / (v m!): (1, 1, k) for 1/k!,
        # (num, den, 0) for a rational bound; the terms the enclosure weighs a
        # bound by.
        vars(self).update(
            p=p, q=q, bound_name=bound_name, holds=holds, bound_terms=bound_terms
        )

    @functools.cached_property
    def margin_digits(self) -> str:
        """Truncated decimal of |e - p/q| - bound, signed, to MARGIN_DIGITS
        places; rendered on first read."""
        return _render(self.p, self.q, *self.bound_terms, MARGIN_DIGITS)

    @functools.cached_property
    def bound(self) -> Fraction:
        """The lower bound checked; a bound 1/k! is built on first read."""
        u, v, m = self.bound_terms
        return _inverse_factorial(m) if m else Fraction(u, v)


def theorem1_bound(q: int) -> Fraction:
    """1/(S(q)+1)!, the lower bound of the new measure; requires q >= 2."""
    require_int(q, "q", "theorem1_bound", 2)
    return _inverse_factorial(_kempner_S(_factors(q)) + 1)


def _verdict(
    p: int, q: int, bound_name: str, terms: tuple[int, int, int]
) -> MeasureVerdict:
    """The verdict on |e - p/q| > u / (v m!) for terms (u, v, m), decided
    without building m!. p/q need not be in lowest terms; the caller has
    checked both."""
    return MeasureVerdict(p, q, bound_name, _exceeds(p, q, *terms), terms)


def check_theorem1(p: int, q: int) -> MeasureVerdict:
    """|e - p/q| > 1/(S(q)+1)!; must hold for every q >= 2."""
    require_int(p, "p", "check_theorem1")
    require_int(q, "q", "check_theorem1", 2)
    return _verdict(p, q, "theorem1", (1, 1, _kempner_S(_factors(q)) + 1))


def check_prime_factor_bound(p: int, q: int) -> MeasureVerdict:
    """|e - p/q| > 1/(P(q)+1)!; may fail (only an almost-all statement)."""
    require_int(p, "p", "check_prime_factor_bound")
    require_int(q, "q", "check_prime_factor_bound", 2)
    return _verdict(p, q, "prime_factor", (1, 1, largest_prime_factor(q) + 1))


def check_weak_prime(p: int, q: int) -> MeasureVerdict:
    require_int(p, "p", "check_weak_prime")
    require_int(q, "q", "check_weak_prime", 2)
    return _verdict(p, q, "weak_prime", (1, 1, q + 1))


def check_known(p: int, q: int, eps: Fraction = Fraction(0)) -> MeasureVerdict:
    """|e - p/q| > 1/q^(2+eps), against the classical measure's bound."""
    require_int(p, "p", "check_known")
    b = known_measure_bound(q, eps)
    return _verdict(p, q, "known_eps", (b.numerator, b.denominator, 0))


def check_sharpness(n: int) -> bool:
    """The theorem1 factorial is sharp at q = n!: both endpoints p of the
    depth-n interval satisfy |e - p/n!| < 1/S(n!)! = 1/n!."""
    require_int(n, "n", "check_sharpness", 3)
    num, fact = endpoint(n)
    return not any(_exceeds(p, fact, 1, fact, 0) for p in (num, num + 1))


def corollary2_scan(n: int) -> dict:
    """Fix q = n!; test the prime-factor bound over the candidate p set.

    All candidates pass iff n is prime; for composite n the interval
    endpoint at depth n is a witness of failure.
    """
    require_int(n, "n", "corollary2_scan", 2)
    num, q = endpoint(n)
    # P(n!) is the largest prime <= n: found without factoring n!.
    largest = next(m for m in range(n, 1, -1) if is_prime(m))
    witness = None
    # floor(e n!) = N_n, since 0 < e n! - N_n < 1/n: the nearest p are N_n +/- 1.
    for p in (num - 1, num, num + 1):
        if not _exceeds(p, q, 1, 1, largest + 1):
            witness = (p, q)
            break
    return {
        "n": n,
        "prime": largest == n,
        "all_hold": witness is None,
        "witness": witness,
    }


def _nth_root_ceil(value: int, d: int) -> int:
    """Smallest integer r with r**d >= value, for value >= 2, d >= 2."""
    if d == 2:
        root = math.isqrt(value)
    else:
        # Integer Newton iteration for the floor d-th root. From a power of
        # two above the root each step shrinks it only by about (d - 1)/d,
        # so start from a float estimate of its top 50 bits instead. Any
        # first step lands on or above the floor root (AM-GM); from there
        # the steps decrease to it, quadratically.
        shift = max(value.bit_length() // d - 50, 0)
        root = (int(2 ** (math.log2(value >> (shift * d)) / d)) + 1) << shift
        step = ((d - 1) * root + value // root ** (d - 1)) // d
        while True:
            root = step
            step = ((d - 1) * root + value // root ** (d - 1)) // d
            if step >= root:
                break
    return root if root**d >= value else root + 1


def known_measure_bound(q: int, eps: Fraction = Fraction(0)) -> Fraction:
    """Rational lower bound for 1/q^(2+eps); exact when eps is an integer.

    For eps = c/d the irrational factor q^(c/d) is bracketed from above by
    ceil(root) at 30 decimal digits of precision, keeping the result a true
    lower bound.
    """
    require_int(q, "q", "known_measure_bound", 2)
    require_rational(eps, "eps", "known_measure_bound", 0)
    c, d = eps.numerator, eps.denominator
    # q^(2+c) when d = 1, else q^c * 10^(30 d) and its d-th root.
    _check_bits((2 + c) * q.bit_length() + 100 * d, "the bound 1/q^(2+eps)")
    if d == 1:
        return Fraction(1, q ** (2 + c))
    scale = 10**30
    upper = _nth_root_ceil(q**c * scale**d, d)  # >= q^(c/d) * 10^30
    return Fraction(scale, q**2 * upper)


def compare_bounds(q: int, eps: Fraction = Fraction(0)) -> dict:
    """Pointwise strength of theorem1 vs the classical measure at q.

    theorem1 is stronger exactly when (S(q)+1)! < q^(2+eps); the comparison
    is done in integers (both sides raised to the eps denominator), so it is
    exact even for fractional eps. Neither factorial is built past the
    other side of its comparison, which is at most q^(2+2*eps).
    """
    require_int(q, "q", "compare_bounds", 2)
    require_rational(eps, "eps", "compare_bounds", 0)
    c, d = eps.numerator, eps.denominator
    _check_bits((2 * d + c) * q.bit_length(), "q^(2+eps) raised to eps's denominator")
    s = _kempner_S(_factors(q))
    rhs = q ** (2 * d + c)
    # lhs is (S+1)!, or a partial product 2*3*...*k above rhs, which
    # compares with rhs as (S+1)! does. (S+1)! > rhs already decides
    # (S+1)!^d > rhs, since d >= 1. Otherwise lhs^d >= 2^(d (L - 1)) with
    # L = lhs.bit_length() decides it when d (L - 1) >= rhs.bit_length();
    # when it does not, lhs^d has fewer than rhs.bit_length() + d bits.
    _, lhs = rising_product(2, s + 1, rhs)
    if lhs <= rhs:
        lhs = rhs + 1 if d * (lhs.bit_length() - 1) >= rhs.bit_length() else lhs**d
    # No tie: lhs == rhs would make (S+1)! a perfect (2d + c)-th power, as
    # gcd(d, 2d + c) = 1, but by Bertrand's postulate a prime in ((S+1)/2,
    # S+1] divides (S+1)! once. Partial products and rhs + 1 exceed rhs.
    return {
        "q": q,
        "eps": eps,
        "stronger": "theorem1" if lhs < rhs else "known",
        "conjecture1_holds_at_q": q * q < rising_product(2, s, q * q)[1],
    }


def factorial_square_boundary(n: int) -> bool:
    """(n+1)! < (n!)^2 -- true for n >= 3, false at n = 2."""
    require_int(n, "n", "factorial_square_boundary", 0)
    fact = math.factorial(n)
    return (n + 1) * fact < fact * fact
