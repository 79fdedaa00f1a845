"""Irrationality-measure checks for e.

Four lower bounds on |e - p/q| are wired up:

* theorem1     : 1/(S(q)+1)!   -- holds for every q > 1
* weak_prime   : 1/(q+1)!      -- the weakening via S(q) <= q
* prime_factor : 1/(P(q)+1)!   -- holds only for almost all q
* known_eps    : 1/q^(2+eps)   -- the classical continued-fraction measure

plus the sharpness check (the theorem1 factorial cannot be lowered) and a
pointwise comparator of theorem1 vs the classical bound.

A verdict against a bound 1/k! is decided without building k!: the
enclosure scales the bound onto each bracket's denominator n! q, dividing by
k! through the factors between n and k. MeasureVerdict.bound builds 1/k!
only when it is first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .enclosure import (
    compare_distance_to_e,
    endpoint,
    floor_e_times,
    render_distance,
)
from .kempner import is_prime, kempner_S, largest_prime_factor
from .rationals import LESS, ResourceError, rising_product

MARGIN_DIGITS = 6

# The most bits a bound, or an integer built to compare bounds, may have.
# Each is checked against a small-int upper bound on its size before it is
# built: k! has fewer than k * k.bit_length() bits.
MAX_BOUND_BITS = 1 << 20

def _check_bits(bits: int, what: str) -> None:
    """Raise ResourceError if `bits`, an upper bound on the size of what is
    about to be built, is past MAX_BOUND_BITS."""
    if bits > MAX_BOUND_BITS:
        raise ResourceError(f"{what} exceeds MAX_BOUND_BITS = {MAX_BOUND_BITS} bits")


def _check_factorial_bits(k: int) -> None:
    _check_bits(k * k.bit_length(), "the bound 1/k!")


def _inverse_factorial(k: int) -> Fraction:
    """1/k!, within the bit budget."""
    _check_factorial_bits(k)
    return Fraction(1, math.factorial(k))


@dataclass(frozen=True)
class MeasureVerdict:
    p: int
    q: int
    bound_name: str
    holds: bool
    margin_digits: str  # truncated decimal of |e - p/q| - bound, signed
    # The bound itself, or the k of a bound 1/k!, which .bound builds.
    bound_given: Fraction | int = field(repr=False)

    @functools.cached_property
    def bound(self) -> Fraction:
        """The lower bound checked; a bound 1/k! is built on first read."""
        given = self.bound_given
        return given if isinstance(given, Fraction) else _inverse_factorial(given)


def _require_q(q: int, what: str) -> None:
    if q < 2:
        raise ValueError(f"{what} requires q >= 2")


def _theorem1_k(q: int) -> int:
    _require_q(q, "theorem1_bound")
    return kempner_S(q) + 1


def _weak_prime_k(q: int) -> int:
    _require_q(q, "weak_prime_bound")
    return q + 1


def _prime_factor_k(q: int) -> int:
    _require_q(q, "prime_factor_bound")
    return largest_prime_factor(q) + 1


def theorem1_bound(q: int) -> Fraction:
    """1/(S(q)+1)!, the lower bound of the new measure; requires q >= 2."""
    return _inverse_factorial(_theorem1_k(q))


def weak_prime_bound(q: int) -> Fraction:
    """1/(q+1)!, the weakening obtained from S(q) <= q."""
    return _inverse_factorial(_weak_prime_k(q))


def prime_factor_bound(q: int) -> Fraction:
    """1/(P(q)+1)!; valid for almost all q, not for every q."""
    return _inverse_factorial(_prime_factor_k(q))


def _verdict(p: int, q: int, bound_name: str, bound: Fraction | int) -> MeasureVerdict:
    """The verdict on |e - p/q| > bound, for a Fraction bound or, given an
    int k, the bound 1/k!, which is decided without building k!."""
    r = Fraction(p, q)
    if isinstance(bound, Fraction):
        margin = render_distance(r, MARGIN_DIGITS, bound=bound)
    else:
        _check_factorial_bits(bound)
        margin = render_distance(r, MARGIN_DIGITS, bound=Fraction(1), m=bound)
    return MeasureVerdict(
        p=p,
        q=q,
        bound_name=bound_name,
        holds=not margin.startswith("-"),
        margin_digits=margin,
        bound_given=bound,
    )


def check_theorem1(p: int, q: int) -> MeasureVerdict:
    """|e - p/q| > 1/(S(q)+1)!; must hold for every q >= 2."""
    return _verdict(p, q, "theorem1", _theorem1_k(q))


def check_prime_factor_bound(p: int, q: int) -> MeasureVerdict:
    """|e - p/q| > 1/(P(q)+1)!; may fail (only an almost-all statement)."""
    return _verdict(p, q, "prime_factor", _prime_factor_k(q))


def check_weak_prime(p: int, q: int) -> MeasureVerdict:
    return _verdict(p, q, "weak_prime", _weak_prime_k(q))


def check_known(p: int, q: int, eps: Fraction = Fraction(0)) -> MeasureVerdict:
    """|e - p/q| > 1/q^(2+eps), against the classical measure's bound."""
    return _verdict(p, q, "known_eps", known_measure_bound(q, eps))


def check_sharpness(n: int) -> bool:
    """The theorem1 factorial is sharp at q = n!: both endpoints p of the
    depth-n interval satisfy |e - p/n!| < 1/S(n!)! = 1/n!."""
    if n < 3:
        raise ValueError("check_sharpness requires n >= 3")
    num, fact = endpoint(n)
    bound = Fraction(1, fact)
    return all(
        compare_distance_to_e(Fraction(p, fact), bound) == LESS for p in (num, num + 1)
    )


def nearest_p_candidates(q: int) -> list[int]:
    """Numerators p for which p/q is closest to e: floor(e*q) +/- 1.

    Any p violating a bound below 1/(2q) must give the nearest fraction, so
    these three candidates suffice for 'for all p' sweeps.
    """
    f = floor_e_times(q)
    return [f - 1, f, f + 1]


def corollary2_scan(n: int) -> dict:
    """Fix q = n!; test the prime-factor bound over the candidate p set.

    All candidates pass iff n is prime; for composite n the interval
    endpoint at depth n is a witness of failure.
    """
    if n < 2:
        raise ValueError("corollary2_scan requires n >= 2")
    num, q = endpoint(n)
    # P(n!) is the largest prime <= n: found without factoring n!.
    largest = next(m for m in range(n, 1, -1) if is_prime(m))
    witness = None
    # floor(e n!) = N_n, since 0 < e n! - N_n < 1/n: the nearest p are N_n +/- 1.
    for p in (num - 1, num, num + 1):
        if not _verdict(p, q, "prime_factor", largest + 1).holds:
            witness = (p, q)
            break
    return {
        "n": n,
        "prime": largest == n,
        "all_hold": witness is None,
        "witness": witness,
    }


def _nth_root_ceil(value: int, d: int) -> int:
    """Smallest integer r with r**d >= value, for value >= 0, d >= 1."""
    if value < 0:
        raise ValueError("value must be >= 0")
    if value in (0, 1) or d == 1:
        return value
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
    if q < 2:
        raise ValueError("known_measure_bound requires q >= 2")
    if eps < 0:
        raise ValueError("eps must be >= 0")
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
    if q < 2:
        raise ValueError("compare_bounds requires q >= 2")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    c, d = eps.numerator, eps.denominator
    _check_bits((2 * d + c) * q.bit_length(), "q^(2+eps) raised to eps's denominator")
    s = kempner_S(q)
    rhs = q ** (2 * d + c)
    # lhs is (S+1)!, or a partial product 2*3*...*k above rhs, which
    # compares with rhs as (S+1)! does. (S+1)! > rhs already decides
    # (S+1)!^d > rhs, since d >= 1. Otherwise lhs^d >= 2^(d (L - 1)) with
    # L = lhs.bit_length() decides it when d (L - 1) >= rhs.bit_length();
    # when it does not, lhs^d has fewer than rhs.bit_length() + d bits.
    _, lhs = rising_product(2, s + 1, rhs)
    if lhs <= rhs:
        lhs = rhs + 1 if d * (lhs.bit_length() - 1) >= rhs.bit_length() else lhs**d
    if lhs < rhs:
        stronger = "theorem1"
    elif lhs > rhs:
        stronger = "known"
    else:
        stronger = "equal_class"
    return {
        "q": q,
        "eps": eps,
        "stronger": stronger,
        "conjecture1_holds_at_q": q * q < rising_product(2, s, q * q)[1],
    }


def factorial_square_boundary(n: int) -> bool:
    """(n+1)! < (n!)^2 -- true for n >= 3, false at n = 2."""
    fact = math.factorial(n)
    return (n + 1) * fact < fact * fact
