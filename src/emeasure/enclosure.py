"""Nested rational intervals enclosing e, and exact decision procedures
built on them.

The construction: I1 = [2, 3]; I_n is the second of n equal subdivisions of
I_{n-1}. The left endpoints are the partial sums of sum(1/k!) and the width
of I_n is exactly 1/n!, so the intervals shrink to the single point e. Every
comparison against e in this package is answered by refining these intervals
until the enclosure decides it; e itself is never materialized.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

from .rationals import (
    GREATER,
    LESS,
    Record,
    ResourceError,
    require_int,
    require_rational,
    rising_product,
    scaled_text,
    split_sum,
)

# The deepest interval of every enclosure. Its endpoint pair is about 30 KB
# of integers, built by one binary splitting in about 0.02 s.
MAX_DEPTH = 10_000

# Every caller of refine asks it to start where the bracket is 2^-8 of the
# caller's own unit: 1/n! below 2^-8 of the bound (or of 1/b^2) for _exceeds,
# of 10^-digits for render_distance and of 1/(q + 1) for floor_e_times.
# Where the bracket is only as wide as the unit, the answer often lies within
# it and the depth doubles, one more endpoint to build. With no slack, 124 of
# the first 1500 convergent validations doubled (to about 1800), and so did
# 38% of the renderings and 47% of the floors the perfbench decide job asks
# for; with 8 bits, no validation and under 1% of the others.
_START_SLACK_BITS = 8


# 0!, 1!, ..., 20!: refine finds a start depth up to 20 by bisection.
_FACTORIALS = tuple(math.factorial(n) for n in range(21))


class DepthCapExceeded(ResourceError):
    """Raised when an answer needs a depth past MAX_DEPTH."""


class Interval(Record):
    def __init__(self, left: Fraction, right: Fraction, n: int):
        vars(self).update(left=left, right=right, n=n)


def check_depth(n: int) -> None:
    """Raise DepthCapExceeded if n is past MAX_DEPTH."""
    if n > MAX_DEPTH:
        raise DepthCapExceeded(f"depth {n} exceeds MAX_DEPTH = {MAX_DEPTH}")


def endpoint(n: int) -> tuple[int, int]:
    """(N_n, n!), unreduced: s_n = N_n / n! is the left endpoint of I_n, and
    N_0 = 1, N_n = n N_(n-1) + 1. Every decision below multiplies integers.
    The deciders read _endpoint itself, as refine's depths are 1 to MAX_DEPTH."""
    require_int(n, "n", "endpoint", 0)
    check_depth(n)
    return _endpoint(n)


# Bounded: 128 pairs hold at most about 4 MB at MAX_DEPTH. It holds what one
# run reuses: a perfbench decide job asks for 60 distinct depths 39 000 times,
# verify-paper for 35 depths 12 000 times.
@lru_cache(maxsize=128)
def _endpoint(n: int) -> tuple[int, int]:
    # s_n = 1 + sum_{k=1}^{n} 1/(1 * 2 * ... * k).
    num, fact = split_sum([(1, k) for k in range(1, n + 1)])
    return fact + num, fact


def partial_sum(n: int) -> Fraction:
    """s_n = sum_{k=0}^{n} 1/k!, the left endpoint of I_n for n >= 1."""
    return Fraction(*endpoint(n))


def interval(n: int) -> Interval:
    """The n-th interval of the construction: [s_n, s_n + 1/n!]."""
    require_int(n, "n", "interval", 1)
    num, fact = endpoint(n)
    return Interval(left=Fraction(num, fact), right=Fraction(num + 1, fact), n=n)


def refine(decide, floor: int):
    """First answer other than None of decide(n), for n = n0, 2 n0, 4 n0, ...
    clipped to MAX_DEPTH, where n0 is the smallest n >= 1 with n! >= floor:
    the first interval no wider than 1/floor. Callers pass 2^8 times their
    unit (see _START_SLACK_BITS).

    Raises DepthCapExceeded if MAX_DEPTH is reached undecided.
    """
    if floor <= _FACTORIALS[-1]:
        n = bisect_left(_FACTORIALS, floor, 1)
    else:
        # n!/20! > (floor - 1)/20! in integers, for the first n past 20.
        n, _ = rising_product(21, MAX_DEPTH, (floor - 1) // _FACTORIALS[-1])
    n = min(n, MAX_DEPTH)
    while (answer := decide(n)) is None:
        if n >= MAX_DEPTH:
            raise DepthCapExceeded(f"undecided at MAX_DEPTH = {MAX_DEPTH}")
        n = min(2 * n, MAX_DEPTH)
    return answer


def _margin(a: int, b: int, u: int, v: int, m: int, n: int) -> tuple[int, int, int]:
    """(lo, hi, n! b): at refine's depth n, |e - a/b| - u / (v m!) lies strictly
    between lo / (n! b) and hi / (n! b).

    e lies strictly inside I_n, so |e - a/b| lies strictly between the
    distances from a/b to the near and the far endpoint of I_n, or between 0
    and the far distance when a/b lies inside I_n. The bound is x = u b n! /
    (v m!) units of 1/(n! b): x = k when that is a whole number, else
    k < x < k + 1, so subtracting it takes k from the high end and k or
    k + 1 from the low end. m! is never built: n!/m! is math.perm(n, n - m)
    for m <= n, and for m > n the product (n + 1) ... m stops once it passes
    |u| b, since then |x| < 1 and k is 0 or -1 either way.

    The margin is irrational, as e is and a/b and the bound are not, so it is
    never an end of its bracket: it is positive once lo >= 0 and negative
    once hi <= 0.
    """
    num, fact = _endpoint(n)
    den = fact * b
    d = num * b - a * fact  # (s_n - a/b) n! b
    if d >= 0:
        lo, hi = d, d + b
    elif d + b <= 0:
        lo, hi = -d - b, -d
    else:
        lo, hi = 0, max(-d, d + b)
    ub = u * b
    if m <= n:
        k, rem = divmod(ub * math.perm(n, n - m), v)
    else:
        k, rem = divmod(ub, v * rising_product(n + 1, m, abs(ub))[1])
    return lo - k - (rem != 0), hi - k, den


def compare_distance_to_e(r: Fraction, bound: Fraction) -> str:
    """Exact truth of |e - r| vs bound: 'greater' or 'less'.

    Never 'equal': r and bound are rational, so |e - r| = bound would make e
    rational.
    """
    require_rational(r, "r", "compare_distance_to_e")
    require_rational(bound, "bound", "compare_distance_to_e", 0)
    b, v = r.denominator, bound.denominator
    return GREATER if _exceeds(r.numerator, b, bound.numerator, v, 0) else LESS


def _exceeds(a: int, b: int, u: int, v: int, m: int) -> bool:
    """Whether |e - a/b| > u / (v m!), for the ints _margin takes, decided
    by refine on the sign of the margin bracket alone: the margin is
    irrational, so it is positive once lo >= 0 and negative once hi <= 0.
    Nothing is rendered; m! is never built.

    Refinement starts where n! has _START_SLACK_BITS more bits than the
    smaller of v m! and b^2, where m! is counted as m bit_length(m) bits,
    no fewer than it has. Shallower, the bracket is wider than the bound
    and cannot answer False. Deeper than b^2 is not needed for a tiny
    bound: |e - a/b| is not much below 1/b^2 (e has irrationality measure
    2), so once 1/n! < 1/b^2 such a bound is answered True.
    """
    bits = min(v.bit_length() + m * m.bit_length(), 2 * b.bit_length())

    def decide(n: int) -> bool | None:
        lo, hi, _ = _margin(a, b, u, v, m, n)
        return True if lo >= 0 else False if hi <= 0 else None

    return refine(decide, 1 << (bits + _START_SLACK_BITS - 1))


def legendre_past_cap(q_bits: int) -> bool:
    """Whether the Legendre proof |e - p/q| < 1/(2 q^2) of a q of q_bits
    bits starts refining past MAX_DEPTH. _exceeds counts 2 q_bits bits for
    its bound, so refine's floor is 2^(2 q_bits + _START_SLACK_BITS - 1),
    and the start is past MAX_DEPTH if MAX_DEPTH! is below that. A bound on
    q_bits from above answers for every q up to it.

    (MAX_DEPTH // 3)^MAX_DEPTH <= MAX_DEPTH!, so a floor below the former
    is answered without building MAX_DEPTH! (about 2 ms at 10^4).
    """
    bits = 2 * q_bits + _START_SLACK_BITS - 1
    n = MAX_DEPTH
    if bits <= n * ((n // 3).bit_length() - 1):
        return False
    return math.factorial(n).bit_length() <= bits


def render_distance(r: Fraction, digits: int) -> str:
    """Truncated decimal of |e - r|, correct to `digits` places."""
    require_rational(r, "r", "render_distance")
    require_int(digits, "digits", "render_distance", 1)
    # With MAX_DEPTH <= 10^k, every n <= MAX_DEPTH has n! < n^n <=
    # 10^(k MAX_DEPTH): past that, refuse before building 10^digits.
    if digits >= MAX_DEPTH * len(str(MAX_DEPTH - 1)):
        raise DepthCapExceeded(
            f"{digits} digits need a depth past MAX_DEPTH = {MAX_DEPTH}"
        )
    return _render(r.numerator, r.denominator, 0, 1, 0, digits)


def _render(a: int, b: int, u: int, v: int, m: int, digits: int) -> str:
    """Truncated decimal of |e - a/b| - u / (v m!), with sign, correct to
    `digits` places, for ints with b, v > 0, m >= 0 and digits >= 1; a/b
    need not be in lowest terms, and m! is never built.

    The value is irrational, so refining eventually fixes its sign and both
    bracket endpoints truncate identically. Refinement starts at the smallest
    n with n! >= 2^8 10^digits. Below 10^digits, I_n is wider than a unit in
    the last place and the bracket of an r outside it cannot decide; near
    10^digits it often still holds a truncation boundary (see
    _START_SLACK_BITS).
    """
    unit = 10**digits

    def decide(n: int) -> str | None:
        lo, hi, den = _margin(a, b, u, v, m, n)
        low = (lo < 0, abs(lo) * unit // den)
        if low != (hi < 0, abs(hi) * unit // den):
            return None
        return scaled_text(*low, digits)

    return refine(decide, unit << _START_SLACK_BITS)


def floor_e_times(q: int) -> int:
    """floor(e * q) for a positive integer q, decided exactly.

    e*q is irrational for q >= 1, so the two endpoint floors agree once the
    enclosure is tight enough. Their bracket is q/n! wide, and at n! = q it
    is [N_n, N_n + 1], whose floors differ, so refinement starts at the
    smallest n with n! >= 2^8 (q + 1), where the bracket is below 2^-8 and
    holds an integer for few q.
    """
    require_int(q, "q", "floor_e_times", 1)

    def decide(n: int) -> int | None:
        num, fact = _endpoint(n)
        lo = num * q // fact
        return lo if lo == (num * q + q) // fact else None

    return refine(decide, (q + 1) << _START_SLACK_BITS)
