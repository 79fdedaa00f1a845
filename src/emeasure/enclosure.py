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
from dataclasses import dataclass
from fractions import Fraction

from .rationals import GREATER, LESS, truncate_decimal

DEFAULT_DEPTH_CAP = 500


class DepthCapExceeded(RuntimeError):
    """Raised when a comparison is still undecided at the configured depth."""


@dataclass(frozen=True)
class Interval:
    left: Fraction
    right: Fraction
    n: int

    @property
    def width(self) -> Fraction:
        return self.right - self.left

    def contains(self, x: Fraction) -> bool:
        return self.left <= x <= self.right

    def strictly_contains(self, x: Fraction) -> bool:
        return self.left < x < self.right


# Memoized partial sums of 1/k!; _SUMS[n] = sum_{k=0}^{n} 1/k!.
_SUMS: list[Fraction] = [Fraction(1)]


def partial_sum(n: int) -> Fraction:
    """s_n = sum_{k=0}^{n} 1/k!, the left endpoint of I_n for n >= 1."""
    if n < 0:
        raise ValueError("partial_sum requires n >= 0")
    while len(_SUMS) <= n:
        k = len(_SUMS)
        _SUMS.append(_SUMS[-1] + Fraction(1, math.factorial(k)))
    return _SUMS[n]


def interval(n: int) -> Interval:
    """The n-th interval of the construction: [s_n, s_n + 1/n!]."""
    if n < 1:
        raise ValueError("interval requires n >= 1")
    left = partial_sum(n)
    return Interval(left=left, right=left + Fraction(1, math.factorial(n)), n=n)


def subdivide_second(prev: Interval) -> Interval:
    """Inductive step: second of (prev.n + 1) equal parts of prev.

    Equivalent to interval(prev.n + 1); used to test that the closed form
    matches the literal construction.
    """
    n = prev.n + 1
    step = prev.width / n
    return Interval(left=prev.left + step, right=prev.left + 2 * step, n=n)


def distance_bracket(r: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Exact bracket [lo, hi] containing |e - r|, from the depth-n interval."""
    box = interval(n)
    if r <= box.left:
        return box.left - r, box.right - r
    if r >= box.right:
        return r - box.right, r - box.left
    return Fraction(0), max(r - box.left, box.right - r)


def _name(x: Fraction | int) -> str:
    """str(x), or x's size when str() would pass the int-to-str digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.numerator.bit_length()}/{x.denominator.bit_length()}-bit rational>"


def refine(decide, what, depth_cap: int | None = DEFAULT_DEPTH_CAP):
    """First answer other than None of decide(n), for n = 4, 8, 16, ...
    clipped to depth_cap (None: no cap).

    Raises DepthCapExceeded if the cap is reached undecided. `what()` names
    the question in that message and is called only then.
    """
    n = 4
    while True:
        answer = decide(n)
        if answer is not None:
            return answer
        if depth_cap is not None and n >= depth_cap:
            raise DepthCapExceeded(f"{what()} undecided at depth {depth_cap}")
        n *= 2
        if depth_cap is not None:
            n = min(n, depth_cap)


def compare_distance_to_e(
    r: Fraction, bound: Fraction, depth_cap: int | None = DEFAULT_DEPTH_CAP
) -> str:
    """Exact truth of |e - r| vs bound: 'greater' or 'less'.

    Never 'equal': r and bound are rational, so |e - r| = bound would make e
    rational. bound = 0 is answered 'greater' immediately for the same
    reason. depth_cap=None removes the safety cap (termination is still
    guaranteed mathematically).
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if bound == 0:
        return GREATER

    def decide(n: int) -> str | None:
        lo, hi = distance_bracket(r, n)
        if lo > bound:
            return GREATER
        if hi < bound:
            return LESS
        return None

    return refine(
        decide,
        lambda: f"comparison of |e - {_name(r)}| against {_name(bound)}",
        depth_cap,
    )


def render_distance(
    r: Fraction,
    digits: int,
    depth_cap: int | None = DEFAULT_DEPTH_CAP,
    bound: Fraction = Fraction(0),
) -> str:
    """Truncated decimal of |e - r| - bound, with sign, correct to `digits`
    places.

    The value is irrational, so refining eventually fixes its sign and both
    bracket endpoints truncate identically.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")

    def decide(n: int) -> str | None:
        lo, hi = distance_bracket(r, n)
        if bound:
            lo, hi = lo - bound, hi - bound
        # Sign still open? (Numerator signs: cheaper than comparing to 0.)
        if lo.numerator <= 0 <= hi.numerator:
            return None
        lo_text = truncate_decimal(lo, digits)
        return lo_text if lo_text == truncate_decimal(hi, digits) else None

    return refine(
        decide,
        lambda: f"decimal rendering of |e - {_name(r)}| - {_name(bound)}",
        depth_cap,
    )


def floor_e_times(q: int, depth_cap: int | None = DEFAULT_DEPTH_CAP) -> int:
    """floor(e * q) for a positive integer q, decided exactly.

    e*q is irrational for q >= 1, so the two endpoint floors agree once the
    enclosure is tight enough.
    """
    if q < 1:
        raise ValueError("q must be >= 1")

    def decide(n: int) -> int | None:
        box = interval(n)
        lo = (box.left * q).__floor__()
        return lo if lo == (box.right * q).__floor__() else None

    return refine(decide, lambda: f"floor(e * {_name(q)})", depth_cap)
