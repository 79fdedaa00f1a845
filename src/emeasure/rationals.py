"""Exact rational arithmetic helpers.

Everything downstream works with ``fractions.Fraction``, which already
guarantees the two invariants we need: denominators are positive and values
are stored in lowest terms. This module adds the comparison verdicts,
the decimal rendering and the resource error the rest of the toolkit uses.
"""

from __future__ import annotations

from fractions import Fraction

LESS = "less"
GREATER = "greater"


class ResourceError(RuntimeError):
    """A request exceeds one of the package's size or work budgets."""


def truncate_decimal(x: Fraction, digits: int) -> str:
    """Decimal string of x truncated (not rounded) to `digits` places.

    Truncation is toward zero, matching the "0.00994 ..." display style.
    """
    return truncate_ratio(x.numerator, x.denominator, digits)


def truncate_ratio(num: int, den: int, digits: int) -> str:
    """truncate_decimal of num/den for integers num and den > 0, which need
    not be in lowest terms."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    sign = "-" if num < 0 else ""
    scaled = (abs(num) * 10**digits) // den
    int_part, frac_part = divmod(scaled, 10**digits)
    return f"{sign}{int_part}.{frac_part:0{digits}d}"
