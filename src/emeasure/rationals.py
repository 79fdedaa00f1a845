"""Exact arithmetic helpers shared by the toolkit.

The enclosure, the verdicts and the scans decide on ints; a
``fractions.Fraction`` appears only where a rational is taken in or handed
back. This module holds what the layers share: the argument rule every
exported function applies before any work (require_int, require_rational),
the comparison verdicts, ResourceError, Record (the base of every result
record), the walk over consecutive factors that every factorial threshold
uses, the series kernel, decimal rendering of Fractions and of scaled ints,
and the exact decimal context.
"""

from __future__ import annotations

import decimal
import sys
from fractions import Fraction

LESS = "less"
GREATER = "greater"


class ResourceError(RuntimeError):
    """A request exceeds one of the package's size or work budgets."""


class Record:
    """An immutable result record. A subclass's __init__ takes the fields as
    its parameters and stores them, in order, by vars(self).update(...);
    those parameter names are its _fields. Records of one type compare and
    hash by their field values, and the repr shows the fields. A
    functools.cached_property also caches into vars(self), outside _fields."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = zip(self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"


def require_int(value, name: str, what: str, least: int | None = None) -> None:
    """Raise TypeError unless `value`, the argument `name` of `what`, is an
    int (a bool is one), and ValueError if it is below `least`."""
    if not isinstance(value, int):
        raise TypeError(f"{what} requires an int {name}, not {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{what} requires {name} >= {least}")


def require_rational(value, name: str, what: str, least: int | None = None) -> None:
    """As require_int, for an int or a Fraction: the types whose numerator
    and denominator are read."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} requires a rational {name}, not {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{what} requires {name} >= {least}")


def rising_product(lo: int, hi: int, cap: int) -> tuple[int, int]:
    """(k, lo (lo + 1) ... k) for the first k in lo - 1, lo, ..., hi whose
    product passes cap, or k = hi if none does; k = lo - 1 is the empty
    product 1, returned at once when cap < 1 or lo > hi.

    With lo = 2 the product is k!: the first k with k! > cap, never
    multiplying past it, however far off hi is.
    """
    k, product = lo - 1, 1
    while product <= cap and k < hi:
        k += 1
        product *= k
    return k, product


def split_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """(num, prod) for terms (a_1, b_1), ..., (a_n, b_n): num/prod is
    sum_i a_i/(b_1...b_i), unreduced, and prod = b_1...b_n; (0, 1) for none.
    Binary splitting (Haible & Papanikolaou, "Fast multiprecision evaluation
    of series of rational numbers", 1998) keeps the products balanced."""
    return _split(terms, 0, len(terms)) if terms else (0, 1)


# Not a closure in split_sum: a recursive closure is a reference cycle, and it
# would keep `terms` alive until the next garbage collection.
def _split(terms: list[tuple[int, int]], lo: int, hi: int) -> tuple[int, int]:
    if hi - lo == 1:
        return terms[lo]
    mid = (lo + hi) // 2
    num_l, prod_l = _split(terms, lo, mid)
    num_r, prod_r = _split(terms, mid, hi)
    return num_l * prod_r + num_r, prod_l * prod_r


def truncate_decimal(x: Fraction, digits: int) -> str:
    """Decimal string of x truncated (not rounded) to `digits` places.

    Truncation is toward zero, matching the "0.00994 ..." display style.
    """
    require_rational(x, "x", "truncate_decimal")
    require_int(digits, "digits", "truncate_decimal", 1)
    num = x.numerator
    return scaled_text(num < 0, abs(num) * 10**digits // x.denominator, digits)


def scaled_text(negative: bool, scaled: int, digits: int) -> str:
    """The decimal text, with `digits` places, of scaled / 10^digits for an
    int scaled >= 0, signed "-" when `negative`: the text of a truncation,
    from its sign and its digits scaled to an int."""
    int_part, frac_part = divmod(scaled, 10**digits)
    sign = "-" if negative else ""
    return f"{sign}{int_str(int_part)}.{int_str(frac_part).zfill(digits)}"


# str() of an int is refused past the interpreter's int-to-str digit limit
# (sys.get_int_max_str_digits(), 4300 by default, at least 640 unless 0), and
# before Python 3.12 it takes time quadratic in the int's length: 1.5 s for the
# 287 127 digits of 65522!. int_str keeps str() only for ints of at most
# _INT_STR_BITS bits whose digits fit the limit: a b-bit int has at most
# 0.302 b + 1 digits, so 10 b <= 33 * limit keeps it within any limit of at
# least 152. Every other int is converted through decimal, which has no digit
# limit and multiplies in subquadratic time (0.12 s for 65522!).
_INT_STR_BITS = 33_000  # about 10^4 digits
_DECIMAL_LEAF_BITS = 4096


def int_str(n: int) -> str:
    """str(n) for an int n, whatever the int-to-str digit limit, in
    subquadratic time past about 10^4 digits."""
    bits = abs(n).bit_length()
    if bits <= _INT_STR_BITS:
        limit = sys.get_int_max_str_digits()
        if not limit or 10 * bits <= 33 * limit:
            return str(n)
    if n < 0:
        return "-" + int_str(-n)
    with exact_decimal():
        return str(_to_decimal(n, bits, {}))


# Recursive module functions, not closures in int_str: a recursive closure is
# a reference cycle, and it would keep its cache of powers alive until the
# next garbage collection.
def _to_decimal(x: int, w: int, powers: dict) -> decimal.Decimal:
    """Decimal(x) for 0 <= x < 2**w, joined from the two halves of its bits;
    `powers` caches Decimal(2**h) by h."""
    if w <= _DECIMAL_LEAF_BITS:
        return decimal.Decimal(x)
    half = w >> 1
    high = x >> half
    low = x - (high << half)
    high_part = _to_decimal(high, w - half, powers) * _power_of_two(half, powers)
    return high_part + _to_decimal(low, half, powers)


def _power_of_two(w: int, powers: dict) -> decimal.Decimal:
    """Decimal(2**w), each w computed once per conversion."""
    if w not in powers:
        if w <= _DECIMAL_LEAF_BITS:
            powers[w] = decimal.Decimal(1 << w)
        else:
            powers[w] = _power_of_two(w >> 1, powers) * _power_of_two(w - (w >> 1), powers)
    return powers[w]


def exact_context() -> decimal.Context:
    """A new decimal.Context in which arithmetic on integral Decimals is
    exact or raises: the precision and exponent range are the largest decimal
    allows, and Inexact is trapped (an inexact `/` raises MemoryError, as its
    quotient would need endless digits). An add, a multiply by a small int or
    a `//` by one is linear in the digits there, and so is str()."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    ctx.traps[decimal.Inexact] = True
    return ctx


def exact_decimal():
    """A decimal.localcontext of an exact_context()."""
    return decimal.localcontext(exact_context())


_RESIDUE_MODULUS = (1 << 61) - 1  # a Mersenne prime


def check_decimal(value: decimal.Decimal, n: int, divisor: int = 1) -> None:
    """Compare an integral Decimal value, built to equal n * divisor (an int
    >= 1), with n * divisor mod 2^61 - 1, in time linear in the digits; a
    mismatch raises AssertionError, as a failed proof does. Call it under
    exact_decimal()."""
    m = _RESIDUE_MODULUS
    if value % m != n % m * divisor % m:
        raise AssertionError("a Decimal differs from its int mod 2^61 - 1")


def decimal_text(value: decimal.Decimal, n: int, divisor: int = 1) -> str:
    """str(n), read off an integral Decimal value built to equal n * divisor
    (an int >= 1) once check_decimal has passed it; n itself is never
    converted. Call it under exact_decimal()."""
    check_decimal(value, n, divisor)
    return str(value // divisor if divisor > 1 else value)
