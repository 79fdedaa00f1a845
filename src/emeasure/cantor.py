"""Cantor series rationality classifier.

A Cantor series is a0 + sum_{n>=1} a_n / (b_1 ... b_n) with b_n >= 2 and
0 <= a_n <= b_n - 1. By Cantor's criterion, when each prime divides
infinitely many b_n, the sum is irrational iff a_n > 0 infinitely often AND
a_n < b_n - 1 infinitely often.

Built-in families all use b_n = n + 1 (so b_1...b_n = (n+1)!), for which the
prime hypothesis holds: p divides b_{p-1}, b_{2p-1}, ... The unit family and
a mask with a 1 meet both tail conditions, so they are irrational. The
complement family (a_n = b_n - 1) telescopes to a0 + 1, and an all-zero mask
sums to a0.

A custom spec repeats its tables in every tail mode, so it is periodic and
always rational (and only the primes dividing a table entry divide a b_n, so
the criterion never applies). With num/prod the sum of one table of T terms,
prod = b_1...b_T, the limit is exact:
- all-zero: a0 + num/prod, a finite sum;
- all-complement: a0 + (num + 1)/prod, as the tail
  sum_{n>T} (b_n - 1)/(b_1...b_n) telescopes to 1/prod;
- repeat-last-block: each period is the one before scaled by 1/prod, so
  a0 + (num/prod) * prod/(prod - 1) = a0 + num/(prod - 1).
"""

from __future__ import annotations

from fractions import Fraction

from .enclosure import check_depth
from .rationals import Record, require_int, split_sum

IRRATIONAL = "irrational"
RATIONAL = "rational"

TAIL_MODES = ("repeat-last-block", "all-zero", "all-complement")

# The fields past a0 and family that each family reads; the tables among them
# are nonempty lists or tuples of ints, stored as tuples. Every other field
# must hold its default.
_READS = {
    "unit": (),
    "complement": (),
    "masked_unit": ("mask",),
    "custom": ("a_table", "b_table", "tail_mode"),
}


class CantorSpec(Record):
    def __init__(
        self,
        a0: int = 0,
        family: str = "unit",  # unit | complement | masked_unit | custom
        mask: tuple[int, ...] = (),  # masked_unit: periodic 0/1 pattern over n >= 1
        a_table: tuple[int, ...] = (),  # custom only
        b_table: tuple[int, ...] = (),  # custom only
        tail_mode: str = "repeat-last-block",  # custom only
    ):
        if not _is_int(a0):
            raise ValueError("a0 must be an integer")
        if family not in tuple(_READS):  # by ==, so a list is refused too
            raise ValueError(f"unknown family {family!r}")
        values = dict(mask=mask, a_table=a_table, b_table=b_table, tail_mode=tail_mode)
        defaults = CantorSpec.__init__.__defaults__[2:]
        for (name, value), default in zip(values.items(), defaults):
            if name not in _READS[family]:
                if value != default:
                    raise ValueError(f"the {family} family does not read {name}")
            elif name != "tail_mode":
                is_list = isinstance(value, (list, tuple))
                if not (is_list and value and all(map(_is_int, value))):
                    raise ValueError(f"{name} must be a nonempty list of integers")
                # A list (from JSON, say) is stored as a tuple, so specs hash.
                values[name] = tuple(value)
        vars(self).update(a0=a0, family=family, **values)
        if self.family == "masked_unit" and not set(self.mask) <= {0, 1}:
            raise ValueError("masked_unit requires a nonempty 0/1 mask")
        if self.family == "custom":
            if len(self.a_table) != len(self.b_table):
                raise ValueError(
                    "custom family requires equal-length nonempty a/b tables"
                )
            if self.tail_mode not in TAIL_MODES:
                raise ValueError(f"unknown tail mode {self.tail_mode!r}")
            for i, (a, b) in enumerate(zip(self.a_table, self.b_table), start=1):
                _check_term(a, b, i)


def _is_int(value) -> bool:
    """An int, and not a bool: the JSON form of a spec keeps true and false
    apart from integers."""
    return isinstance(value, int) and not isinstance(value, bool)


class CantorVerdict(Record):
    def __init__(self, classification: str, rational_value: Fraction | None):
        vars(self).update(classification=classification, rational_value=rational_value)


def _check_term(a: int, b: int, n: int) -> None:
    if b < 2:
        raise ValueError(f"b_{n} = {b} violates b_n >= 2")
    if not 0 <= a <= b - 1:
        raise ValueError(f"a_{n} = {a} out of range [0, {b - 1}] at index {n}")


def term(spec: CantorSpec, n: int) -> tuple[int, int]:
    """(a_n, b_n) for n >= 1."""
    require_int(n, "n", "term", 1)
    if spec.family == "unit":
        return 1, n + 1
    if spec.family == "complement":
        return n, n + 1
    if spec.family == "masked_unit":
        return spec.mask[(n - 1) % len(spec.mask)], n + 1
    size = len(spec.a_table)
    if n <= size:
        return spec.a_table[n - 1], spec.b_table[n - 1]
    b = spec.b_table[(n - 1) % size]
    if spec.tail_mode == "all-zero":
        return 0, b
    if spec.tail_mode == "all-complement":
        return b - 1, b
    return spec.a_table[(n - 1) % size], b


def _head(spec: CantorSpec, upto: int) -> tuple[int, int]:
    """split_sum of the terms 1..upto: sum a_n/(b_1...b_n) = num/prod."""
    # The product grows as (upto + 1)! for the built-in families, the growth
    # MAX_DEPTH bounds for the enclosure.
    check_depth(upto)
    # Valid unchecked: the built-in families by construction; a custom tail
    # repeats entries CantorSpec checked, or is (0, b) or (b - 1, b).
    return split_sum([term(spec, n) for n in range(1, upto + 1)])


def cantor_partial_sum(spec: CantorSpec, upto: int) -> Fraction:
    """Exact sum of the first terms: a0 + sum_{n=1}^{upto} a_n/(b_1...b_n)."""
    require_int(upto, "upto", "cantor_partial_sum", 0)
    num, prod = _head(spec, upto)
    return Fraction(spec.a0 * prod + num, prod)


def _is_irrational(spec: CantorSpec) -> bool:
    """Whether spec meets both tail conditions of the criterion: the unit
    family and a mask with a 1 have a_n > 0 infinitely often, and a_n <= 1 <
    b_n - 1 = n for n >= 2; every other spec is rational."""
    return spec.family == "unit" or (spec.family == "masked_unit" and any(spec.mask))


def rational_limit(spec: CantorSpec) -> Fraction:
    """Exact limit of a rational Cantor series (see the module docstring).

    Raises ValueError on a spec classified irrational.
    """
    if _is_irrational(spec):
        raise ValueError("rational_limit called on an irrational spec")
    if spec.family == "complement":
        return Fraction(spec.a0 + 1)
    if spec.family == "masked_unit":  # an all-zero mask
        return Fraction(spec.a0)
    num, prod = _head(spec, len(spec.a_table))
    if spec.tail_mode == "all-complement":
        num += 1
    elif spec.tail_mode == "repeat-last-block":
        prod -= 1
    return Fraction(spec.a0 * prod + num, prod)


def classify(spec: CantorSpec) -> CantorVerdict:
    """Rational/irrational verdict per the criterion; a rational verdict
    carries the exact limit."""
    if _is_irrational(spec):
        return CantorVerdict(IRRATIONAL, None)
    return CantorVerdict(RATIONAL, rational_limit(spec))


def unit_family(a0: int = 2) -> CantorSpec:
    """a_n = 1, b_n = n + 1; with a0 = 2 the sum is e."""
    return CantorSpec(a0=a0, family="unit")


def complement_family(a0: int = 0) -> CantorSpec:
    """a_n = b_n - 1 = n, b_n = n + 1; sums to a0 + 1."""
    return CantorSpec(a0=a0, family="complement")


def masked_unit_family(mask: tuple[int, ...], a0: int = 0) -> CantorSpec:
    """a_n drawn from a periodic 0/1 mask, b_n = n + 1 (cosh/sinh analogs)."""
    return CantorSpec(a0=a0, family="masked_unit", mask=mask)
