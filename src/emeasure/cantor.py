"""Cantor series rationality classifier.

A Cantor series is a0 + sum_{n>=1} a_n / (b_1 ... b_n) with b_n >= 2 and
0 <= a_n <= b_n - 1. Under the hypothesis that each prime divides
infinitely many b_n, the sum is irrational iff a_n > 0 infinitely often AND
a_n < b_n - 1 infinitely often. The rational direction needs no hypothesis:
an eventually-zero tail is a finite sum, and an eventually-complement tail
(a_n = b_n - 1) telescopes to 1/(b_1...b_T).

Built-in families all use b_n = n + 1 (so b_1...b_n = (n+1)!), for which the
prime-divisibility hypothesis is derivable: p divides b_{p-1}, b_{2p-1}, ...
Custom tables may carry asserted tail flags, which verdicts echo. The
tables and tail mode decide whether a_n > 0 and a_n < b_n - 1 infinitely
often, so an assertion of either that contradicts them is refused; without
the prime hypothesis asserted true, an irrational-side verdict is
conditional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .enclosure import check_depth
from .rationals import split_sum

IRRATIONAL = "irrational"
RATIONAL = "rational"
CONDITIONAL = "conditional"

TAIL_MODES = ("repeat-last-block", "all-zero", "all-complement")


@dataclass(frozen=True)
class CantorSpec:
    a0: int = 0
    family: str = "unit"  # unit | complement | masked_unit | custom
    mask: tuple[int, ...] = ()  # masked_unit: periodic 0/1 pattern over n >= 1
    a_table: tuple[int, ...] = ()  # custom only
    b_table: tuple[int, ...] = ()  # custom only
    tail_mode: str = "repeat-last-block"  # custom only
    # Custom only: asserted tail behavior, None where not asserted. The
    # tables and tail mode decide the last two, so classify refuses an
    # assertion of either that they contradict.
    all_primes_divide_infinitely_many_b: bool | None = None
    a_positive_infinitely_often: bool | None = None
    a_below_b_minus_1_infinitely_often: bool | None = None

    def __post_init__(self):
        if self.family not in ("unit", "complement", "masked_unit", "custom"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "masked_unit":
            if not self.mask or any(m not in (0, 1) for m in self.mask):
                raise ValueError("masked_unit requires a nonempty 0/1 mask")
        if self.family == "custom":
            if not self.a_table or len(self.a_table) != len(self.b_table):
                raise ValueError(
                    "custom family requires equal-length nonempty a/b tables"
                )
            if self.tail_mode not in TAIL_MODES:
                raise ValueError(f"unknown tail mode {self.tail_mode!r}")
            for i, (a, b) in enumerate(zip(self.a_table, self.b_table), start=1):
                _check_term(a, b, i)


@dataclass(frozen=True)
class CantorVerdict:
    classification: str
    rational_value: Fraction | None
    conditions_used: list[str] = field(default_factory=list)


def _check_term(a: int, b: int, n: int) -> None:
    if b < 2:
        raise ValueError(f"b_{n} = {b} violates b_n >= 2")
    if not 0 <= a <= b - 1:
        raise ValueError(f"a_{n} = {a} out of range [0, {b - 1}] at index {n}")


def term(spec: CantorSpec, n: int) -> tuple[int, int]:
    """(a_n, b_n) for n >= 1."""
    if n < 1:
        raise ValueError("term index must be >= 1")
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
    # repeats entries __post_init__ checked, or is (0, b) or (b - 1, b).
    return split_sum([term(spec, n) for n in range(1, upto + 1)])


def cantor_partial_sum(spec: CantorSpec, upto: int) -> Fraction:
    """Exact sum of the first terms: a0 + sum_{n=1}^{upto} a_n/(b_1...b_n)."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    num, prod = _head(spec, upto)
    return Fraction(spec.a0 * prod + num, prod)


def _tail_predicates(spec: CantorSpec) -> tuple[bool, bool, bool, list[str]]:
    """(a_pos_io, a_below_io, primes_ok, conditions) for the tail of spec."""
    if spec.family == "unit":
        # a_n = 1 > 0 always; 1 < b_n - 1 = n for n >= 2.
        return True, True, True, []
    if spec.family == "complement":
        # a_n = b_n - 1 everywhere: never below the complement.
        return True, False, True, []
    if spec.family == "masked_unit":
        a_pos = any(spec.mask)
        # Even an all-ones mask has 1 < b_n - 1 for n >= 2.
        return a_pos, True, True, []

    conditions: list[str] = []
    if spec.tail_mode == "all-zero":
        a_pos, a_below = False, True
    elif spec.tail_mode == "all-complement":
        a_pos, a_below = True, False  # a_n = b_n - 1 >= 1, as b_n >= 2
    else:
        a_pos = any(a > 0 for a in spec.a_table)
        a_below = any(a < b - 1 for a, b in zip(spec.a_table, spec.b_table))
    # The tables decide both flags, so an asserted one can only agree.
    for name, derived in (
        ("a_positive_infinitely_often", a_pos),
        ("a_below_b_minus_1_infinitely_often", a_below),
    ):
        asserted = getattr(spec, name)
        if asserted is not None:
            if asserted != derived:
                raise ValueError(
                    f"{name} asserted {asserted}, but the tables and tail mode"
                    f" give {derived}"
                )
            conditions.append(f"{name} (asserted)")
    primes_ok = bool(spec.all_primes_divide_infinitely_many_b)
    if spec.all_primes_divide_infinitely_many_b is not None:
        conditions.append("all_primes_divide_infinitely_many_b (asserted)")
    return a_pos, a_below, primes_ok, conditions


def rational_limit(spec: CantorSpec) -> Fraction:
    """Exact limit of a rational Cantor series.

    Valid only when the tail is eventually all-zero (finite sum) or
    eventually all-complement (telescopes to 1 over the head product).
    Raises on specs classified irrational or conditional.
    """
    a_pos, a_below, _, _ = _tail_predicates(spec)
    if a_pos and a_below:
        raise ValueError("rational_limit called on a non-rational spec")
    head = len(spec.a_table) if spec.family == "custom" else len(spec.mask)
    num, prod = _head(spec, head)
    # An all-zero tail adds nothing, an eventually-complement one
    # sum_{n>T} (b_n - 1)/(b_1...b_n) = 1/(b_1...b_T); the complement
    # family's head is empty, so its limit is a0 + 1.
    return Fraction(spec.a0 * prod + num + (1 if a_pos else 0), prod)


def classify(spec: CantorSpec) -> CantorVerdict:
    """Rational/irrational verdict per the biconditional criterion.

    Rational verdicts are unconditional and carry the exact limit.
    Irrational verdicts require the prime-divisibility hypothesis, derived
    for the built-in families or asserted true for a custom spec, else the
    verdict is 'conditional'; conditions_used echoes every asserted flag.
    """
    a_pos, a_below, primes_ok, conditions = _tail_predicates(spec)
    if not (a_pos and a_below):
        return CantorVerdict(RATIONAL, rational_limit(spec), conditions)
    return CantorVerdict(IRRATIONAL if primes_ok else CONDITIONAL, None, conditions)


def unit_family(a0: int = 2) -> CantorSpec:
    """a_n = 1, b_n = n + 1; with a0 = 2 the sum is e."""
    return CantorSpec(a0=a0, family="unit")


def complement_family(a0: int = 0) -> CantorSpec:
    """a_n = b_n - 1 = n, b_n = n + 1; sums to a0 + 1."""
    return CantorSpec(a0=a0, family="complement")


def masked_unit_family(mask: tuple[int, ...], a0: int = 0) -> CantorSpec:
    """a_n drawn from a periodic 0/1 mask, b_n = n + 1 (cosh/sinh analogs)."""
    return CantorSpec(a0=a0, family="masked_unit", mask=tuple(mask))
