"""Continued fraction of e: partial quotients, convergents, and the
partial-sum vs convergent scans.

The partial quotients of e follow the pattern 2; 1, 2k, 1 (k = 1, 2, ...).
That pattern is used as a generator but never trusted: every convergent it
produces is validated against the interval enclosure via the standard
convergent inequality |e - p/q| < 1/q^2 before being handed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .enclosure import compare_distance_to_e, partial_sum
from .rationals import LESS


@dataclass(frozen=True)
class Convergent:
    index: int
    value: Fraction


@dataclass(frozen=True)
class PartialSumRecord:
    n: int
    s_n: Fraction
    q_n: int  # denominator of s_n in lowest terms
    full_factorial: bool  # q_n == n!


def _partial_quotient(k: int) -> int:
    """a_k of e = [2; 1, 2, 1, 1, 4, 1, ...]: 2(k+1)/3 when k = 2 mod 3."""
    if k == 0:
        return 2
    return 2 * (k + 1) // 3 if k % 3 == 2 else 1


def e_partial_quotients(count: int) -> list[int]:
    """First `count` partial quotients of e: 2, 1, 2, 1, 1, 4, 1, 1, 6, ..."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [_partial_quotient(k) for k in range(count)]


class _ConvergentTable:
    """Growing, validated table of convergents of e.

    Maintains the p/q recurrence and a denominator -> value index (values
    are in lowest terms, so a rational can only match a convergent with the
    exact same denominator).
    """

    def __init__(self) -> None:
        self.values: list[Fraction] = []
        # Denominators collide only at indices 0 and 1 (both 1), hence lists.
        self.by_denominator: dict[int, list[Fraction]] = {}
        self._p = [0, 1]  # p_{k-2}, p_{k-1}
        self._q = [1, 0]
        self._k = 0

    def grow(self) -> Convergent:
        a = _partial_quotient(self._k)
        p = a * self._p[1] + self._p[0]
        q = a * self._q[1] + self._q[0]
        value = Fraction(p, q)
        assert value.denominator == q, "recurrence must give lowest terms"
        # Validate against the enclosure instead of trusting the pattern. It
        # may raise DepthCapExceeded, so the recurrence advances only after.
        check = compare_distance_to_e(value, Fraction(1, q * q))
        if check != LESS:
            raise AssertionError(
                f"generated convergent {p}/{q} fails |e - p/q| < 1/q^2"
            )
        self._p = [self._p[1], p]
        self._q = [self._q[1], q]
        self.values.append(value)
        self.by_denominator.setdefault(q, []).append(value)
        conv = Convergent(index=self._k, value=value)
        self._k += 1
        return conv

    def ensure_count(self, count: int) -> None:
        while len(self.values) < count:
            self.grow()

    def ensure_denominator_above(self, denominator: int) -> None:
        # q_k is strictly increasing from index 2 on, so this terminates.
        while len(self.values) < 3 or self.values[-1].denominator <= denominator:
            self.grow()


_TABLE = _ConvergentTable()


def convergents(count: int) -> list[Convergent]:
    """First `count` convergents of e (2, 3, 8/3, 11/4, 19/7, ...)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _TABLE.ensure_count(count)
    return [Convergent(i, v) for i, v in enumerate(_TABLE.values[:count])]


def is_convergent(r: Fraction) -> bool:
    """True iff r equals some convergent of e."""
    _TABLE.ensure_denominator_above(r.denominator)
    return r in _TABLE.by_denominator.get(r.denominator, [])


def partial_sum_record(n: int) -> PartialSumRecord:
    """Partial sum s_n with its reduced denominator q_n and whether q_n = n!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    s_n = partial_sum(n)
    q_n = s_n.denominator
    return PartialSumRecord(
        n=n, s_n=s_n, q_n=q_n, full_factorial=(q_n == math.factorial(n))
    )


def corollary3_scan(max_n: int) -> list[dict]:
    """For each n in [3, max_n] with q_n = n!, check s_n is not a convergent.

    Returns one row per full-factorial index; `violated` should always be
    False (it is a theorem).
    """
    if max_n < 3:
        raise ValueError("max_n must be >= 3")
    rows = []
    for n in range(3, max_n + 1):
        record = partial_sum_record(n)
        if record.full_factorial:
            rows.append({"n": n, "violated": is_convergent(record.s_n)})
    return rows


def conjecture2_scan(max_n: int) -> list[int]:
    """Indices n <= max_n whose partial sum s_n is a convergent of e.

    The conjecture predicts exactly [1, 3] for every max_n >= 3.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    return [
        n for n in range(0, max_n + 1) if is_convergent(partial_sum(n))
    ]
