"""Continued fraction of e: partial quotients, convergents, and the
partial-sum vs convergent scans, with the decimal texts the CLI prints.

The partial quotients of e follow the pattern 2; 1, 2k, 1 (k = 1, 2, ...).
That pattern is used as a generator but never trusted: the convergents it
produces are proved by Legendre's criterion, once per growth of the table,
against the interval enclosure before being handed out.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .enclosure import check_depth, compare_distance_to_e, endpoint
from .rationals import LESS, decimal_text, exact_decimal


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


# The proved convergents p_k/q_k = _P[k + 2]/_Q[k + 2], in lowest terms. The
# first two entries seed the recurrence p_k = a_k p_(k-1) + p_(k-2).
_P: list[int] = [0, 1]
_Q: list[int] = [1, 0]


def _grow(count: int, denominator: int = 0) -> None:
    """Extend the table to at least `count` convergents, the last with
    q_k > denominator, proved by one comparison.

    The recurrence runs to the first K = 1 (mod 3) with K >= count + 1 and
    q_(K-2) > denominator. If |e - p_K/q_K| < 1/(2 q_K^2), p_K/q_K is a
    convergent of e (Legendre; Hardy & Wright, Thm 184). As a_K = 1, it is
    [a_0; ..., a_(K-1), 1] = [a_0; ..., a_(K-1) + 1], the K-th or (K-1)-th,
    so e's quotients begin a_0, ..., a_(K-2): those convergents are stored,
    only once the check passes. It should pass: a_(K+1) >= 2 gives
    q_(K+1) > 2 q_K.
    """
    if len(_P) >= count + 2 and _Q[-1] > denominator:
        return
    # 2 q_(2D)^2 >= D! for every D <= 1.2 10^4, so no proof at K past
    # 2 MAX_DEPTH + 1 is decided within MAX_DEPTH: refuse such a count before
    # the recurrence runs, and a denominator once the recurrence gets there.
    check_depth((count + 1) // 2)
    ps, qs = _P[-2:], _Q[-2:]
    # k indexes the last entry of ps/qs. The table ends at k = 2 (mod 3),
    # or -1 when empty, so qs[-3] is read only after two steps.
    k = len(_P) - 3
    while k % 3 != 1 or k < count + 1 or qs[-3] <= denominator:
        k += 1
        check_depth(k // 2)
        a = _partial_quotient(k)
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
    p, q = ps.pop(), qs.pop()  # p_K / q_K
    if compare_distance_to_e(Fraction(p, q), Fraction(1, 2 * q * q)) != LESS:
        raise AssertionError(f"generated {p}/{q} fails |e - p/q| < 1/(2 q^2)")
    _P.extend(ps[2:-1])
    _Q.extend(qs[2:-1])


def convergent_pairs(count: int) -> list[tuple[int, int]]:
    """(p_k, q_k) of the first `count` convergents of e, as stored: each pair
    is in lowest terms, as p_k q_(k-1) - p_(k-1) q_k = +-1."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _grow(count)
    return list(zip(_P[2 : count + 2], _Q[2 : count + 2]))


def convergent_texts(count: int) -> list[tuple[str, str]]:
    """The decimal texts of convergent_pairs(count). The recurrence runs again
    in decimal, where a step and a text are linear in the digits, and each
    text is checked against its proved int (rationals.decimal_text)."""
    pairs = convergent_pairs(count)
    texts = []
    p0, p1, q0, q1 = Decimal(0), Decimal(1), Decimal(1), Decimal(0)
    with exact_decimal():
        for k, (p, q) in enumerate(pairs):
            a = _partial_quotient(k)
            p0, p1 = p1, a * p1 + p0
            q0, q1 = q1, a * q1 + q0
            texts.append((decimal_text(p1, p), decimal_text(q1, q)))
    return texts


def convergents(count: int) -> list[Convergent]:
    """First `count` convergents of e (2, 3, 8/3, 11/4, 19/7, ...)."""
    return [
        Convergent(k, Fraction(p, q)) for k, (p, q) in enumerate(convergent_pairs(count))
    ]


def is_convergent(r: Fraction) -> bool:
    """True iff r equals some convergent of e."""
    _grow(0, r.denominator)
    # q_k increases strictly from k = 1 on; only q_0 = q_1 = 1 repeat.
    lo = bisect.bisect_left(_Q, r.denominator, 2)
    hi = bisect.bisect_right(_Q, r.denominator, 2)
    return r.numerator in _P[lo:hi]


def partial_sum_record(n: int) -> PartialSumRecord:
    """Partial sum s_n with its reduced denominator q_n and whether q_n = n!."""
    return _record(n, endpoint(n))


def _record(n: int, pair: tuple[int, int]) -> PartialSumRecord:
    num, fact = pair
    s_n = Fraction(num, fact)
    q_n = s_n.denominator
    return PartialSumRecord(n=n, s_n=s_n, q_n=q_n, full_factorial=(q_n == fact))


def partial_sum_scan(
    max_n: int, check_convergent: bool = False
) -> Iterator[tuple[PartialSumRecord, bool | None]]:
    """Rows (partial_sum_record(n), is_convergent(s_n) or None), n = 0..max_n,
    computed as they are read. The depth, and with check_convergent one growth
    of the table past max_n! (no s_n has a larger denominator), are checked
    before this returns."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    check_depth(max_n)
    if check_convergent:
        _grow(0, math.factorial(max_n))
    # One pass of N_n = n N_(n-1) + 1 beside n!: cheaper than a tree per row.
    pairs = itertools.accumulate(range(1, max_n + 1), _next_sum, initial=(1, 1))
    records = itertools.starmap(_record, enumerate(pairs))
    return ((r, is_convergent(r.s_n) if check_convergent else None) for r in records)


def _next_sum(pair, n: int):
    """(N_n, n!) from (N_(n-1), (n-1)!), as ints or as Decimals."""
    num, fact = pair
    return n * num + 1, n * fact


def partial_sum_texts(
    rows: Iterator[tuple[PartialSumRecord, bool | None]],
) -> Iterator[tuple[PartialSumRecord, bool | None, str, str]]:
    """partial_sum_scan's rows, each with the decimal texts of s_n's numerator
    and denominator. N_n and n! run through their recurrence again in
    decimal, where a step is linear in the digits, and are printed divided by
    g = n!/q_n; each is checked against the record's int times g
    (rationals.decimal_text)."""
    fact = 1
    pair = (Decimal(1), Decimal(1))
    for record, hit in rows:
        n = record.n
        # Entered per row: a generator would otherwise lend its context to
        # the caller between rows.
        with exact_decimal():
            if n:
                fact *= n
                pair = _next_sum(pair, n)
            g = fact // record.q_n
            num = decimal_text(pair[0], record.s_n.numerator, g)
            den = decimal_text(pair[1], record.q_n, g)
        yield record, hit, num, den


def corollary3_scan(max_n: int) -> list[dict]:
    """For each n in [3, max_n] with q_n = n!, check s_n is not a convergent.

    Returns one row per full-factorial index; `violated` should always be
    False (it is a theorem).
    """
    if max_n < 3:
        raise ValueError("max_n must be >= 3")
    return [
        {"n": record.n, "violated": hit}
        for record, hit in partial_sum_scan(max_n, check_convergent=True)
        if record.n >= 3 and record.full_factorial
    ]


def conjecture2_scan(max_n: int) -> list[int]:
    """Indices n <= max_n whose partial sum s_n is a convergent of e.

    The conjecture predicts exactly [1, 3] for every max_n >= 3.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    scan = partial_sum_scan(max_n, check_convergent=True)
    return [record.n for record, hit in scan if hit]
