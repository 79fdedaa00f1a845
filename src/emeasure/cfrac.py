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
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .enclosure import check_depth, compare_distance_to_e, endpoint
from .kempner import _primes_upto
from .rationals import (
    LESS,
    check_decimal,
    decimal_text,
    exact_context,
    exact_decimal,
    require_int,
    require_rational,
)


@dataclass(frozen=True)
class Convergent:
    """p_k/q_k, the pair as stored: coprime, as p_k q_(k-1) - p_(k-1) q_k = +-1."""

    index: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        """p_k/q_k as a Fraction, built (with its gcd) when read."""
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class PartialSumRecord:
    """s_n = N_n/n! = num/q_n in lowest terms, with g = gcd(N_n, n!)."""

    n: int
    num: int  # N_n / g
    q_n: int  # n! / g
    g: int

    @property
    def full_factorial(self) -> bool:
        """q_n == n!"""
        return self.g == 1


def _partial_quotient(k: int) -> int:
    """a_k of e = [2; 1, 2, 1, 1, 4, 1, ...]: 2(k+1)/3 when k = 2 mod 3."""
    if k == 0:
        return 2
    return 2 * (k + 1) // 3 if k % 3 == 2 else 1


# The proved convergents p_k/q_k = _P[k + 2]/_Q[k + 2], in lowest terms. The
# first two entries seed the recurrence p_k = a_k p_(k-1) + p_(k-2).
_P: list[int] = [0, 1]
_Q: list[int] = [1, 0]
# Growing is check-then-extend, so _grow holds this lock: two threads must
# not both extend the table from the same end.
_GROW_LOCK = threading.Lock()


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
    with _GROW_LOCK:
        if len(_P) >= count + 2 and _Q[-1] > denominator:
            return
        # 2 q_(2D)^2 >= D! for every D <= 1.2 10^4, so no proof at K past
        # 2 MAX_DEPTH + 1 is decided within MAX_DEPTH: refuse such a count
        # before the recurrence runs, and a denominator once the recurrence
        # gets there.
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
    require_int(count, "count", "convergent_pairs", 1)
    _grow(count)
    return list(zip(_P[2 : count + 2], _Q[2 : count + 2]))


def convergent_texts(count: int) -> Iterator[tuple[str, str]]:
    """The decimal texts of convergent_pairs(count), yielded pair by pair.

    The recurrence runs in decimal (_decimal_convergents), where a step and a
    text are linear in the digits, twice. The first pass checks every value
    against its proved int (rationals.check_decimal) and keeps nothing; only
    then does this return, so every refusal and every failed check is raised
    by the call itself. The iterator runs the same recurrence again and
    yields the texts of the values checked, holding one pair at a time.
    """
    pairs = convergent_pairs(count)
    with exact_decimal():
        for (p, q), (p_dec, q_dec) in zip(pairs, _decimal_convergents(count)):
            check_decimal(p_dec, p)
            check_decimal(q_dec, q)
    return ((str(p), str(q)) for p, q in _decimal_convergents(count))


def _decimal_convergents(count: int) -> Iterator[tuple[Decimal, Decimal]]:
    """(p_k, q_k) as Decimals, k = 0..count-1, from p_k = a_k p_(k-1) +
    p_(k-2). Each step is one fused multiply-add of an exact context's own,
    so the generator lends no context to its caller between steps."""
    fma = exact_context().fma
    p0, p1, q0, q1 = Decimal(0), Decimal(1), Decimal(1), Decimal(0)
    for k in range(count):
        a = _partial_quotient(k)
        p0, p1 = p1, fma(a, p1, p0)
        q0, q1 = q1, fma(a, q1, q0)
        yield p1, q1


def convergents(count: int) -> list[Convergent]:
    """First `count` convergents of e (2, 3, 8/3, 11/4, 19/7, ...)."""
    return [Convergent(k, p, q) for k, (p, q) in enumerate(convergent_pairs(count))]


def is_convergent(r: Fraction) -> bool:
    """True iff r equals some convergent of e."""
    require_rational(r, "r", "is_convergent")
    return _in_table(r.numerator, r.denominator)


def _in_table(p: int, q: int) -> bool:
    """True iff p/q, in lowest terms with q > 0, is a convergent, looked up
    once the table is grown past q."""
    _grow(0, q)
    # q_k increases strictly from k = 1 on; only q_0 = q_1 = 1 repeat.
    lo = bisect.bisect_left(_Q, q, 2)
    hi = bisect.bisect_right(_Q, q, 2)
    return p in _P[lo:hi]


def partial_sum_record(n: int) -> PartialSumRecord:
    """Partial sum s_n in lowest terms, with g = n!/q_n."""
    # Every prime that may divide n! is tried: one division of N_n each.
    return _record(n, endpoint(n), _primes_upto(n))


def _record(n: int, pair: tuple[int, int], primes: list[int]) -> PartialSumRecord:
    """The record of (N_n, n!), where `primes` holds every prime dividing
    g = gcd(N_n, n!). For each, v_p(g) = min(v_p(N_n), v_p(n!)): N_n is
    divided by p at most v_p(n!) times (Legendre), and is left as N_n/g."""
    num, fact = pair
    g = 1
    for p in primes:
        budget, power = 0, p
        while power <= n:
            budget += n // power
            power *= p
        for _ in range(budget):
            quotient, rest = divmod(num, p)
            if rest:
                break
            num = quotient
            g *= p
    return PartialSumRecord(n=n, num=num, q_n=fact // g, g=g)


def _prime_hits(max_n: int) -> list[list[int]]:
    """hits[n]: the primes p <= n with p | N_n, n = 0..max_n.

    Write n = tp + r with 0 <= r < p. Each term n!/j! of N_n = sum_j n!/j!
    with j < tp has the factor tp; the others are (j+1)...n, which reduce
    mod p to the terms r!/i! of N_r. So N_n = N_r (mod p), and one pass of
    N_r mod p over r < p finds every n at which p divides N_n and n!."""
    hits: list[list[int]] = [[] for _ in range(max_n + 1)]
    for p in _primes_upto(max_n):
        residue = 1  # N_0
        # n = tp + r needs t >= 1 for p | n!, so r <= max_n - p.
        for r in range(1, min(p, max_n - p + 1)):
            residue = (r * residue + 1) % p
            if not residue:
                for n in range(p + r, max_n + 1, p):
                    hits[n].append(p)
    return hits


def partial_sum_scan(max_n: int) -> Iterator[tuple[PartialSumRecord, bool]]:
    """Rows (partial_sum_record(n), whether s_n is a convergent), n = 0..max_n,
    computed as they are read; no row runs a gcd. The depth is checked
    before this returns.

    s_n is a convergent only if q_n < (n + 1) g. The tail gives e - s_n >
    1/(n + 1)!, and a convergent has |e - p_k/q_k| < 1/q_k^2 (Hardy & Wright,
    Thm 171), so s_n = p_k/q_k needs q_n^2 < (n + 1)! = (n + 1) g q_n. Only a
    row that this leaves open, n = 1, 2 and 3 for every n <= MAX_DEPTH, grows
    the table to its own q_n and is looked up there.
    """
    require_int(max_n, "max_n", "partial_sum_scan", 0)
    check_depth(max_n)
    # One pass of N_n = n N_(n-1) + 1 beside n!: cheaper than a tree per row.
    pairs = itertools.accumulate(range(1, max_n + 1), _next_sum, initial=(1, 1))
    records = map(_record, itertools.count(), pairs, _prime_hits(max_n))
    return ((r, r.q_n < (r.n + 1) * r.g and _in_table(r.num, r.q_n)) for r in records)


def _next_sum(pair, n: int):
    """(N_n, n!) from (N_(n-1), (n-1)!), as ints or as Decimals."""
    num, fact = pair
    return n * num + 1, n * fact


def partial_sum_texts(
    rows: Iterator[tuple[PartialSumRecord, bool]],
) -> Iterator[tuple[PartialSumRecord, bool, str, str]]:
    """partial_sum_scan's rows, each with the decimal texts of s_n's numerator
    and denominator. N_n and n! run through their recurrence again in
    decimal, where a step is linear in the digits, and are printed divided by
    the record's g; each is checked against the record's int times g
    (rationals.decimal_text)."""
    pair = (Decimal(1), Decimal(1))
    for record, hit in rows:
        n = record.n
        # Entered per row: a generator would otherwise lend its context to
        # the caller between rows.
        with exact_decimal():
            if n:
                pair = _next_sum(pair, n)
            num = decimal_text(pair[0], record.num, record.g)
            den = decimal_text(pair[1], record.q_n, record.g)
        yield record, hit, num, den


def corollary3_scan(max_n: int) -> list[dict]:
    """For each n in [3, max_n] with q_n = n!, check s_n is not a convergent.

    Returns one row per full-factorial index; `violated` should always be
    False (it is a theorem).
    """
    require_int(max_n, "max_n", "corollary3_scan", 3)
    return [
        {"n": record.n, "violated": hit}
        for record, hit in partial_sum_scan(max_n)
        if record.n >= 3 and record.full_factorial
    ]


def conjecture2_scan(max_n: int) -> list[int]:
    """Indices n <= max_n whose partial sum s_n is a convergent of e.

    The conjecture predicts exactly [1, 3] for every max_n >= 3.
    """
    require_int(max_n, "max_n", "conjecture2_scan", 1)
    scan = partial_sum_scan(max_n)
    return [record.n for record, hit in scan if hit]
