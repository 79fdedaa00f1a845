"""Continued fraction of e: partial quotients, convergents, and the
partial-sum vs convergent scans, with the decimal texts the CLI prints.

The partial quotients of e follow the pattern 2; 1, 2k, 1 (k = 1, 2, ...).
That pattern is used as a generator but never trusted: every call that hands
out convergents, or says whether a rational is one, first proves the
quotients it read by Legendre's criterion against the interval enclosure.
Nothing is kept between calls.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

from .enclosure import (
    DepthCapExceeded,
    _exceeds,
    check_depth,
    endpoint,
    legendre_past_cap,
)
from .kempner import _primes_upto
from .rationals import (
    Record,
    check_decimal,
    decimal_text,
    exact_context,
    exact_decimal,
    require_int,
    require_rational,
)


class Convergent(Record):
    """p_k/q_k from the recurrence: coprime, as p_k q_(k-1) - p_(k-1) q_k = +-1."""

    def __init__(self, index: int, p: int, q: int):
        vars(self).update(index=index, p=p, q=q)

    @property
    def value(self) -> Fraction:
        """p_k/q_k as a Fraction, built (with its gcd) when read."""
        return Fraction(self.p, self.q)


class PartialSumRecord(Record):
    """s_n = N_n/n! = num/q_n in lowest terms, with g = gcd(N_n, n!), so
    num = N_n / g and q_n = n! / g."""

    def __init__(self, n: int, num: int, q_n: int, g: int):
        vars(self).update(n=n, num=num, q_n=q_n, g=g)

    @property
    def full_factorial(self) -> bool:
        """q_n == n!"""
        return self.g == 1


def _partial_quotient(k: int) -> int:
    """a_k of e = [2; 1, 2, 1, 1, 4, 1, ...]: 2(k+1)/3 when k = 2 mod 3."""
    if k == 0:
        return 2
    return 2 * (k + 1) // 3 if k % 3 == 2 else 1


def _fma(a: int, x: int, y: int) -> int:
    return a * x + y


def _recurrence(count: int, fma, zero, one) -> Iterator[tuple]:
    """(p_k, q_k), k = 0..count-1, from p_k = a_k p_(k-1) + p_(k-2) and q_k
    alike, where fma(a, x, y) = a x + y: _fma over ints, or over Decimals an
    exact context's own fma, so the generator lends no context to its caller
    between steps."""
    p0, p1, q0, q1 = zero, one, one, zero
    for k in range(count):
        a = _partial_quotient(k)
        p0, p1 = p1, fma(a, p1, p0)
        q0, q1 = q1, fma(a, q1, q0)
        yield p1, q1


def _proof_index(count: int) -> int:
    """K, the first K = 1 (mod 3) with K >= count + 1: the convergent whose
    proof covers the first `count`, priced before any recurrence runs.

    If |e - p_K/q_K| < 1/(2 q_K^2), p_K/q_K is a convergent of e (Legendre;
    Hardy & Wright, Thm 184). As a_K = 1, it is [a_0; ..., a_(K-1), 1] =
    [a_0; ..., a_(K-1) + 1], the K-th or (K-1)-th, so e's quotients begin
    a_0, ..., a_(K-2). It should pass: a_(K+1) >= 2 gives q_(K+1) > 2 q_K.

    K = 3m + 1 for the m below, and each run of quotients 2j, 1, 1 takes
    q_(3j-2) to q_(3j+1) = (4j + 1) q_(3j-2) + 2 q_(3j-3) <= (4j + 3)
    q_(3j-2), so q_K <= 4^m (m + 1)!. A count whose proof would start past
    MAX_DEPTH at that bound is refused, from 13 942 on; check_depth refuses
    one from 2 MAX_DEPTH + 1 on before (m + 1)! is built.
    """
    require_int(count, "count", "convergent_pairs", 1)
    check_depth((count + 1) // 2)
    m = (count + 2) // 3
    if legendre_past_cap(2 * m + math.factorial(m + 1).bit_length()):
        raise DepthCapExceeded(
            f"the proof of {count} convergents starts past MAX_DEPTH"
        )
    return 3 * m + 1


def _prove(p: int, q: int) -> None:
    """Raise AssertionError unless |e - p/q| < 1/(2 q^2), decided on ints:
    no Fraction is built and no gcd runs. The message names q by its size,
    as str() refuses an int past 4300 digits."""
    if _exceeds(p, q, 1, 2 * q * q, 0):
        raise AssertionError(
            f"a generated p/q, q of {q.bit_length()} bits, fails |e - p/q| < 1/(2 q^2)"
        )


def convergent_pairs(count: int) -> list[tuple[int, int]]:
    """(p_k, q_k) of the first `count` convergents of e, run to the proof's
    index and proved by one comparison: each pair is in lowest terms, as
    p_k q_(k-1) - p_(k-1) q_k = +-1."""
    pairs = list(_recurrence(_proof_index(count) + 1, _fma, 0, 1))
    _prove(*pairs[-1])
    del pairs[count:]
    return pairs


def convergent_texts(count: int) -> Iterator[tuple[str, str]]:
    """The decimal texts of convergent_pairs(count), yielded pair by pair.

    The recurrence runs over ints and over Decimals side by side to the
    proof's index; a Decimal step and text are linear in the digits. Every
    Decimal row is checked against its int (rationals.check_decimal) and the
    last int pair is proved, keeping no row; only then does this return, so
    every refusal and every failed check is raised by the call itself. The
    iterator runs the Decimal recurrence again and yields the texts of the
    values checked, holding one pair at a time.
    """
    rows = _proof_index(count) + 1
    with exact_decimal():
        decimals = _recurrence(rows, exact_context().fma, Decimal(0), Decimal(1))
        for (p, q), (p_dec, q_dec) in zip(_recurrence(rows, _fma, 0, 1), decimals):
            check_decimal(p_dec, p)
            check_decimal(q_dec, q)
    _prove(p, q)
    decimals = _recurrence(count, exact_context().fma, Decimal(0), Decimal(1))
    return ((str(p), str(q)) for p, q in decimals)


def convergents(count: int) -> list[Convergent]:
    """First `count` convergents of e (2, 3, 8/3, 11/4, 19/7, ...)."""
    return [Convergent(k, p, q) for k, (p, q) in enumerate(convergent_pairs(count))]


def is_convergent(r: Fraction) -> bool:
    """True iff r equals some convergent of e."""
    require_rational(r, "r", "is_convergent")
    return _is_convergent(r.numerator, r.denominator)


def _is_convergent(p: int, q: int) -> bool:
    """Whether p/q, in lowest terms with q > 0, is a convergent of e.

    p/q = [b_0; b_1, ..., b_m], with b_m >= 2 when m >= 1, is also [b_0; ...,
    b_m - 1, 1], and it has no other continued fraction: it is the convergent
    [a_0; ..., a_k] exactly when one of the two is. The walk by divmod stops
    at the first b_k other than a_k, or at b_m. The quotients compared, up
    to a_(k+1), are proved before the answer.
    """
    k, (b, rest) = 0, divmod(p, q)
    while rest and b == _partial_quotient(k):
        k, p, q = k + 1, q, rest
        b, rest = divmod(p, q)
    a = _partial_quotient(k)
    hit = rest == 0 and (b == a or b - 1 == a and _partial_quotient(k + 1) == 1)
    convergent_pairs(k + 2)
    return hit


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
    row that this leaves open, n = 1, 2 and 3 for every n <= MAX_DEPTH, walks
    its own continued fraction.
    """
    require_int(max_n, "max_n", "partial_sum_scan", 0)
    check_depth(max_n)
    # One pass of N_n = n N_(n-1) + 1 beside n!: cheaper than a tree per row.
    pairs = itertools.accumulate(range(1, max_n + 1), _next_sum, initial=(1, 1))
    records = map(_record, itertools.count(), pairs, _prime_hits(max_n))
    return (
        (r, r.q_n < (r.n + 1) * r.g and _is_convergent(r.num, r.q_n)) for r in records
    )


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
