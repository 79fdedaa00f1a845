"""Segmented range scans of S(q) and P(q), and the counting functions behind
the almost-all claims.

Two exception counters over q in [2, x]:

* S(q) != P(q)        -- exceptions to the almost-all identity S = P
* q^2 >= S(q)!        -- exceptions to the conjectured q^2 < S(q)! (and the
                         P(q)! variant is counted alongside for comparison)

Counts are exact and bit-identical regardless of worker count: the range is
cut into fixed blocks, each block is scanned independently from the prime
powers of the primes up to isqrt(x), and partial results merge in block
order.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from operator import floordiv, gt, ne

from .kempner import kempner_prime_power
from .rationals import ResourceError, truncate_decimal

BLOCK_SIZE = 1 << 16
# The most entries one scan may cover (x + 1), read when a report runs.
MAX_SCAN_ENTRIES = 10**8
EXCEPTIONS_CAP = 100


@dataclass(frozen=True)
class DensityReport:
    x: int
    count_S_neq_P: int
    count_conjecture1_fail: int  # q with q^2 >= S(q)!
    count_conjecture1_fail_P: int  # q with q^2 >= P(q)!, for comparison
    ratio_S_neq_P: str
    ratio_conjecture1_fail: str
    exceptions_S_neq_P: list[int]  # first <= 100 offenders
    exceptions_conjecture1: list[int]


@dataclass(frozen=True)
class KempnerPlan:
    """What kempner_range needs to scan any q in [2, x]: every prime power
    p^a <= x with p <= isqrt(x), as (S(p^a), p^a, p), sorted by S(p^a).

    Its size is O(sqrt(x)); no table of x entries is ever built.
    """

    x: int
    powers: tuple[tuple[int, int, int], ...]


def kempner_plan(x: int) -> KempnerPlan:
    """The base primes p <= isqrt(x), from a bytearray sieve, and the S
    value of each of their powers up to x."""
    if x < 2:
        raise ValueError("kempner_plan requires x >= 2")
    root = math.isqrt(x)
    flags = bytearray([1]) * (root + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(root) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    powers = []
    for p in compress(range(root + 1), flags):
        power, a = p, 1
        while power <= x:
            powers.append((kempner_prime_power(p, a), power, p))
            power, a = power * p, a + 1
    powers.sort()
    return KempnerPlan(x, tuple(powers))


def kempner_range(lo: int, hi: int, plan: KempnerPlan) -> tuple[list[int], list[int]]:
    """Lists of S(q) and of P(q) for q = lo .. hi, from the plan's prime
    powers alone.

    The one kernel behind every range scan; its values agree with the
    pointwise kempner_S and largest_prime_factor. S(q) is the largest
    S(p^a) over the prime powers dividing q, because S(p^a) is
    nondecreasing in a; the powers are written in ascending S order, so
    the last write is that maximum. The a = 1 entries come in ascending p,
    so the last write to P is the largest base prime dividing q. Dividing
    q by p once per p^a | q leaves 1 or the one prime factor of q above
    isqrt(x).
    """
    if lo < 2 or hi > plan.x:
        raise ValueError("kempner_range requires 2 <= lo and hi <= the plan's x")
    n = hi - lo + 1
    S = [0] * n
    P = [0] * n
    rest = list(range(lo, hi + 1))
    for s, power, p in plan.powers:
        start = -lo % power
        if start >= n:
            continue
        fill = [s] * len(range(start, n, power))
        S[start::power] = fill
        if power == p:
            P[start::p] = fill
        rest[start::power] = map(floordiv, rest[start::power], repeat(p))
    S = [r if r > s else s for r, s in zip(rest, S)]
    P = [r if r > 1 else p for r, p in zip(rest, P)]
    return S, P


def _factorial_threshold(x: int) -> tuple[int, list[int]]:
    """Smallest t with t! > x^2, plus the factorial table below it.

    Any q <= x with S(q) >= t automatically satisfies q^2 < S(q)!, so the
    big-integer comparison is only needed for small S.
    """
    limit = x * x
    facts = [1]
    while facts[-1] <= limit:
        facts.append(facts[-1] * len(facts))
    return len(facts) - 1, facts


def _scan_block(
    lo: int, hi: int, plan: KempnerPlan, threshold: int, facts: list[int], writer=None
):
    """Counts and capped offender lists for q in [lo, hi]; with a csv writer,
    also one row per q."""
    S, P = kempner_range(lo, hi, plan)
    qs = range(lo, hi + 1)
    neq = list(map(ne, S, P))
    # q^2 >= P(q)! needs P(q) < threshold, and so does q^2 >= S(q)! since
    # P(q) <= S(q); few q per block have so small a P(q).
    small = [
        (q, S[q - lo], P[q - lo]) for q in compress(qs, map(gt, repeat(threshold), P))
    ]
    fail_c1 = [q for q, s, _ in small if s < threshold and q * q >= facts[s]]
    count_c1p = sum(q * q >= facts[p] for q, _, p in small)
    if writer is not None:
        fails = set(fail_c1)
        writer.writerows(
            zip(qs, S, P, map(int, neq), map(int, map(fails.__contains__, qs)))
        )
    return (
        neq.count(True),
        len(fail_c1),
        count_c1p,
        list(islice(compress(qs, neq), EXCEPTIONS_CAP)),
        fail_c1[:EXCEPTIONS_CAP],
    )


_WORKER_STATE: dict = {}


def _init_worker(x: int) -> None:
    _WORKER_STATE["plan"] = kempner_plan(x)
    _WORKER_STATE["threshold"], _WORKER_STATE["facts"] = _factorial_threshold(x)


def _scan_block_worker(bounds: tuple[int, int]):
    lo, hi = bounds
    state = _WORKER_STATE
    return _scan_block(lo, hi, state["plan"], state["threshold"], state["facts"])


def density_report(
    x: int,
    workers: int = 1,
    csv_path: str | None = None,
) -> DensityReport:
    """Exact exception counts over q in [2, x].

    MAX_SCAN_ENTRIES bounds the scan size x + 1, whatever the worker count: a
    block holds BLOCK_SIZE entries and the plan O(sqrt(x)), so no process
    holds a table of x entries. With workers > 1 the blocks run in separate
    processes, each with its own plan. The merged result is byte-identical
    to the serial one. The pool starts every worker at once, so workers is
    clamped to the number of blocks and of CPUs.
    csv_path, if given, receives one row per q with its S/P values and flags,
    written as each block is scanned; CSV runs use one process.
    """
    if x < 2:
        raise ValueError("density_report requires x >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if x + 1 > MAX_SCAN_ENTRIES:
        raise ResourceError(
            f"scan of {x + 1} entries exceeds budget of {MAX_SCAN_ENTRIES}"
        )
    blocks = [
        (lo, min(lo + BLOCK_SIZE - 1, x)) for lo in range(2, x + 1, BLOCK_SIZE)
    ]
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    pooled = workers > 1 and csv_path is None
    if pooled:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(x,)
        ) as pool:
            results = list(pool.map(_scan_block_worker, blocks))
    else:
        plan = kempner_plan(x)
        threshold, facts = _factorial_threshold(x)
        sink = nullcontext() if csv_path is None else open(csv_path, "w", newline="")
        with sink as handle:
            writer = None if handle is None else csv.writer(handle)
            if writer is not None:
                writer.writerow(["q", "S", "P", "S_neq_P", "conj1_fail"])
            results = [
                _scan_block(lo, hi, plan, threshold, facts, writer) for lo, hi in blocks
            ]

    sp, c1, c1p, sample_sp, sample_c1 = zip(*results)
    count_sp, count_c1 = sum(sp), sum(c1)
    return DensityReport(
        x=x,
        count_S_neq_P=count_sp,
        count_conjecture1_fail=count_c1,
        count_conjecture1_fail_P=sum(c1p),
        ratio_S_neq_P=truncate_decimal(Fraction(count_sp, x), 8),
        ratio_conjecture1_fail=truncate_decimal(Fraction(count_c1, x), 8),
        exceptions_S_neq_P=list(islice(chain(*sample_sp), EXCEPTIONS_CAP)),
        exceptions_conjecture1=list(islice(chain(*sample_c1), EXCEPTIONS_CAP)),
    )
