"""Range scans of S(q) and P(q) via a smallest-prime-factor sieve, and the
counting functions behind the almost-all claims.

Two exception counters over q in [2, x]:

* S(q) != P(q)        -- exceptions to the almost-all identity S = P
* q^2 >= S(q)!        -- exceptions to the conjectured q^2 < S(q)! (and the
                         P(q)! variant is counted alongside for comparison)

Counts are exact and bit-identical regardless of worker count: the range is
cut into fixed blocks, each block is scanned independently, and partial
results merge in block order.
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
from operator import gt, ne

from .kempner import kempner_prime_power
from .rationals import truncate_decimal

BLOCK_SIZE = 1 << 16
DEFAULT_MAX_SIEVE_ENTRIES = 10**8
EXCEPTIONS_CAP = 100


class ResourceError(RuntimeError):
    """Requested sieve exceeds the configured memory budget."""


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


def sieve_smallest_prime_factor(
    x: int, max_entries: int = DEFAULT_MAX_SIEVE_ENTRIES
) -> list[int]:
    """spf[q] = least prime dividing q, for 0 <= q <= x (spf[0] = spf[1] = 0)."""
    if x < 2:
        raise ValueError("sieve requires x >= 2")
    if x + 1 > max_entries:
        raise ResourceError(
            f"sieve of {x + 1} entries exceeds budget of {max_entries}"
        )
    spf = list(range(x + 1))
    spf[0] = spf[1] = 0
    spf[4::2] = [2] * len(range(4, x + 1, 2))
    for p in range(3, math.isqrt(x) + 1, 2):
        if spf[p] == p:
            for multiple in range(p * p, x + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def kempner_range(lo: int, hi: int, spf: list[int]) -> tuple[list[int], list[int]]:
    """Lists of S(q) and of P(q) for q = lo .. hi, by walking the spf table.

    The one kernel behind every range scan; its values agree with the
    pointwise kempner_S and largest_prime_factor.
    """
    if lo < 2 or hi >= len(spf):
        raise ValueError("kempner_range requires 2 <= lo and hi within the sieve")
    S: list[int] = []
    P: list[int] = []
    cache: dict[tuple[int, int], int] = {}
    for q in range(lo, hi + 1):
        s = 0
        while q > 1:
            p = spf[q]
            q //= p
            if q % p:
                k = p
            else:
                e = 1
                while q % p == 0:
                    e += 1
                    q //= p
                k = cache.get((p, e))
                if k is None:
                    k = cache[(p, e)] = kempner_prime_power(p, e)
            if k > s:
                s = k
        S.append(s)
        P.append(p)
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
    lo: int, hi: int, spf: list[int], threshold: int, facts: list[int], writer=None
):
    """Counts and capped offender lists for q in [lo, hi]; with a csv writer,
    also one row per q."""
    S, P = kempner_range(lo, hi, spf)
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
    _WORKER_STATE["spf"] = sieve_smallest_prime_factor(x)
    _WORKER_STATE["threshold"], _WORKER_STATE["facts"] = _factorial_threshold(x)


def _scan_block_worker(bounds: tuple[int, int]):
    lo, hi = bounds
    return _scan_block(
        lo, hi, _WORKER_STATE["spf"], _WORKER_STATE["threshold"], _WORKER_STATE["facts"]
    )


def density_report(
    x: int,
    workers: int = 1,
    max_entries: int = DEFAULT_MAX_SIEVE_ENTRIES,
    csv_path: str | None = None,
) -> DensityReport:
    """Exact exception counts over q in [2, x].

    With workers > 1 the blocks run in separate processes; each builds its
    own sieve, so max_entries bounds the sum of their entries. The merged
    result is byte-identical to the serial one. The pool starts every worker
    at once, so workers is clamped to the number of blocks and of CPUs.
    csv_path, if given, receives one row per q with its S/P values and flags,
    written as each block is scanned; CSV runs use one process.
    """
    if x < 2:
        raise ValueError("density_report requires x >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    blocks = [
        (lo, min(lo + BLOCK_SIZE - 1, x)) for lo in range(2, x + 1, BLOCK_SIZE)
    ]
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    pooled = workers > 1 and csv_path is None
    sieves = workers if pooled else 1  # each pool worker builds its own sieve
    if (x + 1) * sieves > max_entries:
        raise ResourceError(f"{sieves} x {x + 1} sieve entries exceed {max_entries}")
    if pooled:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(x,)
        ) as pool:
            results = list(pool.map(_scan_block_worker, blocks))
    else:
        spf = sieve_smallest_prime_factor(x, max_entries=max_entries)
        threshold, facts = _factorial_threshold(x)
        sink = nullcontext() if csv_path is None else open(csv_path, "w", newline="")
        with sink as handle:
            writer = None if handle is None else csv.writer(handle)
            if writer is not None:
                writer.writerow(["q", "S", "P", "S_neq_P", "conj1_fail"])
            results = [
                _scan_block(lo, hi, spf, threshold, facts, writer) for lo, hi in blocks
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
