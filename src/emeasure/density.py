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

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .kempner import Factorization, KempnerResult, kempner_prime_power

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


def factorize_with_spf(q: int, spf: list[int]) -> Factorization:
    """Factorization of q >= 2 by walking the spf table."""
    factors: Factorization = []
    while q > 1:
        p = spf[q]
        e = 0
        while q % p == 0:
            e += 1
            q //= p
        factors.append((p, e))
    return factors


def batch_kempner(x: int, spf: list[int] | None = None):
    """Yield KempnerResult for q = 2 .. x, identical to the pointwise API."""
    if x < 2:
        raise ValueError("batch_kempner requires x >= 2")
    if spf is None:
        spf = sieve_smallest_prime_factor(x)
    cache: dict[tuple[int, int], int] = {}
    for q in range(2, x + 1):
        factors = factorize_with_spf(q, spf)
        s = 0
        for p, e in factors:
            if e == 1:
                k = p
            else:
                key = (p, e)
                k = cache.get(key)
                if k is None:
                    k = cache[key] = kempner_prime_power(p, e)
            if k > s:
                s = k
        yield KempnerResult(q=q, s=s, p=factors[-1][0], factorization=factors)


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


def _scan_block(lo: int, hi: int, spf: list[int], threshold: int, facts: list[int]):
    """Counts and capped offender lists for q in [lo, hi]."""
    count_sp = count_c1 = count_c1p = 0
    sample_sp: list[int] = []
    sample_c1: list[int] = []
    cache: dict[tuple[int, int], int] = {}
    for q in range(lo, hi + 1):
        factors = factorize_with_spf(q, spf)
        s = 0
        for p, e in factors:
            if e == 1:
                k = p
            else:
                key = (p, e)
                k = cache.get(key)
                if k is None:
                    k = cache[key] = kempner_prime_power(p, e)
            if k > s:
                s = k
        biggest = factors[-1][0]
        if s != biggest:
            count_sp += 1
            if len(sample_sp) < EXCEPTIONS_CAP:
                sample_sp.append(q)
        if s < threshold and q * q >= facts[s]:
            count_c1 += 1
            if len(sample_c1) < EXCEPTIONS_CAP:
                sample_c1.append(q)
        if biggest < threshold and q * q >= facts[biggest]:
            count_c1p += 1
    return count_sp, count_c1, count_c1p, sample_sp, sample_c1


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

    With workers > 1 the blocks run in separate processes (each builds its
    own sieve); the merged result is byte-identical to the serial one. The
    pool starts every worker at once, so workers is clamped to the number of
    blocks and of CPUs. csv_path, if given, receives one row per q with its
    S/P values and flags.
    """
    if x < 2:
        raise ValueError("density_report requires x >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if x + 1 > max_entries:
        raise ResourceError(f"sieve of {x + 1} entries exceeds {max_entries}")
    blocks = [
        (lo, min(lo + BLOCK_SIZE - 1, x)) for lo in range(2, x + 1, BLOCK_SIZE)
    ]
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    if workers > 1 and csv_path is None:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(x,)
        ) as pool:
            results = list(pool.map(_scan_block_worker, blocks))
    else:
        spf = sieve_smallest_prime_factor(x, max_entries=max_entries)
        threshold, facts = _factorial_threshold(x)
        results = [_scan_block(lo, hi, spf, threshold, facts) for lo, hi in blocks]
        if csv_path is not None:
            _write_csv(csv_path, x, spf, threshold, facts)

    count_sp = sum(r[0] for r in results)
    count_c1 = sum(r[1] for r in results)
    count_c1p = sum(r[2] for r in results)
    sample_sp: list[int] = []
    sample_c1: list[int] = []
    for r in results:
        sample_sp.extend(r[3][: EXCEPTIONS_CAP - len(sample_sp)])
        sample_c1.extend(r[4][: EXCEPTIONS_CAP - len(sample_c1)])
    return DensityReport(
        x=x,
        count_S_neq_P=count_sp,
        count_conjecture1_fail=count_c1,
        count_conjecture1_fail_P=count_c1p,
        ratio_S_neq_P=_ratio(count_sp, x),
        ratio_conjecture1_fail=_ratio(count_c1, x),
        exceptions_S_neq_P=sample_sp,
        exceptions_conjecture1=sample_c1,
    )


def _ratio(count: int, x: int, digits: int = 8) -> str:
    scaled = count * 10**digits // x
    return f"{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"


def _write_csv(path: str, x: int, spf, threshold: int, facts: list[int]) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["q", "S", "P", "S_neq_P", "conj1_fail"])
        for result in batch_kempner(x, spf):
            conj1_fail = result.s < threshold and result.q**2 >= facts[result.s]
            writer.writerow(
                [result.q, result.s, result.p, int(result.s != result.p), int(conj1_fail)]
            )
