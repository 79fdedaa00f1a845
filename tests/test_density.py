import csv
import math
import random

import pytest

from emeasure import density
from emeasure.density import (
    ResourceError,
    batch_kempner,
    density_report,
    factorize_with_spf,
    sieve_smallest_prime_factor,
)
from emeasure.kempner import factorize, kempner_S, largest_prime_factor


def test_spf_small_table():
    spf = sieve_smallest_prime_factor(10)
    assert spf[2:] == [2, 3, 2, 5, 2, 7, 2, 3, 2]
    assert spf[0] == spf[1] == 0


def test_spf_spot_values():
    spf = sieve_smallest_prime_factor(5000)
    assert spf[97] == 97
    assert spf[4000] == 2
    assert spf[4999] == 4999  # prime


def test_spf_budget():
    with pytest.raises(ResourceError):
        sieve_smallest_prime_factor(10**6, max_entries=1000)


def test_factorize_with_spf_matches_trial_division():
    spf = sieve_smallest_prime_factor(20_000)
    for q in range(2, 2000):
        assert factorize_with_spf(q, spf) == factorize(q)
    rng = random.Random(7)
    for q in rng.sample(range(2, 20_001), 500):
        assert factorize_with_spf(q, spf) == factorize(q)


def test_batch_agrees_with_pointwise():
    for result in batch_kempner(10_000):
        assert result.s == kempner_S(result.q)
        assert result.p == largest_prime_factor(result.q)


def test_batch_first_values():
    rows = {r.q: r for r in batch_kempner(10)}
    assert (rows[4].s, rows[4].p) == (4, 2)
    assert (rows[8].s, rows[8].p) == (4, 2)
    assert (rows[6].s, rows[6].p) == (3, 3)


def test_smallest_exceptions():
    report = density_report(100)
    assert report.exceptions_S_neq_P[0] == 4
    assert report.exceptions_conjecture1[0] == 2
    assert 4 not in report.exceptions_conjecture1


def test_counts_against_direct_recount():
    report = density_report(3000)
    direct_sp = direct_c1 = 0
    for q in range(2, 3001):
        s = kempner_S(q)
        if s != largest_prime_factor(q):
            direct_sp += 1
        if q * q >= math.factorial(s):
            direct_c1 += 1
    assert report.count_S_neq_P == direct_sp
    assert report.count_conjecture1_fail == direct_c1


def test_ratios_shrink():
    small = density_report(1000)
    large = density_report(100_000)
    assert large.count_S_neq_P * small.x < small.count_S_neq_P * large.x
    assert large.count_conjecture1_fail * small.x < small.count_conjecture1_fail * large.x


def test_worker_counts_identical():
    for x, workers in ((200_000, 3), (10**6, 2)):
        serial = density_report(x, workers=1)
        parallel = density_report(x, workers=workers)
        assert serial == parallel


class _InProcessPool:
    """Stand-in for ProcessPoolExecutor that records max_workers and runs
    the blocks in this process, so no worker is ever started."""

    requested: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.requested.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, cpus, expected",
    [(1000, 8, [3]), (2, 8, [2]), (1000, 2, [2]), (1000, None, [])],
)
def test_worker_count_clamped(monkeypatch, workers, cpus, expected):
    # x spans 3 blocks; the pool gets min(workers, blocks, CPUs) and is not
    # used at all when that leaves one worker (os.cpu_count() may be None).
    monkeypatch.setattr(density, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(density, "_WORKER_STATE", {})
    monkeypatch.setattr(density.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InProcessPool, "requested", [])
    x = 2 * density.BLOCK_SIZE + 100
    assert density_report(x, workers=workers) == density_report(x)
    assert _InProcessPool.requested == expected


def test_csv_export(tmp_path):
    path = tmp_path / "exceptions.csv"
    report = density_report(300, csv_path=str(path))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 299
    flagged = [int(r["q"]) for r in rows if r["S_neq_P"] == "1"]
    assert flagged[: len(report.exceptions_S_neq_P)] == report.exceptions_S_neq_P
    row6 = next(r for r in rows if r["q"] == "6")
    assert (row6["S"], row6["P"]) == ("3", "3")
