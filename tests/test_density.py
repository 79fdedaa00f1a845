import csv
import math
import random

import pytest

from emeasure import density
from emeasure.density import (
    ResourceError,
    density_report,
    kempner_range,
    sieve_smallest_prime_factor,
)
from emeasure.kempner import kempner_S, largest_prime_factor


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


def test_batch_agrees_with_pointwise():
    spf = sieve_smallest_prime_factor(20_000)
    S, P = kempner_range(2, 10_000, spf)
    for q, s, p in zip(range(2, 10_001), S, P):
        assert s == kempner_S(q)
        assert p == largest_prime_factor(q)
    # A range that starts mid-table, as every block after the first does.
    rng = random.Random(7)
    lo = rng.randrange(10_001, 19_000)
    S, P = kempner_range(lo, 20_000, spf)
    assert S == [kempner_S(q) for q in range(lo, 20_001)]
    assert P == [largest_prime_factor(q) for q in range(lo, 20_001)]


def test_batch_first_values():
    S, P = kempner_range(2, 10, sieve_smallest_prime_factor(10))
    assert S == [2, 3, 4, 5, 3, 7, 4, 6, 5]
    assert P == [2, 3, 2, 5, 3, 7, 2, 3, 5]
    with pytest.raises(ValueError):
        kempner_range(2, 11, sieve_smallest_prime_factor(10))


def test_smallest_exceptions():
    report = density_report(100)
    assert report.exceptions_S_neq_P[0] == 4
    assert report.exceptions_conjecture1[0] == 2
    assert 4 not in report.exceptions_conjecture1


def test_counts_against_direct_recount():
    report = density_report(3000)
    direct_sp = direct_c1 = direct_c1p = 0
    for q in range(2, 3001):
        s, p = kempner_S(q), largest_prime_factor(q)
        if s != p:
            direct_sp += 1
        if q * q >= math.factorial(s):
            direct_c1 += 1
        if q * q >= math.factorial(p):
            direct_c1p += 1
    assert report.count_S_neq_P == direct_sp
    assert report.count_conjecture1_fail == direct_c1
    assert report.count_conjecture1_fail_P == direct_c1p


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


@pytest.mark.parametrize(
    "workers, budget, fits",
    [
        (2, lambda x: 2 * (x + 1) - 1, False),
        (2, lambda x: 2 * (x + 1), True),
        (1, lambda x: x + 1, True),
    ],
    ids=["two-sieves-short-by-one", "two-sieves", "one-sieve"],
)
def test_sieve_budget_counts_every_worker(monkeypatch, workers, budget, fits):
    # Each pool worker builds its own (x + 1)-entry sieve. No process is
    # started: the pool runs its blocks in this process.
    monkeypatch.setattr(density, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(density, "_WORKER_STATE", {})
    monkeypatch.setattr(density.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InProcessPool, "requested", [])
    x = density.BLOCK_SIZE + 300
    if fits:
        report = density_report(x, workers=workers, max_entries=budget(x))
        assert report == density_report(x)
    else:
        with pytest.raises(ResourceError):
            density_report(x, workers=workers, max_entries=budget(x))
    assert _InProcessPool.requested == ([2] if workers == 2 and fits else [])


def test_csv_export(tmp_path):
    # x spans two blocks, so rows are written by more than one block scan.
    x = density.BLOCK_SIZE + 300
    path = tmp_path / "exceptions.csv"
    report = density_report(x, csv_path=str(path))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert [int(r["q"]) for r in rows] == list(range(2, x + 1))
    assert sum(int(r["S_neq_P"]) for r in rows) == report.count_S_neq_P
    assert sum(int(r["conj1_fail"]) for r in rows) == report.count_conjecture1_fail
    flagged = [int(r["q"]) for r in rows if r["S_neq_P"] == "1"]
    assert flagged[: len(report.exceptions_S_neq_P)] == report.exceptions_S_neq_P
    row6 = next(r for r in rows if r["q"] == "6")
    assert (row6["S"], row6["P"]) == ("3", "3")
