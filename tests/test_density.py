import bisect
import concurrent.futures
import csv
import io
import math
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import ne

import pytest
from hypothesis import given, settings, strategies as st

from emeasure import density, kempner
from emeasure.density import (
    DensityReport,
    ResourceError,
    conjecture1_counts,
    density_report,
    kempner_plan,
    kempner_range,
)
from emeasure.kempner import kempner_prime_power, kempner_S, largest_prime_factor
from emeasure.rationals import truncate_decimal


def spf_table(x: int) -> list[int]:
    """Oracle: spf[q] = least prime dividing q, for 0 <= q <= x."""
    spf = list(range(x + 1))
    spf[0] = spf[1] = 0
    for p in range(2, math.isqrt(x) + 1):
        if spf[p] == p:
            for multiple in range(p * p, x + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def spf_walk(lo: int, hi: int, spf: list[int]) -> tuple[list[int], list[int]]:
    """Oracle: S(q) and P(q) for q = lo .. hi by factoring each q with the
    spf table, an algorithm that shares nothing with the segmented kernel."""
    S, P = [], []
    for q in range(lo, hi + 1):
        s = 0
        while q > 1:
            p, e = spf[q], 0
            while q % p == 0:
                q //= p
                e += 1
            s = max(s, kempner_prime_power(p, e))
        S.append(s)
        P.append(p)
    return S, P


def factorials_past_square(x: int) -> list[int]:
    """0!, 1!, ..., up to the first factorial above x^2."""
    facts = [1]
    while facts[-1] <= x * x:
        facts.append(facts[-1] * len(facts))
    return facts


def smooth_walk(x: int, primes: list[int]):
    """Oracle: (q, S(q), P(q)) for every q in [2, x] whose primes all lie in
    the ascending list primes, each once, in no order, by a walk that
    appends prime powers in ascending prime order."""
    # (r^b, S(r^b)) for each prime r and each of its powers up to x
    table = []
    for r in primes:
        row, rb, b = [], r, 1
        while rb <= x:
            row.append((rb, kempner._kempner_prime_power(r, b)))
            rb, b = rb * r, b + 1
        table.append(row)
    stack = [(1, 1, 1, 0)]
    while stack:
        q, s, p, j = stack.pop()
        if q > 1:
            yield q, s, p
        lim = x // q
        for k in range(j, len(primes)):
            for rb, t in table[k]:
                if rb > lim:
                    break
                stack.append((q * rb, t if t > s else s, primes[k], k + 1))


def walk_conjecture1(x: int) -> tuple[int, int, list[int]]:
    """Oracle: the q^2 >= S(q)! and q^2 >= P(q)! counts over [2, x], and
    the sorted q^2 >= S(q)! exceptions, from a walk over every q whose
    primes are all below t, the smallest t with t! > x^2: P(q) >= t gives
    q^2 < t! <= P(q)! <= S(q)!."""
    facts = factorials_past_square(x)
    t = len(facts) - 1
    primes = [r for r in range(2, t) if largest_prime_factor(r) == r]
    count_P, fails = 0, []
    for q, s, p in smooth_walk(x, primes):
        if q * q >= facts[p]:
            count_P += 1
            if s < t and q * q >= facts[s]:
                fails.append(q)
    return len(fails), count_P, sorted(fails)


def block_tally(x: int) -> DensityReport:
    """Oracle: the report from a scan of every q in [2, x], block by block
    with kempner_range, instead of an enumeration of the exceptions."""
    plan = kempner_plan(x)
    facts = factorials_past_square(x)
    neq, fail, count_fail_P = [], [], 0
    for lo in range(2, x + 1, density.BLOCK_SIZE):
        hi = min(lo + density.BLOCK_SIZE - 1, x)
        S, P = kempner_range(lo, hi, plan)
        qs = range(lo, hi + 1)
        neq += compress(qs, map(ne, S, P))
        for q, s, p in zip(qs, S, P):
            if p < len(facts) and q * q >= facts[p]:
                count_fail_P += 1
                if s < len(facts) and q * q >= facts[s]:
                    fail.append(q)
    return DensityReport(
        x=x,
        count_S_neq_P=len(neq),
        count_conjecture1_fail=len(fail),
        count_conjecture1_fail_P=count_fail_P,
        ratio_S_neq_P=truncate_decimal(Fraction(len(neq), x), 8),
        ratio_conjecture1_fail=truncate_decimal(Fraction(len(fail), x), 8),
        exceptions_S_neq_P=neq[: density.EXCEPTIONS_CAP],
        exceptions_conjecture1=fail[: density.EXCEPTIONS_CAP],
    )


def test_batch_agrees_with_pointwise():
    plan = kempner_plan(20_000)
    S, P = kempner_range(2, 10_000, plan)
    for q, s, p in zip(range(2, 10_001), S, P):
        assert s == kempner_S(q)
        assert p == largest_prime_factor(q)
    # A range that starts mid-plan, as every block after the first does.
    rng = random.Random(7)
    lo = rng.randrange(10_001, 19_000)
    S, P = kempner_range(lo, 20_000, plan)
    assert S == [kempner_S(q) for q in range(lo, 20_001)]
    assert P == [largest_prime_factor(q) for q in range(lo, 20_001)]


def test_batch_first_values():
    S, P = kempner_range(2, 10, kempner_plan(10))
    assert S == [2, 3, 4, 5, 3, 7, 4, 6, 5]
    assert P == [2, 3, 2, 5, 3, 7, 2, 3, 5]


@pytest.mark.parametrize("lo, hi", [(2, 11), (1, 10), (9, 11), (5, 4), (10**30, -1)])
def test_range_outside_plan_rejected(lo, hi):
    with pytest.raises(ValueError):
        kempner_range(lo, hi, kempner_plan(10))


@given(st.data())
def test_kernel_agrees_with_pointwise(data):
    x = data.draw(st.integers(min_value=2, max_value=2 * 10**5))
    lo = data.draw(st.integers(min_value=2, max_value=x))
    hi = data.draw(st.integers(min_value=lo, max_value=min(x, lo + 300)))
    S, P = kempner_range(lo, hi, kempner_plan(x))
    assert S == [kempner_S(q) for q in range(lo, hi + 1)]
    assert P == [largest_prime_factor(q) for q in range(lo, hi + 1)]


@pytest.mark.parametrize(
    "x",
    [113**2, 113**2 - 1, 113 * 127, 2 * density.BLOCK_SIZE + 100],
    ids=["square", "square-minus-one", "largest-base-prime-times-next", "three-blocks"],
)
def test_kernel_agrees_with_spf_oracle(x):
    # 113 is a base prime of 113^2 but not of 113^2 - 1, whose multiples of
    # 113 then carry it as their one factor above isqrt(x).
    plan, spf = kempner_plan(x), spf_table(x)
    for lo in range(2, x + 1, density.BLOCK_SIZE):
        hi = min(lo + density.BLOCK_SIZE - 1, x)
        assert kempner_range(lo, hi, plan) == spf_walk(lo, hi, spf)


def test_range_past_one_block_is_refused_before_it_is_built():
    plan = kempner_plan(density.BLOCK_SIZE + 2)
    S, P = kempner_range(2, density.BLOCK_SIZE + 1, plan)
    assert len(S) == len(P) == density.BLOCK_SIZE
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="BLOCK_SIZE"):
            kempner_range(2, density.BLOCK_SIZE + 2, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One list of BLOCK_SIZE entries alone is 8 bytes a slot.
    assert peak < density.BLOCK_SIZE


def test_largest_base_prime_and_next_prime():
    # isqrt(113 * 127) = 119: 113 is the largest base prime and 127 the
    # smallest prime above isqrt(x).
    plan = kempner_plan(113 * 127)
    assert kempner_range(113**2, 113**2, plan) == ([226], [113])
    assert kempner_range(113 * 127, 113 * 127, plan) == ([127], [127])


def test_range_across_block_boundary():
    lo, hi = density.BLOCK_SIZE - 40, density.BLOCK_SIZE + 40
    S, P = kempner_range(lo, hi, kempner_plan(2 * density.BLOCK_SIZE))
    assert S == [kempner_S(q) for q in range(lo, hi + 1)]
    assert P == [largest_prime_factor(q) for q in range(lo, hi + 1)]


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


@pytest.mark.parametrize(
    "x",
    [2, 3, 4, 5, 8, 9, 100, 113**2 - 1, 113**2, 113 * 127]
    + [2 * density.BLOCK_SIZE + 100, 10**6],
)
def test_report_agrees_with_block_tally(x):
    # Below 4 the plan has no square prime power, so there is no S != P.
    assert density_report(x) == block_tally(x)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=2 * 10**5))
def test_report_agrees_with_block_tally_drawn(x):
    assert density_report(x) == block_tally(x)


@pytest.mark.parametrize(
    "x",
    [23**3, 47**3, 7**3 * 5**2, 2**10 * 5**2],
    ids=["p-leaf-of-p^2", "p-leaf-of-p^2-larger", "root-5-under-7^3", "root-5-under-2^10"],
)
def test_leaf_count_edges(x):
    # At x = p^3 the node p^2 has x // p^2 = p, so p lies among its leaves,
    # the primes above isqrt(p), and must not be counted. At x = q * 5^2
    # with S(5^2) < S(q), isqrt(x // q) = 5 is prime and q * 5^2 = x is an
    # exception below q * 5, so 5 must be visited, not counted as a leaf.
    # Each x has a square prime power above x / 2, a node with x // q = 1.
    assert density_report(x) == block_tally(x)


def test_sample_past_one_block(monkeypatch):
    # 300 exceptions reach past the first block of the sample scan.
    monkeypatch.setattr(density, "EXCEPTIONS_CAP", 300)
    report = density_report(10**5)
    assert len(report.exceptions_S_neq_P) == 300
    assert report.exceptions_S_neq_P[-1] > density._SAMPLE_BLOCK
    assert report == block_tally(10**5)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=10**7))
def test_conjecture1_counts_equal_the_walk_drawn(x):
    assert conjecture1_counts(x) == walk_conjecture1(x)[:2]


def test_conjecture1_counts_equal_the_walk_at_ten_to_the_ten():
    # The walk visits 160 625 smooth q here; the counts visit none.
    assert conjecture1_counts(10**10) == walk_conjecture1(10**10)[:2] == (12_568, 128_645)


@pytest.mark.parametrize(
    "x, counts",
    [
        (10**12, (45_279, 622_789)),
        (10**15, (205_460, 3_984_898)),
        (10**18, (1_001_093, 40_610_733)),
        (10**18 - 1, (1_001_093, 40_610_732)),
    ],
)
def test_conjecture1_counts_pinned(x, counts):
    # walk_conjecture1 gives the same counts at 10^12, 10^15 and 10^18, in
    # about 0.7 s, 3 s and 44 s.
    # q = 10^18 = 2^18 * 5^18 fails q^2 >= P(q)! (P = 5) but not
    # q^2 >= S(q)! (S = 75, above t = 33), so only the P-count drops by one.
    assert conjecture1_counts(x) == counts


@pytest.mark.parametrize("s", range(1, 13))
def test_divisor_count_equals_enumeration(s):
    # Oracle: the divisors of s! by trial division up to sqrt(s!).
    n = math.factorial(s)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = sorted(set(small + [n // d for d in small]))
    ys = {0, 1, n, n + 1, 10**30} | {d + e for d in divisors for e in (-1, 0)}
    for y in sorted(ys):
        assert density._count_divisors(s, y) == bisect.bisect_right(divisors, y), y


@cache
def largest_primes_to(n: int) -> list[int]:
    """P(m) for 0 <= m <= n from the spf table, with P(0) = P(1) = 1."""
    spf, P = spf_table(n), [1, 1]
    for m in range(2, n + 1):
        P.append(max(spf[m], P[m // spf[m]]))
    return P


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**5), st.sampled_from([2, 3, 5, 7, 13, 31, 97]))
def test_smooth_count_equals_brute_force(y, r):
    P = largest_primes_to(10**5)
    assert density._count_smooth(r, y) == sum(1 for m in range(1, y + 1) if P[m] <= r)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=400))
def test_conjecture1_sample_equals_the_walk(x, cap):
    # The sample stops once cap are found and L_s passes the cap-th. For
    # x >= 4536 the 100 smallest end at 4536, with S(q) <= 10; at x = 10^6
    # the 400 smallest end at 147 420, with S(q) <= 13.
    default = density.EXCEPTIONS_CAP
    density.EXCEPTIONS_CAP = cap
    try:
        report = density_report(x)
    finally:
        density.EXCEPTIONS_CAP = default
    assert report.exceptions_conjecture1 == walk_conjecture1(x)[2][:cap]


def test_conjecture1_sample_at_every_cap(monkeypatch):
    # Few caps tell a stop rule that compares L_s with the (cap - 1)-th
    # smallest from the right one: at x = 10^5 only 112 and 300 of the 338.
    x = 10**5
    fails = walk_conjecture1(x)[2]
    t, facts = density._factorial_threshold(x)
    for cap in range(1, len(fails) + 2):
        monkeypatch.setattr(density, "EXCEPTIONS_CAP", cap)
        assert density._smallest_conjecture1(x, t, facts) == fails[:cap], cap


def test_conjecture1_budget_is_checked_before_any_work(monkeypatch):
    # x = 10^18 is the last x the budget allows; past it the refusal comes
    # before the factorials, the primes or any count.
    def no_work(*args):
        raise AssertionError("worked on an x past the budget")

    monkeypatch.setattr(density, "_factorial_threshold", no_work)
    monkeypatch.setattr(density, "_count_products", no_work)
    for x in (10**18 + 1, 10**30, 10**5000):
        with pytest.raises(ResourceError, match=f"MAX_CONJECTURE1_X = {10**18}$"):
            conjecture1_counts(x)
    monkeypatch.undo()
    monkeypatch.setattr(density, "MAX_CONJECTURE1_X", 10**6)
    assert conjecture1_counts(10**6) == walk_conjecture1(10**6)[:2]
    with pytest.raises(ResourceError):
        conjecture1_counts(10**6 + 1)


def test_smooth_walk_computes_each_prime_power_once(monkeypatch):
    # At x = 2 000 500 the q whose primes are all <= 13 number 5 119, but
    # only 60 powers r^b <= x of those primes occur among them.
    calls, uncounted = [], kempner._kempner_prime_power

    def counted(r, b):
        calls.append((r, b))
        return uncounted(r, b)

    monkeypatch.setattr(kempner, "_kempner_prime_power", counted)
    walked = list(smooth_walk(2_000_500, [2, 3, 5, 7, 11, 13]))
    assert len(walked) == 5_119
    assert len(calls) <= 60
    assert walked == [(q, kempner_S(q), largest_prime_factor(q)) for q, _, _ in walked]


@pytest.mark.parametrize(
    "x, counts",
    [(10**7, (67_252, 1_642, 7_546)), (99_999_999, (342_862, 3_284, 19_654))],
)
def test_pinned_counts(x, counts):
    # Counts of a full block scan at these x, pinned since the scan takes
    # seconds to minutes there.
    report = density_report(x)
    assert (
        report.count_S_neq_P,
        report.count_conjecture1_fail,
        report.count_conjecture1_fail_P,
    ) == counts


def _no_pool(*args, **kwargs):
    raise AssertionError("density_report started a process pool")


@pytest.mark.parametrize("over", [0, 1], ids=["fits", "one-over"])
def test_scan_budget_counted_once(monkeypatch, over):
    # The budget bounds the scan size x + 1, and the report starts no process.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    x = density.BLOCK_SIZE + 300
    monkeypatch.setattr(density, "MAX_SCAN_ENTRIES", x + 1 - over)
    if over:
        with pytest.raises(ResourceError):
            density_report(x)
    else:
        assert density_report(x).x == x


def test_plan_carries_the_scan_budget(monkeypatch):
    # x + 1 = 10^8 is the last scan the budget allows; one more is refused
    # before the sieve runs.
    plan = kempner_plan(10**8 - 1)
    assert plan.x == 10**8 - 1

    def fail_to_sieve(n):
        raise AssertionError("sieved for a plan past the budget")

    monkeypatch.setattr(density, "_primes_upto", fail_to_sieve)
    with pytest.raises(ResourceError, match="scan of 100000001 entries"):
        kempner_plan(10**8)


def test_scan_memory_independent_of_x():
    # The report holds an O(sqrt(x)) plan, the S != P walk's O(sqrt(x))
    # tables of primes and pi(y), and the conjecture-1 counts' products of
    # the primes below t, never a table or a block of x entries: at
    # x = 10^7 its peak (0.35 MiB) stays below 1 MiB, which one
    # kempner_range block exceeds.
    tracemalloc.start()
    try:
        density_report(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_csv_across_a_block_edge(tmp_path):
    # x = BLOCK_SIZE + 2 is the first q of a second block, which writes one row.
    x = density.BLOCK_SIZE + 2
    path = tmp_path / "edge.csv"
    density_report(x, csv_path=str(path))
    with open(path) as handle:
        rows = list(csv.reader(handle))[1:]
    assert len(rows) == 65_537
    assert rows[-1][0] == "65538"


def test_csv_is_the_csv_writer_text(tmp_path):
    # Oracle: csv.writer over the spf table's values, with q^2 >= S(q)! tested on
    # math.factorial (20! > 10^10 >= q^2, so a larger S(q) never fails).
    x = 10**5
    path = tmp_path / "rows.csv"
    density_report(x, csv_path=str(path))
    S, P = spf_walk(2, x, spf_table(x))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["q", "S", "P", "S_neq_P", "conj1_fail"])
    for q, s, p in zip(range(2, x + 1), S, P):
        writer.writerow([q, s, p, int(s != p), int(q * q >= math.factorial(min(s, 20)))])
    assert path.read_bytes() == out.getvalue().encode()


def test_csv_replaces_target_atomically(tmp_path, monkeypatch):
    # A failure mid-write leaves the old file and no temporary file; a
    # finished write replaces the file whole.
    target = tmp_path / "exceptions.csv"
    target.write_text("old\n")
    x = density.BLOCK_SIZE + 300

    def failing_range(lo, hi, plan):
        if lo > density.BLOCK_SIZE:  # the CSV's second block
            raise RuntimeError("disk gone")
        return kempner_range(lo, hi, plan)

    monkeypatch.setattr(density, "kempner_range", failing_range)
    with pytest.raises(RuntimeError):
        density_report(x, csv_path=str(target))
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["exceptions.csv"]

    monkeypatch.undo()
    density_report(x, csv_path=str(target))
    with open(target) as handle:
        assert sum(1 for _ in handle) == x
    assert [p.name for p in tmp_path.iterdir()] == ["exceptions.csv"]
