import concurrent.futures
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from emeasure import kempner
from emeasure.kempner import (
    MAX_ORACLE_Q,
    factorize,
    is_prime,
    kempner_S,
    kempner_S_naive,
    kempner_prime_power,
    kempner_result,
    largest_prime_factor,
    oracle_mismatches,
)
from emeasure.rationals import ResourceError

# Oracles, independent of kempner's own factoring.


def trial_is_prime(n):
    """Primality by trial division over every d with d^2 <= n."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def trial_factorize(n):
    """(prime, exponent) pairs of n >= 2 by dividing out every d >= 2 in turn."""
    factors, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def legendre_valuation(p, k):
    """Exponent of the prime p in k!: the sum of floor(k / p^i) (Legendre)."""
    total, power = 0, p
    while power <= k:
        total += k // power
        power *= p
    return total


def test_factorize_anchors():
    assert factorize(24) == [(2, 3), (3, 1)]
    assert factorize(6) == [(2, 1), (3, 1)]
    assert factorize(4000) == [(2, 5), (5, 3)]
    assert factorize(97) == [(97, 1)]


def test_factorize_work_limit():
    # Trial division stops at 10^6. A cofactor with no factor up to 10^6 may
    # be composite, and is refused from (10^6 + 1)^2 = 1000002000001 on:
    # 1000001999917 is the last prime below that and 1000002000007 the first
    # above it. is_prime answers where factorize does.
    assert factorize(999979 * 999983) == [(999979, 1), (999983, 1)]
    assert factorize(999999999989) == [(999999999989, 1)]
    assert factorize(1000001999917) == [(1000001999917, 1)]
    assert is_prime(1000001999917)
    for q in (1000002000007, 1000003 * 1000033, 2 * 1000003 * 1000033, 10**18 + 3):
        with pytest.raises(ResourceError, match="trial division up to 1000000"):
            factorize(q)
    with pytest.raises(ResourceError, match="trial division up to 1000000"):
        is_prime(1000002000007)


def test_is_prime_matches_trial_division():
    for n in range(-5, 20_000):
        assert is_prime(n) == trial_is_prime(n), n
    assert is_prime(2**31 - 1) and is_prime(999999999989)
    assert not is_prime(999979 * 999983)


def test_factorize_matches_trial_division_below_2e5():
    for n in range(2, 2 * 10**5):
        assert factorize(n) == trial_factorize(n), n


@pytest.mark.parametrize("n", [997**2, 997 * 1009, 1009**2, 991 * 997 * 1009, 10007**2])
def test_factorize_at_the_end_of_the_prime_table(n):
    # factorize divides by the primes below 1000, then by every odd d from
    # 1001: 997 is the last prime in the table and 1009 the first after it.
    assert factorize(n) == trial_factorize(n)


def count_trial_divisions(monkeypatch):
    """The list of q that kempner._trial_factors is called with from now on."""
    calls, trial = [], kempner._trial_factors
    monkeypatch.setattr(kempner, "_trial_factors", lambda q: calls.append(q) or trial(q))
    return calls


def test_the_table_and_trial_division_meet_at_the_edge(monkeypatch):
    # Every int q below 2^14 is read off the smallest-prime-factor table with
    # no trial division; from 2^14 on, trial division runs.
    edge = kempner._SPF_LIMIT
    assert edge == 2**14
    calls = count_trial_divisions(monkeypatch)
    below, above = range(2, edge), range(edge, edge + 1000)
    assert [factorize(q) for q in below] == [trial_factorize(q) for q in below]
    assert calls == []
    assert [factorize(q) for q in above] == [trial_factorize(q) for q in above]
    assert calls == list(above)
    # The table holds the smallest prime factor of a composite q, 0 for a prime.
    assert list(kempner._SPF[2:]) == [
        0 if trial_is_prime(q) else trial_factorize(q)[0][0] for q in below
    ]


def test_the_table_is_built_on_the_first_small_q_only():
    # Not at import, not by a density report and not past the edge: runs
    # that factor no small q never hold it.
    code = (
        "import emeasure.cli, emeasure.kempner as k;"
        " emeasure.density_report(10**4); k.factorize(2**14); a = len(k._SPF);"
        " k.factorize(6); print(a, len(k._SPF))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kempner.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0", str(2**14)]


def test_the_table_filled_by_threads_is_read_whole(monkeypatch):
    # Every thread starts at an empty table. Whichever fills it, none may
    # read it part-filled, where a composite still reads 0 and so as a prime.
    qs = range(2, 4000)
    expected = [trial_factorize(q) for q in qs]
    barrier = threading.Barrier(4)

    def answers():
        barrier.wait(timeout=60)
        return [factorize(q) for q in qs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(kempner, "_SPF", bytearray())
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(answers) for _ in range(4)]
                for future in futures:
                    assert future.result(timeout=60) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("q", [6.0, 2.0**14 + 2, True, 1, 0, -6])
def test_refusals_read_as_before_on_both_sides_of_the_edge(q):
    # A float is refused by its type and an int below 2 by its value, in the
    # words trial division used before the table; kempner_S(1) is 1 and
    # is_prime answers False for every int below 2.
    if isinstance(q, float):
        error, message = TypeError, "factorize requires an int q, not float"
    else:
        error, message = ValueError, "factorize requires q >= 2"
    for call in (factorize, largest_prime_factor, kempner_result):
        with pytest.raises(error, match=f"^{message}$"):
            call(q)
    if isinstance(q, float):
        with pytest.raises(TypeError, match="^kempner_S requires an int q, not float$"):
            kempner_S(q)
        with pytest.raises(TypeError, match="^is_prime requires an int n, not float$"):
            is_prime(q)
        return
    if q >= 1:
        assert kempner_S(q) == 1
    else:
        with pytest.raises(ValueError, match="^kempner_S requires q >= 1$"):
            kempner_S(q)
    assert is_prime(q) is False


def test_factorize_rejects_small():
    with pytest.raises(ValueError):
        factorize(1)


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_reconstructs(q):
    factors = factorize(q)
    primes = [p for p, _ in factors]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)
    assert all(trial_is_prime(p) and e >= 1 for p, e in factors)
    assert math.prod(p**e for p, e in factors) == q


def test_legendre_valuation_anchors():
    assert legendre_valuation(2, 4) == 3  # 4! = 2^3 * 3
    assert legendre_valuation(5, 4) == 0
    assert legendre_valuation(3, 6) == 2  # 6! = 2^4 * 3^2 * 5


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(min_value=0, max_value=200))
def test_legendre_matches_direct_factorization(p, k):
    fact = math.factorial(k)
    direct = 0
    while fact % p == 0:
        direct += 1
        fact //= p
    assert legendre_valuation(p, k) == direct


def test_kempner_prime_power():
    assert kempner_prime_power(7, 1) == 7
    assert kempner_prime_power(2, 3) == 4
    assert kempner_prime_power(3, 2) == 6
    # The least k whose factorial holds p at least a times, by Legendre.
    for p in filter(trial_is_prime, range(2, 51)):
        for a in range(1, 31):
            k = kempner_prime_power(p, a)
            assert legendre_valuation(p, k) >= a > legendre_valuation(p, k - 1), (p, a)


def test_kempner_S_paper_values():
    assert kempner_S(6) == 3
    assert all(kempner_S(q) == q for q in range(1, 6))
    assert kempner_S(24) == 4
    assert kempner_S(16) == 6


def test_kempner_S_of_factorials():
    for n in range(2, 13):
        assert kempner_S(math.factorial(n)) == n


def test_naive_oracle_anchors():
    assert kempner_S_naive(1) == 1
    assert kempner_S_naive(6) == 3
    assert kempner_S_naive(120) == 5


def test_naive_oracle_refuses_a_non_int_with_warm_tables():
    # Warm, the shared tables reach far enough that a float or a Fraction
    # would be walked to some answer, or to an IndexError, if it got in.
    kempner_S_naive(5000)
    for q in (6.0, Fraction(13, 2), Fraction(6), 997.0):
        with pytest.raises(TypeError, match="kempner_S_naive requires an int q"):
            kempner_S_naive(q)
    # A bool is an int.
    assert kempner_S_naive(True) == 1


def one_step_oracle(q):
    """The reference: k! mod q, one factor at a time, until it reaches 0."""
    residue = 1 % q
    k = 1
    while True:
        residue = residue * k % q
        if residue == 0:
            return k
        k += 1


def test_blocked_oracle_matches_one_step_loop():
    # S(q) = q for a prime, so the primes next to multiples of 64 (127, 191,
    # 193, ...) put the answer at either end of a block; q = 1 and 64 are in.
    for q in range(1, 3001):
        assert kempner_S_naive(q) == one_step_oracle(q), q


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=MAX_ORACLE_Q))
def test_blocked_oracle_matches_one_step_loop_anywhere(q):
    assert kempner_S_naive(q) == one_step_oracle(q)


def test_blocked_oracle_at_the_ends_of_sub_blocks():
    # S(128) = 8 and S(2^15) = 16 end a sub-block of 8 factors, S(17) = 17
    # and S(41) = 41 begin one, and S(3^10) = 24 ends the third of its block.
    for q, s in [(128, 8), (17, 17), (41, 41), (2**15, 16), (3**10, 24)]:
        assert kempner_S_naive(q) == one_step_oracle(q) == s, q


def test_blocked_oracle_factors_nothing(monkeypatch):
    expected = [one_step_oracle(q) for q in range(1, 3001)]

    def refuse(q):
        raise AssertionError(f"the oracle factored {q}")

    monkeypatch.setattr(kempner, "_factors", refuse)
    assert [kempner_S_naive(q) for q in range(1, 3001)] == expected


def test_oracle_tables_grown_by_threads_agree(monkeypatch):
    expected = [one_step_oracle(q) for q in range(1, 1001)]
    # Half the threads ask about each q in ascending order, growing the
    # tables a block at a time while the others read them; the other half
    # start at the top, growing them all at once.
    orders = [range(1, 1001), range(1000, 0, -1)] * 2
    barrier = threading.Barrier(len(orders))

    def answers(qs):
        barrier.wait(timeout=60)
        return {q: kempner_S_naive(q) for q in qs}

    class Blocks(list):
        """A block table that asserts block j's sub-blocks come first, so
        that a reader that sees block j can read them."""

        def append(self, block):
            assert len(kempner._SUBS) == 8 * (len(self) + 1)
            super().append(block)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(kempner, "_BLOCKS", Blocks())
            monkeypatch.setattr(kempner, "_SUBS", [])
            with concurrent.futures.ThreadPoolExecutor(len(orders)) as pool:
                futures = [pool.submit(answers, qs) for qs in orders]
                for future in futures:
                    got = future.result(timeout=60)
                    assert [got[q] for q in range(1, 1001)] == expected
            blocks, subs = kempner._BLOCKS, kempner._SUBS
            assert len(blocks) == 16 and len(subs) == 8 * 16
            for j, block in enumerate(blocks):
                assert block == math.prod(range(64 * j + 1, 64 * j + 65))
            for i, sub in enumerate(subs):
                assert sub == math.prod(range(8 * i + 1, 8 * i + 9))
    finally:
        sys.setswitchinterval(interval)


def test_oracle_past_its_cap_is_refused_before_any_block(monkeypatch):
    def fail_to_build(*args):
        raise AssertionError("built a block the cap should have refused")

    monkeypatch.setattr(kempner.math, "prod", fail_to_build)
    with pytest.raises(ResourceError, match="MAX_ORACLE_Q"):
        kempner_S_naive(MAX_ORACLE_Q + 1)


def test_oracle_mismatches_sweeps_every_q(monkeypatch):
    assert oracle_mismatches(500) == []
    S = kempner.kempner_S
    monkeypatch.setattr(kempner, "kempner_S", lambda q: S(q) + (q in (1, 97, 500)))
    assert oracle_mismatches(500) == [1, 97, 500]


@pytest.mark.parametrize(
    "max_q, error", [(0, ValueError), (-1, ValueError), (MAX_ORACLE_Q + 1, ResourceError)]
)
def test_oracle_range_is_refused_before_any_q(monkeypatch, max_q, error):
    def fail_to_check(q):
        raise AssertionError(f"checked q = {q} in a range that should be refused")

    monkeypatch.setattr(kempner, "kempner_S_naive", fail_to_check)
    with pytest.raises(error, match="max_q >= 1|MAX_ORACLE_Q"):
        oracle_mismatches(max_q)


def test_fast_matches_naive_to_10k():
    for q in range(1, 10_001):
        assert kempner_S(q) == kempner_S_naive(q), q


def test_divisibility_pair():
    for q in range(2, 2000):
        s = kempner_S(q)
        assert math.factorial(s) % q == 0
        assert math.factorial(s - 1) % q != 0


def test_S_bounds_and_prime_equivalence():
    for q in range(2, 10_001):
        result = kempner_result(q)
        assert result.s <= q
        assert result.s >= result.p
        assert (result.s == result.p) == trial_is_prime(result.s)


def test_largest_prime_factor():
    assert largest_prime_factor(24) == 3
    assert largest_prime_factor(97) == 97
    assert largest_prime_factor(4) == 2


def test_kempner_S_takes_no_factorization():
    # A factorization passed in was trusted: kempner_S(12, [(5, 1)]) was 5.
    with pytest.raises(TypeError):
        kempner_S(12, [(5, 1)])
    assert kempner_S(12) == 4


def test_callers_cannot_change_the_cached_factorization():
    factors = factorize(720)
    factors.append((7, 1))
    factors[0] = (3, 9)
    kempner_result(720).factorization.clear()
    assert factorize(720) == [(2, 4), (3, 2), (5, 1)]
    assert kempner_result(720).factorization == [(2, 4), (3, 2), (5, 1)]
    assert factorize(720) is not factorize(720)


def test_a_float_does_not_answer_for_its_int(monkeypatch):
    calls = count_trial_divisions(monkeypatch)
    assert factorize(16386) == [(2, 1), (3, 1), (2731, 1)]
    # 16386.0 == 16386; the memo is read for an int only, so 16386.0 never
    # answers out of it, and a refusal is not kept. kempner_S and is_prime
    # refuse it before they look.
    for call in (factorize, kempner_S, largest_prime_factor, is_prime, kempner_result):
        with pytest.raises(TypeError, match="^(factorize|kempner_S|is_prime) requires an int"):
            call(16386.0)
    assert len(calls) == 4 and kempner._LAST == (16386, ((2, 1), (3, 1), (2731, 1)))
    assert type(kempner._LAST[0]) is int


# The calls that answer without trial division refuse a float too.
def test_kempner_S_refuses_a_float_one():
    with pytest.raises(TypeError, match="^kempner_S requires an int q, not float$"):
        kempner_S(1.0)


def test_is_prime_refuses_a_float_below_two():
    with pytest.raises(TypeError, match="^is_prime requires an int n, not float$"):
        is_prime(1.5)


def test_kempner_prime_power_refuses_a_float_prime():
    with pytest.raises(TypeError, match="^kempner_prime_power requires an int p, not float$"):
        kempner_prime_power(2.0, 3)


def test_kempner_prime_power_refuses_a_float_exponent():
    # kempner_prime_power(3, 2.0) answered 6.
    with pytest.raises(TypeError, match="^kempner_prime_power requires an int a, not float$"):
        kempner_prime_power(3, 2.0)


def test_a_refusal_is_not_cached(monkeypatch):
    calls = count_trial_divisions(monkeypatch)
    last = kempner._LAST
    for _ in range(2):
        with pytest.raises(ResourceError, match="trial division up to 1000000"):
            is_prime(1000002000007)
        with pytest.raises(ValueError, match="q >= 2"):
            factorize(1)
    assert calls == [1000002000007, 1] * 2 and kempner._LAST is last
