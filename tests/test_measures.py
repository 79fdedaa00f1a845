import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from emeasure import kempner, measures
from emeasure.density import density_report
from emeasure.enclosure import endpoint, floor_e_times
from emeasure.kempner import kempner_S, kempner_S_naive, largest_prime_factor
from emeasure.measures import (
    check_known,
    check_prime_factor_bound,
    check_sharpness,
    check_theorem1,
    check_weak_prime,
    compare_bounds,
    corollary2_scan,
    factorial_square_boundary,
    known_measure_bound,
    nearest_p_candidates,
    prime_factor_bound,
    theorem1_bound,
    weak_prime_bound,
)
from emeasure.rationals import ResourceError, rising_product


def test_theorem1_bound_values():
    assert theorem1_bound(24) == Fraction(1, 120)
    assert theorem1_bound(6) == Fraction(1, 24)
    assert theorem1_bound(2) == Fraction(1, 6)


def largest_prime_factor_by_trial_division(q):
    largest, d = 1, 2
    while d * d <= q:
        while q % d == 0:
            largest, q = d, q // d
        d += 1
    return max(largest, q)


def test_factorial_bounds_match_oracles_up_to_3000():
    # 1/(k+1)! for k = S(q) from the literal oracle, P(q) and q, against
    # factorials built one factor at a time.
    facts = [1]
    for k in range(1, 3002):
        facts.append(facts[-1] * k)
    for q in range(2, 3001):
        assert theorem1_bound(q) == Fraction(1, facts[kempner_S_naive(q) + 1]), q
        p = largest_prime_factor_by_trial_division(q)
        assert prime_factor_bound(q) == Fraction(1, facts[p + 1]), q
        assert weak_prime_bound(q) == Fraction(1, facts[q + 1]), q


def test_theorem1_bound_rejects_q1():
    with pytest.raises(ValueError):
        theorem1_bound(1)


def test_check_theorem1_examples():
    v = check_theorem1(65, 24)
    assert v.holds and v.bound == Fraction(1, 120)
    # margin = 0.00994... - 0.00833... = 0.00161...
    assert v.margin_digits.startswith("0.0016")
    assert check_theorem1(8, 3).holds
    assert check_theorem1(3, 2).holds


def test_weak_prime_is_never_stronger():
    for q in range(2, 200):
        assert theorem1_bound(q) >= weak_prime_bound(q)
        assert check_weak_prime(1, q).bound == Fraction(1, math.factorial(q + 1))


def test_sharpness():
    for n in range(3, 13):
        assert check_sharpness(n)
    with pytest.raises(ValueError):
        check_sharpness(2)


def test_prime_factor_bound_failure_at_65_24():
    assert not check_prime_factor_bound(65, 24).holds
    assert check_theorem1(65, 24).holds


def test_prime_q_bounds_coincide():
    for q in (3, 7, 97):
        assert prime_factor_bound(q) == theorem1_bound(q)
        for p in nearest_p_candidates(q):
            assert (
                check_prime_factor_bound(p, q).holds
                == check_theorem1(p, q).holds
            )


def test_corollary2_biconditional():
    for n in range(2, 13):
        scan = corollary2_scan(n)
        assert scan["prime"] == (n in {2, 3, 5, 7, 11})
        assert scan["all_hold"] == scan["prime"]
    assert corollary2_scan(4)["witness"] == (65, 24)
    assert corollary2_scan(5)["witness"] is None
    assert corollary2_scan(2)["all_hold"]


def test_corollary2_scan_factors_nothing_past_n(monkeypatch):
    # Oracle: check_prime_factor_bound, which factors n!, on the candidates
    # N_n - 1, N_n, N_n + 1. The scan finds P(n!) among the m <= n.
    ns = [*range(2, 30), 97, 100]
    expected = []
    for n in ns:
        num, q = endpoint(n)
        fails = [p for p in (num - 1, num, num + 1) if not check_prime_factor_bound(p, q).holds]
        expected.append((all(n % d for d in range(2, n)), (fails[0], q) if fails else None))
    factorize = kempner.factorize

    def small_only(m):
        assert m <= 100, f"factorize({m})"
        return factorize(m)

    monkeypatch.setattr(kempner, "factorize", small_only)
    assert [(s["prime"], s["witness"]) for s in map(corollary2_scan, ns)] == expected


def test_floor_e_times_at_a_factorial_is_the_left_numerator():
    # corollary2_scan's candidates N_n - 1, N_n, N_n + 1 rest on this.
    for n in range(1, 61):
        assert floor_e_times(math.factorial(n)) == endpoint(n)[0]


def test_theorem1_sweep_small():
    for q in range(2, 301):
        for p in nearest_p_candidates(q):
            assert check_theorem1(p, q).holds, (p, q)


def test_known_measure_bound_integer_eps():
    assert known_measure_bound(3, Fraction(0)) == Fraction(1, 9)
    assert known_measure_bound(24, Fraction(0)) == Fraction(1, 576)
    assert known_measure_bound(2, Fraction(1)) == Fraction(1, 8)


def test_known_measure_bound_fractional_eps_is_lower_bound():
    # bound <= 1/q^(2+eps) i.e. bound^d * q^(2d+c) <= 1, checked in integers.
    for q in (2, 3, 24, 720):
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
            bound = known_measure_bound(q, eps)
            c, d = eps.numerator, eps.denominator
            assert bound.numerator**d * q ** (2 * d + c) <= bound.denominator**d
            # And not absurdly small: within a factor of 2 of the target.
            doubled = 2 * bound
            assert doubled.numerator**d * q ** (2 * d + c) > doubled.denominator**d


def test_check_known_verdict():
    assert check_known(65, 24).holds  # 1/576 < 0.00994
    # The classical measure only holds for q >= q(eps); convergents satisfy
    # the reverse inequality, so 19/7 must fail at eps = 0.
    assert not check_known(19, 7).holds


def test_compare_bounds_examples():
    assert compare_bounds(2)["conjecture1_holds_at_q"] is False  # 4 >= 2!
    assert compare_bounds(4)["conjecture1_holds_at_q"] is True  # 16 < 24
    result = compare_bounds(720, Fraction(0))
    assert result["stronger"] == "theorem1"  # 7! = 5040 < 720^2


@pytest.mark.parametrize("eps", [Fraction(-3), Fraction(-1, 2)])
def test_negative_eps_rejected(eps):
    # As in known_measure_bound: 1/q^(2+eps) with eps < 0 is no measure.
    with pytest.raises(ValueError, match="eps must be >= 0"):
        compare_bounds(5, eps)
    with pytest.raises(ValueError, match="eps must be >= 0"):
        known_measure_bound(5, eps)


def compare_bounds_oracle(q, eps):
    """compare_bounds with both factorials built in full."""
    s = kempner_S(q)
    c, d = eps.numerator, eps.denominator
    lhs = math.factorial(s + 1) ** d
    rhs = q ** (2 * d + c)
    stronger = "theorem1" if lhs < rhs else "known" if lhs > rhs else "equal_class"
    return {
        "q": q,
        "eps": eps,
        "stronger": stronger,
        "conjecture1_holds_at_q": q * q < math.factorial(s),
    }


@given(
    st.integers(min_value=2, max_value=3000),
    st.sampled_from(
        [Fraction(0), Fraction(1), Fraction(2)]
        + [Fraction(1, 2), Fraction(2, 3), Fraction(7, 5)]
    ),
)
def test_compare_bounds_matches_full_factorial_oracle(q, eps):
    assert compare_bounds(q, eps) == compare_bounds_oracle(q, eps)


# compare_bounds caps each factorial at the other side of its comparison:
# rising_product(2, n, cap) is n!, or a partial product 2*3*...*k above cap.


def capped_factorial(n, cap):
    return rising_product(2, n, cap)[1]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 12])
def test_capped_factorial_at_the_cap(n):
    fact = math.factorial(n)
    assert capped_factorial(n, fact) == fact
    assert capped_factorial(n, fact + 1) == fact
    if fact > 1:  # 0! = 1! = 1 <= any cap >= 1
        assert capped_factorial(n, fact - 1) > fact - 1


def test_capped_factorial_stops_at_the_first_product_above_the_cap():
    # The remaining factors up to 10^6 are never multiplied in.
    assert capped_factorial(10**6, 100) == 120
    assert capped_factorial(10**6, 120) == 720  # 5! is not above 5!


def test_compare_bounds_at_primes_too_large_for_their_factorial():
    # (10^9 + 8)! could never be built; the comparisons need only ~15 factors.
    result = compare_bounds(10**9 + 7)
    assert result["stronger"] == "known"
    assert result["conjecture1_holds_at_q"] is True
    result = compare_bounds(10**9 + 7, Fraction(1, 3))
    assert result["stronger"] == "known"


def fail_to_build(*args):
    raise AssertionError("built a factorial for a verdict")


# floor(e q) and the margins of the verdicts at p = floor(e q) and p + 1,
# the same under every factorial bound (as computed when each k! was built).
# 10006 = 2 * 5003 and the prime 65521 have P(q) = S(q).
FACTORIAL_BOUND_MARGINS = {
    10006: (27199, ["0.000012", "0.000087"]),
    65521: (178104, ["0.000008", "0.000006"]),
}


def test_factorial_bound_verdicts_build_no_factorial(monkeypatch):
    checks = (check_theorem1, check_prime_factor_bound, check_weak_prime)
    for q, (f, margins) in FACTORIAL_BOUND_MARGINS.items():
        assert floor_e_times(q) == f
        with monkeypatch.context() as patch:
            patch.setattr(math, "factorial", fail_to_build)
            patch.setattr(math, "perm", fail_to_build)
            verdicts = [check(p, q) for check in checks for p in (f, f + 1)]
        assert [(v.holds, v.margin_digits) for v in verdicts] == [
            (True, margin) for _ in checks for margin in margins
        ]
        # .bound builds 1/k! when it is first read, and keeps it.
        k = kempner_S(q) + 1
        assert k == largest_prime_factor(q) + 1
        assert verdicts[0].bound == Fraction(1, math.factorial(k))
        assert verdicts[0].bound is verdicts[0].bound
        assert verdicts[-1].bound == Fraction(1, math.factorial(q + 1))


def test_bound_bit_budget_edge(monkeypatch):
    # k! has fewer than k * k.bit_length() bits. Within 2^20 that allows
    # k = 2^16 - 1 (16 bits each), but not k = 2^16 (17 bits each).
    monkeypatch.setattr(math, "factorial", lambda k: k)
    assert measures._inverse_factorial(2**16 - 1) == Fraction(1, 2**16 - 1)
    with pytest.raises(ResourceError):
        measures._inverse_factorial(2**16)


@given(
    st.integers(min_value=2, max_value=60),
    st.fractions(min_value=0, max_value=3, max_denominator=400),
)
def test_compare_bounds_with_large_eps_denominators(q, eps):
    assert compare_bounds(q, eps) == compare_bounds_oracle(q, eps)


def test_conjecture1_agrees_with_density_scan():
    x = 5000
    fails = [
        q for q in range(2, x + 1) if not compare_bounds(q)["conjecture1_holds_at_q"]
    ]
    report = density_report(x)
    assert len(fails) == report.count_conjecture1_fail == 102
    assert fails[:100] == report.exceptions_conjecture1


def test_factorial_square_boundary():
    assert not factorial_square_boundary(2)
    for n in range(3, 101):
        assert factorial_square_boundary(n)
