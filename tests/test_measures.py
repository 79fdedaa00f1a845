import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from emeasure import enclosure, kempner, measures, rationals
from emeasure.density import density_report
from emeasure.enclosure import _render, endpoint, floor_e_times
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
    theorem1_bound,
)
from emeasure.rationals import ResourceError, rising_product


def nearest_p_candidates(q):
    """floor(e q) - 1, floor(e q) and floor(e q) + 1: any p that violates a
    bound below 1/(2q) gives one of these."""
    f = floor_e_times(q)
    return [f - 1, f, f + 1]


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
        assert check_prime_factor_bound(1, q).bound == Fraction(1, facts[p + 1]), q
        assert check_weak_prime(1, q).bound == Fraction(1, facts[q + 1]), q


def test_theorem1_bound_rejects_q1():
    with pytest.raises(ValueError):
        theorem1_bound(1)


@pytest.mark.parametrize("check", [check_prime_factor_bound, check_weak_prime])
def test_checks_reject_q1_by_their_own_name(check):
    with pytest.raises(ValueError, match=f"^{check.__name__} requires q >= 2$"):
        check(3, 1)


def test_check_theorem1_examples():
    v = check_theorem1(65, 24)
    assert v.holds and v.bound == Fraction(1, 120)
    # margin = 0.00994... - 0.00833... = 0.00161...
    assert v.margin_digits.startswith("0.0016")
    assert check_theorem1(8, 3).holds
    assert check_theorem1(3, 2).holds


def test_weak_prime_is_never_stronger():
    for q in range(2, 200):
        bound = check_weak_prime(1, q).bound
        assert theorem1_bound(q) >= bound
        assert bound == Fraction(1, math.factorial(q + 1))


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
        assert check_prime_factor_bound(1, q).bound == theorem1_bound(q)
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
    # Every trial division goes through kempner._factors, looked up as a
    # global at each call, so the guard sees them all, cached or not.
    factors = kempner._factors

    def small_only(m):
        assert m <= 100, f"_factors({m})"
        return factors(m)

    monkeypatch.setattr(kempner, "_factors", small_only)
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


@given(
    st.integers(min_value=2, max_value=2000),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=1, max_value=5),
    st.fractions(min_value=0, max_value=3, max_denominator=7),
)
def test_verdicts_match_the_fraction_rendering(q, offset, g, eps):
    # Oracle: the margin rendered from the reduced Fraction p/q and the
    # built bound. p/q is drawn near e and, for g > 1, not in lowest terms.
    p, q = g * (floor_e_times(q) + offset), g * q
    largest = largest_prime_factor_by_trial_division(q)
    for verdict, bound in (
        (check_theorem1(p, q), Fraction(1, math.factorial(kempner_S_naive(q) + 1))),
        (check_prime_factor_bound(p, q), Fraction(1, math.factorial(largest + 1))),
        (check_weak_prime(p, q), Fraction(1, math.factorial(q + 1))),
        (check_known(p, q, eps), known_measure_bound(q, eps)),
    ):
        r = Fraction(p, q)
        margin = _render(r.numerator, r.denominator, bound.numerator, bound.denominator, 0, 6)
        assert (verdict.p, verdict.q) == (p, q)
        assert (verdict.margin_digits, verdict.holds) == (margin, margin[0] != "-")


def test_every_verdict_holds_exactly_when_its_margin_is_not_negative():
    # holds is decided on the margin bracket's sign; margin_digits is
    # rendered apart, on first read. At q = n! the p are corollary2_scan's.
    checks = (
        check_theorem1,
        check_prime_factor_bound,
        check_weak_prime,
        check_known,
        lambda p, q: check_known(p, q, Fraction(1, 3)),
    )
    queries = [(65, 24)]
    for q in range(2, 301):
        f = floor_e_times(q)
        queries += [(p, q) for p in range(f - 1, f + 3)]
    for n in range(2, 13):
        num, q = endpoint(n)
        queries += [(p, q) for p in (num - 1, num, num + 1)]
    fails = 0
    for p, q in queries:
        for check in checks:
            verdict = check(p, q)
            assert verdict.holds == (verdict.margin_digits[0] != "-"), (p, q, verdict)
            fails += not verdict.holds
    assert fails > 100


def fail_to_render(*args):
    raise AssertionError("rendered a margin")


def test_verdicts_render_no_text(monkeypatch):
    # enclosure looks scaled_text up as its own global.
    monkeypatch.setattr(enclosure, "scaled_text", fail_to_render)
    monkeypatch.setattr(rationals, "scaled_text", fail_to_render)
    assert check_theorem1(65, 24).holds
    assert not check_prime_factor_bound(65, 24).holds
    assert corollary2_scan(4)["witness"] == (65, 24)
    assert corollary2_scan(11)["all_hold"]
    with pytest.raises(AssertionError, match="rendered a margin"):
        check_theorem1(65, 24).margin_digits


@pytest.fixture
def margins(monkeypatch):
    """Depth n of each _margin the enclosure builds, in order."""
    seen = []
    build = enclosure._margin

    def recording(*args):
        seen.append(args[-1])
        return build(*args)

    monkeypatch.setattr(enclosure, "_margin", recording)
    return seen


def test_margin_digits_is_rendered_once(margins):
    verdict = check_known(65, 24, Fraction(1, 3))
    margins.clear()
    text = verdict.margin_digits
    assert margins == [12]
    margins.clear()
    assert verdict.margin_digits is text
    assert margins == []


@pytest.mark.parametrize("p, q", [(65, 24), (27199, 10006)])
def test_a_decided_verdict_costs_one_margin(monkeypatch, margins, p, q):
    monkeypatch.setattr(enclosure, "scaled_text", fail_to_render)
    assert check_theorem1(p, q).holds
    # A verdict against 1/k! starts where a comparison would: at the first
    # n with n! >= 2^(bits + 7), bits the smaller of 1 + k bit_length(k)
    # (1 k! counted without building k!) and 2 bit_length(q). That is depth
    # 9 at 65/24 and 14 at 27199/10006.
    k = kempner_S(q) + 1
    bits = min(1 + k * k.bit_length(), 2 * q.bit_length())
    depth = next(n for n in range(1, 100) if math.factorial(n) >= 1 << (bits + 7))
    assert margins == [depth]


@pytest.mark.parametrize(
    "name, call",
    [("check_theorem1", lambda q: check_theorem1(3, q)), ("theorem1_bound", theorem1_bound)],
)
def test_theorem1_refusals_name_their_caller(name, call):
    with pytest.raises(TypeError, match=f"^{name} requires an int q, not float$"):
        call(2.0)
    with pytest.raises(ValueError, match=f"^{name} requires q >= 2$"):
        call(1)


@pytest.mark.parametrize(
    "check", [check_theorem1, check_prime_factor_bound, check_weak_prime, check_known]
)
def test_verdicts_refuse_a_float(check):
    with pytest.raises(TypeError, match=f"^{check.__name__} requires an int p, not float$"):
        check(65.0, 24)
    with pytest.raises(TypeError, match="requires an int q, not float$"):
        check(65, 24.0)


@pytest.mark.parametrize(
    "name, call",
    [
        ("known_measure_bound", lambda eps: known_measure_bound(24, eps)),
        ("compare_bounds", lambda eps: compare_bounds(24, eps)),
        ("check_known", lambda eps: check_known(65, 24, eps)),
    ],
)
def test_a_float_eps_is_refused(name, call):
    # check_known passes its eps to known_measure_bound, which refuses it.
    name = "known_measure_bound" if name == "check_known" else name
    with pytest.raises(TypeError, match=f"^{name} requires a rational eps, not float$"):
        call(0.5)


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
    with pytest.raises(ValueError, match="^compare_bounds requires eps >= 0$"):
        compare_bounds(5, eps)
    with pytest.raises(ValueError, match="^known_measure_bound requires eps >= 0$"):
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


def test_verdicts_answer_past_the_bit_budget(monkeypatch):
    # 1000004! has about 1.8e7 bits, past MAX_BOUND_BITS: each verdict is
    # decided without it, and only reading .bound is refused.
    queries = (
        (check_theorem1, 2718284, "0.000005"),
        (check_prime_factor_bound, 2718284, "0.000005"),
        (check_weak_prime, 3, "2.718278"),
    )
    with monkeypatch.context() as patch:
        patch.setattr(math, "factorial", fail_to_build)
        patch.setattr(math, "perm", fail_to_build)
        verdicts = [check(p, 1000003) for check, p, _ in queries]
        assert [(v.holds, v.margin_digits) for v in verdicts] == [
            (True, margin) for _, _, margin in queries
        ]
        for verdict in verdicts:
            with pytest.raises(ResourceError, match="MAX_BOUND_BITS"):
                verdict.bound


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


def nth_root_ceil_by_bisection(value, d):
    """The smallest r with r**d >= value, by bisection on lo**d < value <=
    hi**d."""
    lo, hi = 0, 1 << (value.bit_length() // d + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**d >= value:
            hi = mid
        else:
            lo = mid
    return hi


ROOTS = [1, 2, 3, 10, 2**26 - 1, 2**50 + 1, 2**53 - 1, 2**53 + 1, 3**100, 2**200]


@pytest.mark.parametrize("d", range(2, 13))
def test_nth_root_ceil_at_powers_and_their_neighbours(d):
    for r in ROOTS:
        for value in (r**d - 1, r**d, r**d + 1):
            if value >= 2:
                assert measures._nth_root_ceil(value, d) == nth_root_ceil_by_bisection(
                    value, d
                ), (r, d, value - r**d)


@given(
    st.integers(min_value=2, max_value=2**200),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=-1, max_value=1),
)
def test_nth_root_ceil_near_drawn_powers(r, d, offset):
    value = r**d + offset
    assert measures._nth_root_ceil(value, d) == nth_root_ceil_by_bisection(value, d)


@given(st.integers(min_value=2, max_value=2**4000), st.integers(min_value=2, max_value=12))
def test_nth_root_ceil_matches_bisection(value, d):
    assert measures._nth_root_ceil(value, d) == nth_root_ceil_by_bisection(value, d)


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


def test_one_query_factors_q_once(monkeypatch):
    # The queries a perfbench decide job asks about one q: one trial division,
    # and four answers from the memo.
    q = 720720
    calls, trial = [], kempner._trial_factors
    monkeypatch.setattr(kempner, "_trial_factors", lambda q: calls.append(q) or trial(q))
    monkeypatch.setattr(kempner, "_LAST", (None, ()))
    factored, factors = [], kempner._factors
    for module in (kempner, measures):
        monkeypatch.setattr(module, "_factors", lambda q: factored.append(q) or factors(q))
    f = floor_e_times(q)
    kempner.kempner_result(q)
    check_theorem1(f, q)
    check_theorem1(f + 1, q)
    check_prime_factor_bound(f, q)
    compare_bounds(q)
    assert (calls, len(factored)) == ([q], 5)


def test_one_query_reads_a_small_q_off_the_table_once(monkeypatch):
    # The same queries below 2^14: 720 = 2^4 3^2 5 is read off the table at
    # 720, 45 and 5 once, and the other four calls reuse that answer.
    q = 720
    reads = []

    class Counted(bytearray):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    kempner.factorize(2)
    monkeypatch.setattr(kempner, "_SPF", Counted(kempner._SPF))
    monkeypatch.setattr(kempner, "_LAST", (None, ()))
    f = floor_e_times(q)
    kempner.kempner_result(q)
    check_theorem1(f, q)
    check_theorem1(f + 1, q)
    check_prime_factor_bound(f, q)
    compare_bounds(q)
    assert reads == [720, 45, 5]
