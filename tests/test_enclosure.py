import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from emeasure import enclosure
from emeasure.cfrac import is_convergent, partial_sum_record
from emeasure.enclosure import (
    MAX_DEPTH,
    DepthCapExceeded,
    Interval,
    _margin,
    _render,
    compare_distance_to_e,
    endpoint,
    floor_e_times,
    interval,
    partial_sum,
    refine,
    render_distance,
)
from emeasure.measures import check_theorem1
from emeasure.rationals import GREATER, LESS, truncate_decimal


# Oracles: the literal construction and the Fraction bracket that the
# integer decisions must reproduce.


def subdivide_second(prev: Interval) -> Interval:
    """Inductive step: second of (prev.n + 1) equal parts of prev, in
    Fractions; equal to interval(prev.n + 1) by the closed form."""
    n = prev.n + 1
    step = (prev.right - prev.left) / n
    return Interval(left=prev.left + step, right=prev.left + 2 * step, n=n)


def strictly_contains(box: Interval, x: Fraction) -> bool:
    return box.left < x < box.right


def distance_bracket(r: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Exact bracket [lo, hi] containing |e - r|, from the depth-n interval."""
    box = interval(n)
    if r <= box.left:
        return box.left - r, box.right - r
    if r >= box.right:
        return r - box.right, r - box.left
    return Fraction(0), max(r - box.left, box.right - r)


def test_first_intervals_match_construction():
    assert (interval(1).left, interval(1).right) == (Fraction(2), Fraction(3))
    assert (interval(2).left, interval(2).right) == (Fraction(5, 2), Fraction(6, 2))
    assert (interval(3).left, interval(3).right) == (Fraction(16, 6), Fraction(17, 6))
    assert (interval(4).left, interval(4).right) == (Fraction(65, 24), Fraction(66, 24))


def test_interval_rejects_zero():
    with pytest.raises(ValueError):
        interval(0)


def test_closed_form_equals_literal_subdivision():
    box = interval(1)
    for n in range(2, 40):
        box = subdivide_second(box)
        assert (box.left, box.right) == (interval(n).left, interval(n).right)


def test_width_is_inverse_factorial():
    for n in range(1, 61):
        box = interval(n)
        assert box.right - box.left == Fraction(1, math.factorial(n))


def test_left_endpoints_are_partial_sums():
    assert partial_sum(0) == 1
    assert partial_sum(3) == Fraction(8, 3)
    assert partial_sum(4) == Fraction(65, 24)
    for n in range(1, 61):
        assert interval(n).left == partial_sum(n)


def test_nesting_strict_for_n_above_1():
    for n in range(1, 60):
        outer, inner = interval(n), interval(n + 1)
        assert outer.left <= inner.left and inner.right <= outer.right
        if n > 1:
            assert outer.left < inner.left and inner.right < outer.right


def test_endpoints_escape_deeper_intervals():
    # The irrationality witness: fractions over n! fall outside I_{n+2}.
    for n in range(1, 31):
        box, deeper = interval(n), interval(n + 2)
        assert not strictly_contains(deeper, box.left)
        assert not strictly_contains(deeper, box.right)


def test_sandwich_comparisons():
    r = Fraction(65, 24)
    assert compare_distance_to_e(r, Fraction(1, 120)) == GREATER
    assert compare_distance_to_e(r, Fraction(1, 24)) == LESS
    assert compare_distance_to_e(Fraction(2), Fraction(1, 2)) == GREATER


def test_zero_bound_is_always_greater():
    assert compare_distance_to_e(Fraction(65, 24), Fraction(0)) == GREATER


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        compare_distance_to_e(Fraction(2), Fraction(-1))


def test_non_rational_input_rejected():
    with pytest.raises(TypeError, match="requires a rational r, not float"):
        compare_distance_to_e(2.5, Fraction(1, 10))
    with pytest.raises(TypeError, match="requires a rational bound, not float"):
        compare_distance_to_e(Fraction(5, 2), 0.1)
    with pytest.raises(TypeError, match="^render_distance requires a rational r, not float$"):
        render_distance(2.5, 5)
    with pytest.raises(TypeError, match="^is_convergent requires a rational r, not float$"):
        is_convergent(2.5)
    assert compare_distance_to_e(3, Fraction(1, 2)) == LESS


def test_depth_cap_raises_instead_of_looping(monkeypatch):
    # s_600 is far closer to e than anything a depth-8 enclosure can resolve.
    r = partial_sum(600)
    monkeypatch.setattr(enclosure, "MAX_DEPTH", 8)
    with pytest.raises(DepthCapExceeded, match="undecided at MAX_DEPTH = 8"):
        compare_distance_to_e(r, Fraction(1, 10**1000))


def test_close_query_past_the_old_default_cap():
    # |e - s_600| is about 1/601!, below 10^-1400; a cap of depth 500 raised.
    assert compare_distance_to_e(partial_sum(600), Fraction(1, 10**1400)) == LESS


def test_depth_past_max_depth_refused_before_the_cache_grows(monkeypatch):
    depth = 50
    monkeypatch.setattr(enclosure, "MAX_DEPTH", depth)
    misses = enclosure._endpoint.cache_info().misses
    for entry in (interval, partial_sum):
        with pytest.raises(DepthCapExceeded, match=f"depth {depth + 1} exceeds"):
            entry(depth + 1)
    assert enclosure._endpoint.cache_info().misses == misses


def test_negative_depth_rejected_after_deeper_endpoints():
    endpoint(30)
    for entry in (endpoint, partial_sum, partial_sum_record):
        with pytest.raises(ValueError):
            entry(-1)


def test_endpoint_matches_recurrence():
    # N_0 = 1, N_n = n N_(n-1) + 1, beside n!; the uneven sizes split unevenly.
    checked = set(range(301)) | {1023, 1025, 9999}
    num, fact = 1, 1
    for n in range(max(checked) + 1):
        if n:
            num, fact = n * num + 1, n * fact
        if n in checked:
            assert endpoint(n) == (num, fact)


def test_endpoint_at_max_depth_keeps_memory_small():
    # A table of every level up to MAX_DEPTH held about 142 MiB. The pair
    # kept is about 30 KB; the terms of the tree are freed on return.
    enclosure._endpoint.cache_clear()
    tracemalloc.start()
    try:
        endpoint(MAX_DEPTH)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert kept < 2**19


def _depths_seen(monkeypatch, max_depth, stop_after=None, floor=24):
    """Depths refine(decide, floor) hands to an undecided `decide` (or one
    that answers after `stop_after` calls) under MAX_DEPTH = max_depth; the
    default floor 4! starts it at depth 4."""
    seen = []

    def decide(n):
        seen.append(n)
        return "done" if len(seen) == stop_after else None

    monkeypatch.setattr(enclosure, "MAX_DEPTH", max_depth)
    try:
        refine(decide, floor)
    except DepthCapExceeded as exc:
        assert str(exc) == f"undecided at MAX_DEPTH = {max_depth}"
    return seen


def test_refine_depth_schedule(monkeypatch):
    assert _depths_seen(monkeypatch, 20) == [4, 8, 16, 20]
    assert _depths_seen(monkeypatch, 2) == [2]
    assert _depths_seen(monkeypatch, 20, stop_after=3) == [4, 8, 16]
    assert _depths_seen(monkeypatch, 10_000, stop_after=8) == [
        4, 8, 16, 32, 64, 128, 256, 512
    ]


@pytest.mark.parametrize("max_depth", [MAX_DEPTH, 1, 2, 8])
def test_refine_starts_at_the_literal_first_depth(monkeypatch, max_depth):
    # refine bisects over 0!, ..., 20! and multiplies on from 21: k! - 1, k!
    # and k! + 1 sit on either side of every step, the 20!/21! seam included.
    for k in range(26):
        for floor in (math.factorial(k) - 1, math.factorial(k), math.factorial(k) + 1):
            [n] = _depths_seen(monkeypatch, max_depth, stop_after=1, floor=floor)
            assert n == min(_first_depth(floor), max_depth), (k, floor)


def test_nearest_multiples_of_inverse_factorial_keep_distance():
    # |e - m/n!| > 1/(n+1)! for the integers m nearest to e * n!.
    for n in range(2, 21):
        fact = math.factorial(n)
        m = floor_e_times(fact)
        bound = Fraction(1, math.factorial(n + 1))
        for candidate in (m - 1, m, m + 1):
            assert compare_distance_to_e(Fraction(candidate, fact), bound) == GREATER


def test_render_distance_paper_digits():
    assert render_distance(Fraction(65, 24), 5) == "0.00994"
    assert render_distance(Fraction(5, 2), 5) == "0.21828"
    assert render_distance(partial_sum(1), 5) == "0.71828"


def test_render_distance_matches_deep_enclosure():
    # Independent oracle: truncate the exact bracket from a fixed deep interval.
    for r in (Fraction(3, 2), Fraction(65, 24), Fraction(8, 3), Fraction(2)):
        lo, hi = distance_bracket(r, 30)
        expected = truncate_decimal(lo, 8)
        assert truncate_decimal(hi, 8) == expected
        assert render_distance(r, 8) == expected


def test_render_distance_past_the_default_digit_limit(digit_limit):
    # 5000 digits, outside the CLI, under the default limit of 4300 digits;
    # the oracle truncates the bracket at depth 2000, where 1/2000! < 10^-5700.
    digit_limit(4300)
    text = render_distance(Fraction(65, 24), 5000)
    lo, hi = distance_bracket(Fraction(65, 24), 2000)
    scaled = lo.numerator * 10**5000 // lo.denominator
    assert scaled == hi.numerator * 10**5000 // hi.denominator
    digit_limit(0)
    assert text == f"0.{scaled:05000d}"


def test_floor_e_times():
    assert floor_e_times(1) == 2
    assert floor_e_times(24) == 65
    assert floor_e_times(10**6) == 2718281


def test_far_query_with_huge_terms_answers_under_default_cap(monkeypatch):
    # The bit-length start depth is far past 500 here; clipped to
    # MAX_DEPTH = 500, the query is still answered.
    monkeypatch.setattr(enclosure, "MAX_DEPTH", 500)
    r = 3 + Fraction(1, 10**2000)
    assert compare_distance_to_e(r, Fraction(1, 10**4000)) == GREATER


def test_start_depth_is_smallest_factorial_with_enough_bits(monkeypatch):
    for bits in range(1, 3000, 37):
        # n! has at least `bits` bits
        [n] = _depths_seen(monkeypatch, MAX_DEPTH, stop_after=1, floor=1 << (bits - 1))
        assert math.factorial(n).bit_length() >= bits
        assert n == 1 or math.factorial(n - 1).bit_length() < bits
    assert _depths_seen(monkeypatch, 8, floor=10**5) == [8]
    assert _depths_seen(monkeypatch, 1, floor=10**5) == [1]
    assert _depths_seen(monkeypatch, 4, floor=1) == [1, 2, 4]


# Oracle for the integer decisions: I_DEEP built by literal subdivision from
# I_1 = [2, 3], in Fractions, with no use of the integer endpoint cache.
DEEP = 80
_DEEP_BOX = Interval(left=Fraction(2), right=Fraction(3), n=1)
for _ in range(DEEP - 1):
    _DEEP_BOX = subdivide_second(_DEEP_BOX)


def _oracle_bracket(r):
    lo, hi = distance_bracket(r, DEEP)
    box = _DEEP_BOX
    if r <= box.left:
        assert (lo, hi) == (box.left - r, box.right - r)
    elif r >= box.right:
        assert (lo, hi) == (r - box.right, r - box.left)
    else:
        assert (lo, hi) == (0, max(r - box.left, box.right - r))
    return lo, hi


def _render_margin(r, digits, bound=Fraction(0), m=0):
    """Truncated |e - r| - bound / m!, from the enclosure's own rendering."""
    return _render(r.numerator, r.denominator, bound.numerator, bound.denominator, m, digits)


def _oracle_render(r, bound, digits):
    """Truncated |e - r| - bound from the deep Fraction bracket, or None if
    that bracket leaves the digits or the sign open."""
    lo, hi = _oracle_bracket(r)
    lo, hi = lo - bound, hi - bound
    if lo <= 0 <= hi:
        return None
    text = truncate_decimal(lo, digits)
    return text if truncate_decimal(hi, digits) == text else None


@st.composite
def near_intervals(draw):
    """r inside I(n), just left of it, or just right of it, for n <= 30."""
    box = interval(draw(st.integers(min_value=1, max_value=30)))
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    offset = Fraction(1, 10 ** draw(st.integers(min_value=0, max_value=40)))
    where = draw(st.sampled_from(["inside", "left", "right"]))
    if where == "inside":
        return box.left + t * (box.right - box.left)
    if where == "left":
        return box.left - t * offset
    return box.right + t * offset


rationals_near_e = st.one_of(
    near_intervals(),
    st.fractions(min_value=-10, max_value=10, max_denominator=10**12),
)


@st.composite
def bounds_near(draw, r):
    """0, or a bound just above or just below |e - r|."""
    lo, hi = _oracle_bracket(r)
    delta = Fraction(
        draw(st.integers(min_value=1, max_value=10**6)),
        10 ** draw(st.integers(min_value=1, max_value=50)),
    )
    return draw(st.sampled_from([Fraction(0), hi + delta, max(lo - delta, lo / 2)]))


@given(rationals_near_e, st.integers(min_value=1, max_value=DEEP))
def test_integer_bracket_is_distance_bracket(r, n):
    lo, hi, den = _margin(r.numerator, r.denominator, 0, 1, 0, n)
    assert (Fraction(lo, den), Fraction(hi, den)) == distance_bracket(r, n)


@given(st.data())
def test_compare_matches_fraction_oracle(data):
    r = data.draw(rationals_near_e)
    bound = data.draw(bounds_near(r))
    lo, hi = _oracle_bracket(r)
    if bound == 0:
        expected = GREATER
    elif lo > bound:
        expected = GREATER
    elif hi < bound:
        expected = LESS
    else:
        assume(False)  # undecided at the oracle's depth
    assert compare_distance_to_e(r, bound) == expected


@given(st.data(), st.integers(min_value=1, max_value=30))
def test_render_matches_fraction_oracle(data, digits):
    r = data.draw(rationals_near_e)
    bound = data.draw(bounds_near(r))
    expected = _oracle_render(r, bound, digits)
    assume(expected is not None)
    if bound:
        assert _render_margin(r, digits, bound=bound) == expected
    else:
        assert render_distance(r, digits) == expected


@given(st.integers(min_value=1, max_value=10**40))
def test_floor_e_times_matches_fraction_oracle(q):
    lo = math.floor(_DEEP_BOX.left * q)
    assume(lo == math.floor(_DEEP_BOX.right * q))
    assert floor_e_times(q) == lo


def _first_depth(floor):
    """Smallest n >= 1 with n! >= floor, by the literal factorials."""
    n = 1
    while math.factorial(n) < floor:
        n += 1
    return n


def _start_depth(unit):
    """Where refine starts a caller whose unit is 1/unit: the bracket is
    2^-8 of it."""
    return _first_depth(unit << 8)


@pytest.fixture
def brackets(monkeypatch):
    """(n, b) of each _margin the enclosure builds, in order."""
    seen = []

    def recording(a, b, u, v, m, n):
        seen.append((n, b))
        return _margin(a, b, u, v, m, n)

    monkeypatch.setattr(enclosure, "_margin", recording)
    return seen


@pytest.fixture
def depths(monkeypatch):
    """n of each endpoint the enclosure's decisions read, in order."""
    seen = []
    read = enclosure._endpoint

    def recording(n):
        seen.append(n)
        return read(n)

    monkeypatch.setattr(enclosure, "_endpoint", recording)
    return seen


@pytest.mark.parametrize("q", [1, 2, 6, 7, 24, 25, 10**6, math.factorial(12)])
def test_floor_e_times_starts_at_the_smallest_factorial_above_q(depths, q):
    # The smallest n with n! >= 2^8 (q + 1): n! > q with 8 bits to spare.
    assert floor_e_times(q) == math.floor(_DEEP_BOX.left * q)
    assert depths[0] == _start_depth(q + 1)


def test_floor_e_times_at_a_factorial_decides_at_the_next_depth(depths):
    # At q = n! the depth n bracket is [N_n, N_n + 1] and cannot decide; the
    # start depth, past n, is the only one read.
    for n in range(2, 21):
        num, _ = endpoint(n)
        depths.clear()
        assert floor_e_times(math.factorial(n)) == num
        assert depths == [_start_depth(math.factorial(n) + 1)]
        assert depths[0] > n


def test_bound_at_an_end_of_the_bracket_decides_at_the_first_depth(depths):
    # The margin is irrational, so a bracket end at 0 already fixes its sign.
    s6, s12 = partial_sum(6), partial_sum(12)
    for r, bound, answer in (
        (Fraction(2), s6 - 2, GREATER),
        (Fraction(2), s6 + Fraction(1, 720) - 2, LESS),
        (Fraction(3), 3 - s6, LESS),
    ):
        depths.clear()
        assert compare_distance_to_e(r, bound) == answer
        assert depths == [6]
    # 6 digits start at depth 12, where the bracket of |e - 2| is
    # [s_12 - 2, s_12 - 2 + 1/12!].
    depths.clear()
    assert _render_margin(Fraction(2), 6, bound=s12 - 2) == "0.000000"
    assert depths == [12] == [_start_depth(10**6)]


def test_decisions_read_a_second_depth_rarely(brackets, depths):
    # With 8 bits of slack the start depth decides nearly every query: on
    # [2, 3000] the bracket holds an integer or a truncation boundary for a
    # few q. With none, 42% of the floors, 28% of the theorem1 verdicts and
    # 72% of the 12-digit renderings read a second depth.
    second = {"floor": 0, "theorem1": 0, "render": 0}
    queries = range(2, 3001)
    for q in queries:
        depths.clear()
        f = floor_e_times(q)
        second["floor"] += len(depths) > 1
        brackets.clear()
        check_theorem1(f, q)
        second["theorem1"] += len(brackets) > 1
        brackets.clear()
        render_distance(Fraction(f, q), 12)
        second["render"] += len(brackets) > 1
    assert all(100 * count < len(queries) for count in second.values()), second


def _comparison_oracle(r, bound):
    """compare_distance_to_e written out: refine over the sign of the
    _margin bracket, from n! a few bits past min(v, b^2)."""
    a, b, u, v = r.numerator, r.denominator, bound.numerator, bound.denominator

    def decide(n):
        lo, hi, _ = enclosure._margin(a, b, u, v, 0, n)
        return GREATER if lo >= 0 else LESS if hi <= 0 else None

    return refine(decide, 1 << (min(v.bit_length(), 2 * b.bit_length()) + 7))


def test_comparisons_read_the_brackets_of_their_oracle(brackets):
    # The same answers from the same _margin depths, in order. Against
    # bounds within 1/q^2 of |e - 2| (best approximations of e - 2), the
    # start depth of r = 2 rarely decides, so the doublings are compared too.
    near = partial_sum(60) - 2
    cases = [(Fraction(2), near.limit_denominator(10**k)) for k in range(1, 25)]
    cases += [(Fraction(65, 24), Fraction(1, 10**k)) for k in range(0, 40, 3)]
    cases += [(partial_sum(n), Fraction(1, math.factorial(n + 1))) for n in range(1, 40)]
    cases += [(Fraction(p, q), Fraction(1, 2 * q * q)) for p, q in ((19, 7), (87, 32), (1457, 536))]
    doubled = 0
    for r, bound in cases:
        brackets.clear()
        expected = _comparison_oracle(r, bound)
        read = list(brackets)
        brackets.clear()
        assert compare_distance_to_e(r, bound) == expected, (r, bound)
        assert brackets == read, (r, bound)
        doubled += len(read) > 1
    assert doubled >= 10


@pytest.mark.parametrize("digits", [1, 5, 6, 12, 30])
def test_render_starts_at_the_first_depth_that_can_fix_the_digits(brackets, digits):
    for r, bound in ((Fraction(65, 24), Fraction(0)), (Fraction(8, 3), Fraction(1, 120))):
        brackets.clear()
        _render_margin(r, digits, bound=bound)
        assert brackets[0][0] == _start_depth(10**digits)
    assert {1: 7, 5: 11, 6: 12, 12: 17, 30: 30}[digits] == _start_depth(10**digits)


@pytest.mark.parametrize("k", [100, 1000, 5004])
@pytest.mark.parametrize("digits", [1, 6, 12, 30])
def test_render_with_bound_far_past_the_deciding_depth(brackets, k, digits):
    # 1/k! is below every bracket unit 1/(n! b) tried, so the bound's
    # quotient over it is 0 and only the remainder moves the low end.
    bound = Fraction(1, math.factorial(k))
    for r in (Fraction(65, 24), Fraction(8, 3), Fraction(19, 7), Fraction(3, 2)):
        expected = _oracle_render(r, bound, digits)
        assert expected is not None
        brackets.clear()
        assert _render_margin(r, digits, bound=bound) == expected
        assert all(math.factorial(n) * b < math.factorial(k) for n, b in brackets)


@given(st.data(), st.integers(min_value=1, max_value=30))
def test_render_with_bound_on_the_bracket_denominator(data, digits):
    # A bound m / (n0! b) is a whole number of units of every bracket from
    # the start depth n0 on: the remainder is 0 at each depth tried.
    r = data.draw(rationals_near_e)
    n0 = _start_depth(10**digits)
    unit = Fraction(1, math.factorial(n0) * r.denominator)
    lo, hi = _oracle_bracket(r)
    m = data.draw(
        st.one_of(
            st.integers(min_value=0, max_value=math.ceil(hi / unit) + 3),
            st.integers(min_value=-3, max_value=3).map(lambda j: math.floor(lo / unit) + j),
        ).filter(lambda m: m >= 0)
    )
    bound = m * unit
    assert (bound.numerator * unit.denominator) % bound.denominator == 0
    expected = _oracle_render(r, bound, digits)
    assume(expected is not None)
    assert _render_margin(r, digits, bound=bound) == expected


@given(
    st.data(),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=2),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**4),
)
def test_render_with_margin_next_to_a_truncation_boundary(data, digits, sign, steps, t):
    # The margin is within 10^-(digits+3) of a multiple of 10^-digits, so
    # the bracket must shrink well below a unit in the last place.
    r = data.draw(rationals_near_e)
    lo, _ = _oracle_bracket(r)
    assume(lo > 0)
    place = Fraction(1, 10**digits)
    boundary = (math.floor(lo / place) - steps) * place
    bound = lo - sign * (boundary + t * place / 1000)
    assume(bound >= 0)
    expected = _oracle_render(r, bound, digits)
    assume(expected is not None)
    assert _render_margin(r, digits, bound=bound) == expected


ROUNDING_CASES = [Fraction(2), Fraction(5, 2), Fraction(8, 3), Fraction(11, 4), Fraction(19, 7)]


def _bounds_between_units(r, digits):
    """(bound, oracle render) pairs for bounds 0.999 bracket units past a
    whole number of units at the start depth, next to truncation boundaries."""
    n = _start_depth(10**digits)
    num, fact = endpoint(n)
    den = fact * r.denominator
    lo = num * r.denominator - r.numerator * fact
    place = 10**digits
    start = lo * place // (2 * den)
    for t in range(start, start + 10):  # T = t / 10^digits
        k = lo - (t * den + place - 1) // place  # lo - ceil(T n! b)
        bound = Fraction(1000 * k + 999, 1000 * den)
        expected = _oracle_render(r, bound, digits)
        assert expected is not None
        yield bound, expected


@pytest.mark.parametrize("r", ROUNDING_CASES)
@pytest.mark.parametrize("digits", [6, 12])
def test_render_rounds_the_bound_up_between_bracket_units(r, digits):
    # r = a/b with b <= n lies left of I_n, and |e - r| less than one unit
    # 1/(n! b) above the bracket's low end. A bound 0.999 units past a whole
    # number of units puts the margin just below a truncation boundary T
    # that the low end reaches only if the bound's remainder is dropped.
    for bound, expected in _bounds_between_units(r, digits):
        assert _render_margin(r, digits, bound=bound) == expected


@pytest.mark.parametrize("m", [3, 20])
@pytest.mark.parametrize("r", ROUNDING_CASES)
@pytest.mark.parametrize("digits", [6, 12])
def test_render_rounds_a_factorial_scaled_bound_up(r, digits, m):
    # The same bounds, passed as (bound m!) / m!: m = 3 is below the start
    # depth, m = 20 above it, so the quotient comes from math.perm and from
    # the product (n + 1) ... m in turn.
    for bound, expected in _bounds_between_units(r, digits):
        scaled = bound * math.factorial(m)
        assert _render_margin(r, digits, bound=scaled, m=m) == expected


@st.composite
def factorial_denominators(draw):
    """p / N! next to I_N for N <= 40, the rationals of the sharpness checks.
    For m past the start depth n, m! can divide n! N!: the bound 1/m! is
    then a whole number of bracket units."""
    num, fact = endpoint(draw(st.integers(min_value=3, max_value=40)))
    return Fraction(num + draw(st.integers(min_value=-1, max_value=2)), fact)


_S20 = Fraction(*endpoint(20))  # its denominator is 20!


@settings(deadline=None)
@given(
    st.one_of(rationals_near_e, factorial_denominators()),
    st.one_of(
        st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=3000)
    ),
    st.integers(min_value=1, max_value=12),
)
@example(Fraction(65, 24), 5, 6)  # m below the start depth 12
@example(Fraction(65, 24), 3000, 12)  # m far past the deciding depth
@example(_S20, 15, 6)  # 15! divides 12! 20!: no remainder
@example(_S20, 21, 6)  # 1/21! is just below e - s_20
def test_render_with_factorial_bound_matches_the_built_bound(r, m, digits):
    built = _render_margin(r, digits, bound=Fraction(1, math.factorial(m)))
    assert _render_margin(r, digits, bound=Fraction(1), m=m) == built


def test_factorial_bound_whole_units_at_full_factorial_denominators():
    # The bound 20!/m! is a whole number of units 1/10!, not rounded, when
    # m! divides 10! 20!. From |e - 0| in (N_10, N_10 + 1) / 10!, _margin
    # takes k units from the high end, and one more from the low end when
    # the bound is not whole.
    num, fact = endpoint(10)

    def units(m):
        lo, hi, den = _margin(0, 1, math.factorial(20), 1, m, 10)
        assert den == fact
        return num + 1 - hi, hi - lo == 1

    for m in range(11, 21):
        k, whole = units(m)
        assert whole and k * math.factorial(m) == math.factorial(10) * math.factorial(20)
    # 10! 20! / 23! = 10! / (21 22 23) = 341.5...; 11 ... 40 passes 20!.
    assert units(23) == (341, False)
    assert units(40) == (0, False)


@pytest.mark.parametrize("r", ROUNDING_CASES)
@pytest.mark.parametrize("digits", [3, 6, 11])
def test_render_with_a_negative_factorial_scaled_bound(r, digits):
    # -20!/20! = -1 adds 1 to the distance. m = 20 is past the start depth,
    # so the quotient's product must stop on the bound's size, not its sign.
    expected = _oracle_render(r, Fraction(-1), digits)
    assert _render_margin(r, digits, bound=Fraction(-math.factorial(20)), m=20) == expected
    assert _render_margin(r, digits, bound=Fraction(-1)) == expected
