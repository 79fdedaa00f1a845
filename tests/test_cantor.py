import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from emeasure.cantor import (
    IRRATIONAL,
    RATIONAL,
    TAIL_MODES,
    CantorSpec,
    CantorVerdict,
    _check_term,
    cantor_partial_sum,
    classify,
    complement_family,
    masked_unit_family,
    rational_limit,
    term,
    unit_family,
)
from emeasure.enclosure import partial_sum


def test_unit_family_is_irrational():
    verdict = classify(unit_family(a0=2))
    assert verdict.classification == IRRATIONAL
    assert verdict.rational_value is None


def test_complement_family_sums_to_one():
    verdict = classify(complement_family(a0=0))
    assert verdict.classification == RATIONAL
    assert verdict.rational_value == 1


def test_masked_families_irrational():
    assert classify(masked_unit_family((1, 0))).classification == IRRATIONAL
    assert classify(masked_unit_family((0, 1))).classification == IRRATIONAL
    assert classify(masked_unit_family((0,))).classification == RATIONAL


def test_unit_partial_sums_match_e_partial_sums():
    # b_1...b_n = (n+1)!, so the unit family reproduces s_{N+1}.
    spec = unit_family(a0=2)
    for N in range(0, 41):
        assert cantor_partial_sum(spec, N) == partial_sum(N + 1)
    assert cantor_partial_sum(spec, 3) == Fraction(65, 24)


def test_complement_partial_sums_telescope():
    spec = complement_family(a0=0)
    for N in range(0, 21):
        assert cantor_partial_sum(spec, N) == 1 - Fraction(1, math.factorial(N + 1))


def test_partial_sum_at_zero_is_a0():
    for spec in (unit_family(7), complement_family(7), masked_unit_family((1,), 7)):
        assert cantor_partial_sum(spec, 0) == 7


def test_partial_sums_monotone():
    for spec in (unit_family(0), masked_unit_family((1, 0, 0))):
        sums = [cantor_partial_sum(spec, N) for N in range(30)]
        assert all(a <= b for a, b in zip(sums, sums[1:]))


def test_limit_within_tail_bound():
    # limit in [sum_N, sum_N + 1/(b_1...b_N)] for the rational families.
    spec = complement_family(a0=0)
    for N in (10, 20):
        lower = cantor_partial_sum(spec, N)
        product = math.prod(term(spec, n)[1] for n in range(1, N + 1))
        assert lower <= rational_limit(spec) <= lower + Fraction(1, product)


def test_rational_limit_all_zero():
    spec = CantorSpec(a0=7, family="custom", a_table=(0,), b_table=(2,), tail_mode="all-zero")
    assert classify(spec).rational_value == 7


def test_rational_limit_finite_head():
    spec = CantorSpec(
        a0=3, family="custom", a_table=(1,), b_table=(2,), tail_mode="all-zero"
    )
    assert rational_limit(spec) == Fraction(7, 2)


def test_rational_limit_rejects_irrational_spec():
    with pytest.raises(ValueError):
        rational_limit(unit_family(2))


def test_custom_all_complement_tail():
    spec = CantorSpec(
        a0=0, family="custom", a_table=(0, 1), b_table=(3, 4), tail_mode="all-complement"
    )
    verdict = classify(spec)
    assert verdict.classification == RATIONAL
    # head: 0 + 0/3 + 1/12; tail telescopes to 1/12.
    assert verdict.rational_value == Fraction(1, 12) + Fraction(1, 12)
    # Numerical cross-check against a long partial sum.
    sum_40 = cantor_partial_sum(spec, 40)
    assert 0 < verdict.rational_value - sum_40 < Fraction(1, 10**20)


def test_custom_conditional_without_prime_assertion():
    # Once classified conditional on the prime hypothesis. The terms repeat
    # (1, 2), (0, 3) with period 2, each period 1/6 of the one before, so the
    # verdict is unconditional: 3/6 / (1 - 1/6) = 3/5.
    spec = CantorSpec(
        a0=0, family="custom", a_table=(1, 0), b_table=(2, 3),
        tail_mode="repeat-last-block",
    )
    assert classify(spec) == CantorVerdict(RATIONAL, Fraction(3, 5))


def test_custom_irrational_with_asserted_primes():
    # Asserting that every prime divides infinitely many b_n once turned the
    # tables above into an irrational verdict. Only 2 and 3 divide a b_n, so
    # the hypothesis cannot hold for a custom spec, and the field is gone.
    with pytest.raises(TypeError, match="all_primes_divide_infinitely_many_b"):
        CantorSpec(
            a0=0, family="custom", a_table=(1, 0), b_table=(2, 3),
            all_primes_divide_infinitely_many_b=True,
        )


def test_readme_example_is_rational():
    # a_n = 0 < b_n - 1 and a_n = 1 > 0 both recur, yet the series sums to
    # 3 + (1/2) / (1 - 1/6) = 18/5.
    spec = CantorSpec(a0=3, family="custom", a_table=(1, 0), b_table=(2, 3))
    assert 0 < Fraction(18, 5) - cantor_partial_sum(spec, 200) < Fraction(1, 10**70)
    assert classify(spec) == CantorVerdict(RATIONAL, Fraction(18, 5))


# One table of README's example sums to num/prod = 3/6.
@pytest.mark.parametrize(
    "tail_mode, limit",
    [
        ("all-zero", Fraction(7, 2)),  # 3 + 3/6
        ("all-complement", Fraction(11, 3)),  # 3 + (3 + 1)/6
        ("repeat-last-block", Fraction(18, 5)),  # 3 + 3/(6 - 1)
    ],
)
def test_rational_limit_in_each_tail_mode(tail_mode, limit):
    spec = CantorSpec(
        a0=3, family="custom", a_table=(1, 0), b_table=(2, 3), tail_mode=tail_mode
    )
    assert rational_limit(spec) == limit


def test_term_bounds_enforced():
    with pytest.raises(ValueError) as err:
        CantorSpec(a0=0, family="custom", a_table=(5,), b_table=(3,))
    assert "a_1" in str(err.value)
    with pytest.raises(ValueError):
        CantorSpec(a0=0, family="custom", a_table=(0,), b_table=(1,))


TABLES = {"a_table": (1,), "b_table": (2,)}


# The bad fields that cantor --spec-json reads from JSON, built directly.
@pytest.mark.parametrize(
    "fields, field",
    [
        ({**TABLES, "a_table": ["1"]}, "a_table"),
        ({**TABLES, "a_table": [True]}, "a_table"),
        ({**TABLES, "b_table": [2.0]}, "b_table"),
        ({**TABLES, "a0": 0.5}, "a0"),
        ({**TABLES, "a0": True}, "a0"),
        ({**TABLES, "a_table": 1}, "a_table"),
        ({**TABLES, "a_table": []}, "a_table"),
        ({"b_table": (2,)}, "a_table"),
        ({"a_table": (1,)}, "b_table"),
        ({**TABLES, "tail_mode": ["all-zero"]}, "tail mode"),
    ],
)
def test_spec_fields_are_checked_by_the_spec(fields, field):
    with pytest.raises(ValueError, match=field):
        CantorSpec(family="custom", **fields)


@pytest.mark.parametrize(
    "fields, field",
    [
        # Each built, and the first classified irrational and raised in hash.
        ({"family": "unit", "mask": [1], "a_table": [5]}, "mask"),
        ({"family": "unit", "tail_mode": "bogus"}, "tail_mode"),
        ({"family": "complement", "b_table": (1,)}, "b_table"),
        ({"family": "masked_unit", "mask": (1,), "tail_mode": "all-zero"}, "tail_mode"),
        ({**TABLES, "family": "custom", "mask": (1, 0)}, "mask"),
        ({"family": "unit", "mask": []}, "mask"),
    ],
)
def test_a_field_the_family_does_not_read_is_refused(fields, field):
    family = fields["family"]
    with pytest.raises(ValueError, match=f"^the {family} family does not read {field}$"):
        CantorSpec(**fields)


def test_a0_is_checked_in_every_family():
    for family in ("unit", "complement"):
        with pytest.raises(ValueError, match="a0 must be an integer"):
            CantorSpec(a0=False, family=family)
    with pytest.raises(ValueError, match="a0 must be an integer"):
        masked_unit_family((1,), a0=1.0)


def test_spec_from_lists_holds_tuples_and_hashes():
    spec = CantorSpec(a0=3, family="custom", a_table=[1, 0], b_table=[2, 3])
    assert (spec.a_table, spec.b_table) == ((1, 0), (2, 3))
    twin = CantorSpec(a0=3, family="custom", a_table=(1, 0), b_table=(2, 3))
    assert spec == twin and hash(spec) == hash(twin)
    spec = CantorSpec(family="masked_unit", mask=[1, 0])
    assert spec.mask == (1, 0)
    twin = masked_unit_family((1, 0))
    assert spec == twin and hash(spec) == hash(twin)


@pytest.mark.parametrize("mask", [(True, False), (1.0,), (), "10", [1, None]])
def test_mask_is_checked_as_the_tables_are(mask):
    with pytest.raises(ValueError, match="mask must be a nonempty list of integers"):
        masked_unit_family(mask)


def test_bad_family_and_mask_rejected():
    with pytest.raises(ValueError):
        CantorSpec(family="bogus")
    with pytest.raises(ValueError, match="masked_unit requires a nonempty 0/1 mask"):
        CantorSpec(family="masked_unit", mask=(2,))


def _fraction_partial_sum(spec, upto):
    """The running-Fraction sum, kept as the oracle of cantor_partial_sum."""
    total = Fraction(spec.a0)
    product = 1
    for n in range(1, upto + 1):
        a, b = term(spec, n)
        product *= b
        total += Fraction(a, product)
    return total


@st.composite
def specs(draw):
    a0 = draw(st.integers(min_value=-5, max_value=5))
    family = draw(st.sampled_from(["unit", "complement", "masked_unit", "custom"]))
    if family == "unit":
        return unit_family(a0)
    if family == "complement":
        return complement_family(a0)
    if family == "masked_unit":
        # A list mask, as a caller may pass one, is stored as a tuple.
        mask = draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
        return masked_unit_family(draw(st.sampled_from([list, tuple]))(mask), a0)
    return draw(custom_specs(a0, draw(st.sampled_from(TAIL_MODES))))


@st.composite
def custom_specs(draw, a0, tail_mode):
    b_table = draw(st.lists(st.integers(2, 50), min_size=1, max_size=6))
    a_table = [draw(st.integers(0, b - 1)) for b in b_table]
    return CantorSpec(
        a0=a0,
        family="custom",
        a_table=tuple(a_table),
        b_table=tuple(b_table),
        tail_mode=tail_mode,
    )


@pytest.mark.parametrize("tail_mode", TAIL_MODES)
@given(data=st.data())
def test_every_custom_spec_is_rational_with_its_exact_limit(tail_mode, data):
    a0 = data.draw(st.integers(min_value=-5, max_value=5))
    spec = data.draw(custom_specs(a0, tail_mode))
    verdict = classify(spec)
    assert verdict.classification == RATIONAL
    x, size = verdict.rational_value, len(spec.a_table)
    if tail_mode == "repeat-last-block":
        # Each period of the tail is the one before scaled by 1/prod.
        prod = math.prod(spec.b_table)
        for k in range(6):
            assert x - cantor_partial_sum(spec, k * size) == (x - a0) / prod**k
    else:
        # Past the tables each term is (0, b) or (b - 1, b); from N + 1 on the
        # latter telescope to 1/(b_1...b_N).
        N = size + 30
        tail = 0
        if tail_mode == "all-complement":
            tail = Fraction(1, math.prod(term(spec, n)[1] for n in range(1, N + 1)))
        assert x == cantor_partial_sum(spec, N) + tail


@given(specs(), st.integers(min_value=0, max_value=60))
def test_integer_partial_sum_matches_fraction_loop(spec, upto):
    hash(spec)
    assert cantor_partial_sum(spec, upto) == _fraction_partial_sum(spec, upto)


# cantor sums its terms unchecked: the built-in families are valid by
# construction, and __post_init__ checks the terms only of a custom spec's
# tables.
def assert_terms_valid(spec):
    size = len(spec.a_table) if spec.family == "custom" else len(spec.mask)
    for n in range(1, 3 * size + 21):
        _check_term(*term(spec, n), n)


@pytest.mark.parametrize(
    "spec",
    [unit_family(), complement_family()]
    + [masked_unit_family(mask) for mask in [(0,), (1,), (1, 0), (0, 0, 1, 1, 0)]],
)
def test_built_in_terms_are_valid(spec):
    assert_terms_valid(spec)


@pytest.mark.parametrize("tail_mode", TAIL_MODES)
@given(data=st.data())
def test_custom_terms_are_valid_in_every_tail_mode(tail_mode, data):
    assert_terms_valid(data.draw(custom_specs(0, tail_mode)))
