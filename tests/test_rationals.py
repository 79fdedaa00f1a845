import math
from fractions import Fraction

from hypothesis import given, strategies as st

from emeasure.rationals import truncate_decimal


def test_truncate_decimal_truncates_not_rounds():
    assert truncate_decimal(Fraction(1, 120), 5) == "0.00833"
    assert truncate_decimal(Fraction(1, 24), 5) == "0.04166"
    assert truncate_decimal(Fraction(2, 3), 3) == "0.666"
    assert truncate_decimal(Fraction(-2, 3), 3) == "-0.666"
    assert truncate_decimal(Fraction(5, 2), 2) == "2.50"


@given(
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
)
def test_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    assert math.gcd(abs((a + b).numerator), (a + b).denominator) == 1
    assert (a + b).denominator >= 1


@given(st.fractions(max_denominator=10**4), st.integers(min_value=1, max_value=12))
def test_truncation_error_below_ulp(x, digits):
    rendered = truncate_decimal(x, digits)
    value = Fraction(rendered.replace(".", "")) / 10**digits
    if x < 0:
        assert 0 <= value - x < Fraction(1, 10**digits)
    else:
        assert 0 <= x - value < Fraction(1, 10**digits)
