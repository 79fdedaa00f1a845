import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from emeasure import rationals
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


@pytest.fixture
def decimal_int_str(monkeypatch):
    """int_str on its decimal path on every Python version, with the
    int-to-str digit limit lifted for the str() it is compared with."""
    monkeypatch.setattr(rationals, "_SLOW_INT_STR", True)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield rationals.int_str
    sys.set_int_max_str_digits(limit)


def test_int_str_matches_str(decimal_int_str):
    # Below and above the crossover, for both signs.
    for n in (
        0,
        -7,
        10**4000,
        2**33000 - 1,
        2**33000,
        2**33001 + 12345,
        -(3**50000),
        math.factorial(20000),
        10**100000,
        10**100000 - 1,
    ):
        assert decimal_int_str(n) == str(n)
    rng = random.Random(1)
    for bits in (33_001, 40_961, 65_537, 100_003):  # uneven splits
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        assert decimal_int_str(n) == str(n)
