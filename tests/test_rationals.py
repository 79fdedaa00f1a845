import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from emeasure import density, rationals
from emeasure.rationals import decimal_text, exact_decimal, rising_product, truncate_decimal


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


def test_int_str_matches_str(digit_limit):
    # int_str under the lowest limit CPython allows, 640 digits, and under no
    # limit, against str(): around the crossovers at 33 * 640 / 10 = 2112 bits
    # (limit 640) and 33000 bits (no limit), for both signs.
    values = [
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
    ]
    for bits in (2111, 2112, 2113):
        for n in (2 ** (bits - 1), 2**bits - 1):
            values += [n, -n]
    rng = random.Random(1)
    for bits in (33_001, 40_961, 65_537, 100_003):  # uneven splits
        values.append(rng.getrandbits(bits) | 1 << (bits - 1))
    digit_limit(640)
    texts = [rationals.int_str(n) for n in values]
    digit_limit(0)
    for n, text in zip(values, texts):
        assert text == rationals.int_str(n) == str(n), n.bit_length()


def test_past_the_default_digit_limit(digit_limit):
    # Library calls outside the CLI print past the default limit of 4300
    # digits without changing it.
    digit_limit(4300)
    thirds = truncate_decimal(Fraction(1, 3), 5000)
    fact = rationals.int_str(math.factorial(2000))
    assert sys.get_int_max_str_digits() == 4300
    assert thirds == "0." + "3" * 5000
    digit_limit(0)
    assert fact == str(math.factorial(2000))


def test_rising_product_walks_consecutive_factors_up_to_hi():
    assert rising_product(3, 6, 10**9) == (6, 3 * 4 * 5 * 6)
    assert rising_product(5, 5, 10**9) == (5, 5)


def test_rising_product_empty_walks():
    # lo > hi, or cap < 1: the empty product 1 at k = lo - 1, no factor taken.
    assert rising_product(5, 3, 10**9) == (4, 1)
    assert rising_product(2, 10, 0) == (1, 1)
    assert rising_product(2, 10, -7) == (1, 1)


def test_rising_product_never_multiplies_past_the_cap():
    # hi = 10^18 returns at once: only the factors up to the first product
    # above the cap are multiplied in.
    assert rising_product(2, 10**18, 10**6) == (10, math.factorial(10))
    n = 10**17
    assert rising_product(n, 10**18, 10**40) == (n + 2, n * (n + 1) * (n + 2))


@pytest.mark.parametrize("x, t", [(2, 3), (3, 4), (4, 4), (5, 5), (10**8 - 1, 19)])
def test_rising_product_gives_the_density_threshold(x, t):
    # The smallest t with t! > x^2 is x + 1 at x = 2 and 3, so the walk must
    # be allowed to reach hi = x + 1.
    assert rising_product(2, x + 1, x * x) == (t, math.factorial(t))
    assert density._factorial_threshold(x) == (t, [math.factorial(k) for k in range(t + 1)])
    if x == 2:
        assert rising_product(2, x, x * x) == (2, 2)  # stops at hi, below the cap


def test_decimal_text_checks_the_decimal_it_prints(digit_limit):
    # The Decimal is checked against n * divisor, not only its quotient: one
    # off is refused even where the quotient would still read n.
    n = math.factorial(3000) + 1
    digit_limit(0)
    with exact_decimal():
        value = Decimal(n) * 7
        assert decimal_text(value, n, 7) == decimal_text(Decimal(n), n) == str(n)
        for wrong in (value + 1, value - 1, Decimal(n) * 7 * 10):
            with pytest.raises(AssertionError):
                decimal_text(wrong, n, 7)
        with pytest.raises(AssertionError):
            decimal_text(Decimal(n + 1), n)
