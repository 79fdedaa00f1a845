import sys

import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=ci` runs each property test on 1000 examples.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits, with the int-to-str digit limit in force
    before the test restored when it ends."""
    limit = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)
