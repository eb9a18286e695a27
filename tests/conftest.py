"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit, 4300."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
