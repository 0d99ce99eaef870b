"""Integer-exact scientific notation for huge values."""

import pytest

from oacm import ParameterError, scientific


def test_single_digits():
    assert scientific(1) == "1.0e+0"
    assert scientific(9) == "9.0e+0"


def test_two_digits():
    assert scientific(10) == "1.0e+1"
    assert scientific(95) == "9.5e+1"


def test_rounding_half_up():
    assert scientific(1349) == "1.3e+3"
    assert scientific(1350) == "1.4e+3"
    assert scientific(994) == "9.9e+2"


def test_rounding_carries_into_the_exponent():
    assert scientific(995) == "1.0e+3"
    assert scientific(999) == "1.0e+3"


def test_huge_values_beyond_float_range():
    assert scientific(43 * 10**825 + 10**500) == "4.3e+826"
    # half-up at a scale where float rounding could not decide
    assert scientific(435 * 10**824) == "4.4e+826"
    assert scientific(435 * 10**824 - 1) == "4.3e+826"


def test_formatting():
    assert scientific(384) == "3.8e+2"
    assert scientific(30) == "3.0e+1"


def test_rejects_non_positive():
    with pytest.raises(ParameterError):
        scientific(0)
