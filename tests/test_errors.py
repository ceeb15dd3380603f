"""The one integer-argument check, require_int, and brief."""

from fractions import Fraction

import pytest

from lfmoments import DomainError
from lfmoments.errors import brief, require_int


def test_require_int_returns_ints_within_both_bounds():
    assert require_int("k", 1, 1) == 1
    assert require_int("k", 10**5000, 1) == 10**5000
    assert require_int("bits", 64, 64, 8192) == 64
    assert require_int("bits", 8192, 64, 8192) == 8192
    assert require_int("n", -10**5000, None) == -10**5000
    assert require_int("limit", -3, None, 10) == -3


@pytest.mark.parametrize(
    "low, high, value, message",
    [
        (1, None, 0, "k must be an integer of at least 1, got 0"),
        (64, 8192, 63, "k must be an integer of at least 64 and at most 8192, got 63"),
        (64, 8192, 8193, "k must be an integer of at least 64 and at most 8192, got 8193"),
        (None, 10, 11, "k must be an integer of at most 10, got 11"),
        (None, None, 1.5, "k must be an integer, got 1.5"),
        (1, None, "2", "k must be an integer of at least 1, got '2'"),
        (1, None, Fraction(4, 2), "k must be an integer of at least 1, got Fraction(2, 1)"),
        (1, None, -(10**5000), "k must be an integer of at least 1, got a negative integer "
                               "of 16610 bits"),
    ],
    ids=["low", "below_both", "above_both", "high", "float", "str", "fraction", "huge"],
)
def test_require_int_states_the_bounds(low, high, value, message):
    with pytest.raises(DomainError) as info:
        require_int("k", value, low, high)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [True, False])
def test_require_int_refuses_bool(value):
    # bool is an int subclass: True passed as 1 and False as 0
    with pytest.raises(DomainError, match=f"got {value}"):
        require_int("k", value, None)


def test_brief_names_long_ints_and_fractions_by_width():
    # up to 128 bits an int is printed
    assert brief(2**128 - 1) == "340282366920938463463374607431768211455"
    assert brief(2**128) == "an integer of 129 bits"
    assert brief(-(2**200)) == "a negative integer of 201 bits"
    assert brief(Fraction(1, 2**200)) == "a fraction of 201 bits"
    assert brief(Fraction(-(2**300), 3)) == "a negative fraction of 301 bits"
    assert brief(Fraction(7, 2)) == "Fraction(7, 2)"


def test_brief_cuts_a_long_repr():
    # up to 64 characters a repr is printed whole, so a 62-character str is
    assert brief("x" * 62) == "'" + "x" * 62 + "'"
    assert brief("x" * 63) == "'" + "x" * 31 + "... (a repr of 65 characters)"
    assert brief("x" * 1000) == "'" + "x" * 31 + "... (a repr of 1002 characters)"
    assert brief([0] * 1000).endswith("... (a repr of 3000 characters)")
    assert brief(None) == "None"
