from fractions import Fraction

import pytest

from csglab.errors import ParameterViolation
from csglab.rational import as_decimal, format_rational, parse_rational


@pytest.mark.parametrize(
    "text,expected",
    [("3/4", Fraction(3, 4)), ("5", Fraction(5)), ("6/8", Fraction(3, 4)), ("-2/3", Fraction(-2, 3))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ParameterViolation):
        parse_rational("1/0")
    with pytest.raises(ParameterViolation):
        parse_rational("not-a-number")


def test_format_round_trip():
    for value in (Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(101, 400)):
        assert parse_rational(format_rational(value)) == value
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(None) == "inf"


def test_as_decimal():
    assert as_decimal(Fraction(1, 4)) == 0.25
    assert as_decimal(None) is None


@pytest.mark.parametrize("text,expected", [(" 3/4 ", Fraction(3, 4)), ("+7", Fraction(7)), ("-0", Fraction(0))])
def test_parse_rational_allows_signs_and_surrounding_whitespace(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "text", ["1e999999999", "2E3", "0.1", "1.", ".5", "1_000", "1/-2", "1 / 2", "inf", "nan", "", "٣"]
)
def test_parse_rational_accepts_only_signed_digits_over_digits(text):
    with pytest.raises(ParameterViolation, match="expected"):
        parse_rational(text)


def test_as_decimal_is_none_beyond_the_float_range():
    assert as_decimal(Fraction(10**400)) is None
    assert as_decimal(Fraction(-(10**400), 3)) is None
    assert as_decimal(Fraction(1, 10**400)) == 0.0
