"""Exact rational values and their report spelling.

Every cost, share and potential the package hands out is a
``fractions.Fraction``; nothing is ever evaluated in floating point. Inside,
the hot path runs on integers scaled by one per-instance denominator (the lcm
of the share denominators, see ``GameInstance.scale``), which is just as
exact, and converts back with ``Fraction(value, scale)`` at every public
boundary. The degenerate ratio x/0 of a positive cost over a zero optimum
has no value: it travels as None and is written ``"inf"``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParameterViolation

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` or ``"num"`` (signed digits over unsigned digits) into a
    reduced Fraction. Exponents are refused: "1e999999999" would build 10**999999999."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParameterViolation(f"not a valid rational: {text!r} (expected [+-]digits[/digits])")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterViolation(f"not a valid rational: {text!r} ({exc})") from None


def format_rational(value: Fraction | None) -> str:
    """Serialize as ``"num/den"`` (always with an explicit denominator), and
    the infinite ratio None as ``"inf"``."""
    if value is None:
        return "inf"
    return f"{value.numerator}/{value.denominator}"


def as_decimal(value: Fraction | None) -> float | None:
    """Float approximation for reports; None for the infinite ratio None and
    for values beyond the float range."""
    if value is None:
        return None
    try:
        return float(value)
    except OverflowError:
        return None
