"""Exact rational values and the infinite ratio.

Every cost, share and potential the package hands out is a
``fractions.Fraction``; nothing is ever evaluated in floating point. Inside,
the hot path runs on integers scaled by one per-instance denominator (the lcm
of the share denominators, see ``GameInstance.scale``), which is just as
exact, and converts back with ``Fraction(value, scale)`` at every public
boundary. ``INFINITY`` is the degenerate ratio x/0 of a positive cost over
a zero optimum: it dominates every comparison.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import ParameterViolation


class Infinity:
    """Singleton infinite ratio: ``INFINITY > x`` for every finite x."""

    _singleton = None
    __slots__ = ()

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash((Infinity, "inf"))

    def __lt__(self, other):
        if isinstance(other, (int, Fraction, Infinity)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (int, Fraction, Infinity)):
            return isinstance(other, Infinity)
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (int, Fraction, Infinity)):
            return not isinstance(other, Infinity)
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Fraction, Infinity)):
            return True
        return NotImplemented

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()

Cost = Union[Fraction, Infinity]


def is_finite(value: Cost) -> bool:
    return not isinstance(value, Infinity)


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


def format_rational(value: Cost) -> str:
    """Serialize as ``"num/den"`` (always with an explicit denominator)."""
    if isinstance(value, Infinity):
        return "inf"
    return f"{value.numerator}/{value.denominator}"


def as_decimal(value: Cost) -> float | None:
    """Float approximation for reports; None for the infinite ratio and for
    values beyond the float range."""
    if isinstance(value, Infinity):
        return None
    try:
        return float(value)
    except OverflowError:
        return None
