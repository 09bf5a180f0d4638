from fractions import Fraction

import pytest

from csglab.errors import ParameterViolation, SchemeViolation
from csglab.game import (
    CostSharingScheme,
    is_ordinary_scheme,
    make_ordinary_scheme,
    make_scheme,
    make_instance,
    make_threshold_scheme,
    validate_scheme,
)
from csglab.graphs import make_graph


def test_ordinary_table_values():
    scheme = make_ordinary_scheme(6, 3)
    assert scheme.shares == (Fraction(6), Fraction(3), Fraction(2))
    assert validate_scheme(scheme) == ()


def test_ordinary_zero_cost():
    scheme = make_ordinary_scheme(0, 4)
    assert scheme.shares == (Fraction(0),) * 4
    assert validate_scheme(scheme) == ()


def test_every_ordinary_scheme_validates():
    for p in (Fraction(1, 3), Fraction(2), Fraction(7, 2)):
        for c in range(0, 6):
            assert validate_scheme(make_ordinary_scheme(p, c)) == ()


def test_threshold_matches_wide_edge_table():
    scheme = make_threshold_scheme(Fraction(101, 100), 4, 4)
    assert scheme.shares == (
        Fraction(101, 100),
        Fraction(101, 100),
        Fraction(101, 100),
        Fraction(101, 400),
    )
    assert validate_scheme(scheme) == ()


def test_threshold_at_one_is_ordinary():
    assert make_threshold_scheme(5, 3, 1) == make_ordinary_scheme(5, 3)
    assert is_ordinary_scheme(make_threshold_scheme(5, 3, 1))


def test_threshold_simple_pair():
    assert make_threshold_scheme(1, 2, 2).shares == (Fraction(1), Fraction(1, 2))


def test_threshold_rejects_bad_pivot():
    with pytest.raises(ParameterViolation):
        make_threshold_scheme(1, 2, 0)
    with pytest.raises(ParameterViolation):
        make_threshold_scheme(1, 2, 3)


def test_validate_reports_increase():
    scheme = CostSharingScheme(Fraction(5), 2, (Fraction(5), Fraction(6)))
    problems = validate_scheme(scheme)
    assert any(p.prop == "1" and p.index == 1 for p in problems)


def test_validate_reports_floor_violation():
    scheme = CostSharingScheme(Fraction(5), 2, (Fraction(5), Fraction(2)))
    problems = validate_scheme(scheme)
    assert any(p.prop == "2" and p.index == 2 for p in problems)


def test_validate_reports_solo_price():
    scheme = CostSharingScheme(Fraction(5), 2, (Fraction(4), Fraction(4)))
    problems = validate_scheme(scheme)
    assert any(p.prop == "3" and p.index == 1 for p in problems)


def test_make_scheme_raises_on_invalid_table():
    with pytest.raises(SchemeViolation):
        make_scheme(5, 2, [5, 6])


def test_prefix_sums():
    # the potential's prefix sums live on the instance, scaled to integers
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    three = make_instance(graph, {0: make_ordinary_scheme(1, 3)}, 3)
    assert three.scale == 6
    assert three.scaled_prefix[0] == (0, 6, 9, 11)  # 6 * (0, 1, 3/2, 11/6)
    # loads never exceed the agent count, so the table stops there
    two = make_instance(graph, {0: make_ordinary_scheme(1, 3)}, 2)
    assert (two.scale, two.scaled_prefix[0]) == (2, (0, 2, 3))
