from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csglab.errors import ParameterViolation, SchemeViolation
from csglab.game import (
    CostSharingScheme,
    is_ordinary_scheme,
    make_ordinary_scheme,
    make_instance,
    make_threshold_scheme,
    SchemeProblem,
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


def test_make_instance_raises_on_invalid_table():
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    table = CostSharingScheme(Fraction(5), 2, (Fraction(5), Fraction(6)))
    with pytest.raises(SchemeViolation, match="share increases from 5 at 1 to 6 at 2"):
        make_instance(graph, {0: table}, 1)


def test_prefix_sums():
    # the potential's prefix sums live on the instance, scaled to integers
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    three = make_instance(graph, {0: make_ordinary_scheme(1, 3)}, 3)
    assert three.scale == 6
    assert three.scaled_prefix[0] == (0, 6, 9, 11)  # 6 * (0, 1, 3/2, 11/6)
    # loads never exceed the agent count, so the table stops there
    two = make_instance(graph, {0: make_ordinary_scheme(1, 3)}, 2)
    assert (two.scale, two.scaled_prefix[0]) == (2, (0, 2, 3))


def fraction_validate(scheme):
    """The three properties checked with Fraction arithmetic: the oracle for
    validate_scheme, which compares cross-multiplied integers."""
    p = scheme.base_cost
    shares = scheme.shares
    if len(shares) != scheme.capacity:
        return (SchemeProblem("shape", 0, f"table has {len(shares)} entries for capacity {scheme.capacity}"),)
    if p < 0:
        return (SchemeProblem("shape", 0, f"base cost {p} is negative"),)
    problems = []
    if scheme.capacity >= 1 and shares[0] != p:
        problems.append(SchemeProblem("3", 1, f"solo share {shares[0]} differs from base cost {p}"))
    for x in range(1, scheme.capacity):
        if shares[x - 1] < shares[x]:
            problems.append(
                SchemeProblem("1", x, f"share increases from {shares[x-1]} at {x} to {shares[x]} at {x+1}")
            )
    for x in range(1, scheme.capacity + 1):
        if shares[x - 1] < p / x:
            problems.append(SchemeProblem("2", x, f"share {shares[x-1]} at load {x} is below {p}/{x}"))
    return tuple(problems)


@st.composite
def share_tables(draw):
    """Tables of capacity 0..6 and length capacity - 1 .. capacity + 1, with
    shares that often sit exactly on p, on p/x or on their neighbour."""
    capacity = draw(st.integers(0, 6))
    p = Fraction(draw(st.integers(-2, 9)), draw(st.integers(1, 4)))
    length = draw(st.integers(max(capacity - 1, 0), capacity + 1))
    shares = []
    for x in range(1, length + 1):
        near = [abs(p), abs(p) / x, *shares[-1:]]
        exact = st.sampled_from(near) | st.fractions(min_value=0, max_value=12, max_denominator=12)
        shares.append(draw(exact | st.fractions(min_value=0)))
    return CostSharingScheme(p, capacity, tuple(shares))


@settings(max_examples=500, deadline=None)
@given(share_tables())
def test_integer_validation_matches_the_fraction_oracle(scheme):
    assert validate_scheme(scheme) == fraction_validate(scheme)


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(7, 3), Fraction(101, 100), Fraction(12, 5)])
def test_generated_tables_validate_and_match_their_definitions(p):
    for capacity in range(31):
        ordinary = make_ordinary_scheme(p, capacity)
        assert ordinary.shares == tuple(p / x for x in range(1, capacity + 1))
        assert validate_scheme(ordinary) == ()
        for pivot in range(1, capacity + 1):
            threshold = make_threshold_scheme(p, capacity, pivot)
            assert threshold.shares == tuple(p if x < pivot else p / x for x in range(1, capacity + 1))
            assert validate_scheme(threshold) == ()
