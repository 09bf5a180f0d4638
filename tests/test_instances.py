from fractions import Fraction

import pytest

from csglab.analysis import compute_ratios
from csglab.errors import ParameterViolation
from csglab.game import StrategyProfile, is_feasible, is_nash, max_cost, sum_cost, validate_scheme
from csglab.graphs import GraphClass, classify
from csglab.instances import (
    InstanceRecipe,
    build_recipe,
    crossed_dag,
    overhead_parallel,
    random_asymmetric,
    random_sp,
    two_link,
)
from csglab import flows


# --- crossed DAG ------------------------------------------------------------------


@pytest.mark.parametrize(
    "x,y",
    [(1, 2), (1, 100), (3, 9), (Fraction(1, 2), Fraction(2, 3)), (Fraction(5, 7), Fraction(6, 7))],
)
def test_crossed_dag_self_check_holds_across_points(x, y):
    inst = crossed_dag(x, y)
    x, y = Fraction(x), Fraction(y)
    disjoint = inst.profile(((0, 2, 6), (1, 5)))
    locked = inst.profile(((0, 3, 5), (1, 4, 6)))
    assert sum_cost(inst, disjoint) == 5 * x
    assert max_cost(inst, disjoint) == 3 * x
    assert sum_cost(inst, locked) == 4 * x + 2 * y
    assert max_cost(inst, locked) == 2 * x + y
    assert is_nash(inst, locked)


def test_crossed_dag_rejects_bad_parameters():
    with pytest.raises(ParameterViolation):
        crossed_dag(1, 1)
    with pytest.raises(ParameterViolation):
        crossed_dag(2, 1)
    with pytest.raises(ParameterViolation):
        crossed_dag(0, 1)


def test_crossed_dag_large_gap_ratio():
    report = compute_ratios(crossed_dag(1, 100))
    assert report.poa_sc.value == Fraction(204, 5)  # 4/5 + 2y/5x


# --- overhead parallel links ---------------------------------------------------------


def test_overhead_parallel_structure():
    inst = overhead_parallel(4, Fraction(1, 100))
    assert classify(inst.graph) is GraphClass.PARALLEL_LINK
    assert inst.schemes[0].base_cost == Fraction(1, 4)
    assert inst.schemes[0].capacity == 1
    for i in range(1, 4):
        assert inst.schemes[i].base_cost == 1
    wide = inst.schemes[4]
    assert wide.capacity == 4
    assert wide.shares[-1] == Fraction(101, 400)
    assert validate_scheme(wide) == ()


def test_overhead_parallel_rejects_bad_parameters():
    with pytest.raises(ParameterViolation):
        overhead_parallel(1, Fraction(1, 100))
    with pytest.raises(ParameterViolation):
        overhead_parallel(3, 0)
    with pytest.raises(ParameterViolation):
        overhead_parallel(3, Fraction(-1, 2))


# --- two-link -------------------------------------------------------------------------


def test_two_link_structure():
    inst = two_link(5)
    assert classify(inst.graph) is GraphClass.PARALLEL_LINK
    assert inst.schemes[0].base_cost == 1
    assert inst.schemes[1].base_cost == 5
    assert inst.capacities == {0: 5, 1: 5}


def test_two_link_rejects_zero_agents():
    with pytest.raises(ParameterViolation):
        two_link(0)


# --- random generators ------------------------------------------------------------------


def test_random_sp_is_deterministic():
    a = random_sp(42, 3)
    b = random_sp(42, 3)
    assert a.graph == b.graph
    assert a.schemes == b.schemes
    assert a.terminals == b.terminals


def test_random_sp_class_and_feasibility():
    for seed in range(20):
        inst = random_sp(seed, 2 + seed % 2, scheme_family="mixed")
        assert classify(inst.graph) in (GraphClass.PARALLEL_LINK, GraphClass.SERIES_PARALLEL)
        assert flows.max_flow(inst.graph, inst.capacities).value >= inst.n
        assert len(inst.graph.edges) <= 8  # depth-3 expressions cap the size


def test_random_sp_schemes_validate():
    for seed in range(12):
        inst = random_sp(seed + 40, 2, scheme_family="random")
        for scheme in inst.schemes.values():
            assert validate_scheme(scheme) == ()


def test_random_sp_rejects_bad_family():
    with pytest.raises(ParameterViolation):
        random_sp(1, 2, scheme_family="exotic")


def test_random_asymmetric_deterministic_feasible_dag():
    a = random_asymmetric(7, 2)
    b = random_asymmetric(7, 2)
    assert a.graph == b.graph and a.terminals == b.terminals
    for seed in range(12):
        inst = random_asymmetric(seed, 2 + seed % 2)
        assert classify(inst.graph) is GraphClass.DAG
        assert not inst.symmetric or inst.n == 0
        # construction promises at least one feasible profile
        from csglab.game import _find_feasible_assignment

        paths = _find_feasible_assignment(inst)
        assert paths is not None and is_feasible(inst, StrategyProfile(paths))


# --- recipes ------------------------------------------------------------------------------


def test_recipe_round_trip_labels():
    recipe = InstanceRecipe("fig3", {"n": 4, "eps": Fraction(1, 100)})
    inst = build_recipe(recipe)
    assert inst.n == 4
    assert recipe.as_document() == {"kind": "fig3", "params": {"n": "4", "eps": "1/100"}}


def test_recipe_dispatch():
    assert build_recipe(InstanceRecipe("two-link", {"n": 3})).n == 3
    assert build_recipe(InstanceRecipe("fig2", {"x": "1", "y": "2"})).n == 2
    assert build_recipe(InstanceRecipe("random-sp", {"seed": 3, "n": 2})).n == 2
    assert build_recipe(InstanceRecipe("random-asymmetric", {"seed": 3, "n": 2})).n == 2
    with pytest.raises(ParameterViolation):
        build_recipe(InstanceRecipe("mystery", {}))


def test_random_sp_routes_many_agents():
    # each capacity bump raises the min cut by at least one, so the bumps end
    # however many agents there are
    for seed in range(4):
        inst = random_sp(seed, 100)
        assert inst.n == 100
        assert flows.max_flow(inst.graph, inst.capacities).value >= 100
