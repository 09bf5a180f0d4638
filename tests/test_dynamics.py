from fractions import Fraction

import pytest

from csglab import dynamics
from csglab.analysis import Criterion, enumerate_profiles, optimal_profile
from csglab.dynamics import (
    DeviationPolicy,
    RebuildRound,
    best_response,
    low_max_cost_equilibrium,
    run_dynamics,
    _reinsert_agent,
)
from csglab.errors import NotSymmetric, ParameterViolation, StepCapExceeded
from csglab.flows import ResidualArc
from csglab.game import (
    StrategyProfile,
    is_feasible,
    is_nash,
    make_instance,
    make_ordinary_scheme,
    max_cost,
    potential,
    sum_cost,
)
from csglab.graphs import make_graph
from csglab.instances import overhead_parallel, random_sp, two_link

from helpers import oracle_feasible_profiles

EPS = Fraction(1, 100)


# --- best response ---------------------------------------------------------------


def test_best_response_flees_the_wide_edge():
    inst = overhead_parallel(4, EPS)
    crowded = inst.profile(((4,), (4,), (4,), (4,)))
    move = best_response(inst, crowded, 0)
    assert move is not None
    assert move.new_path == (0,)
    assert move.new_cost == Fraction(1, 4)
    assert move.old_cost == (1 + EPS) / 4


def test_best_response_unchanged_on_unique_path():
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    inst = make_instance(graph, {0: make_ordinary_scheme(3, 1)}, 1)
    assert best_response(inst, inst.profile(((0,),)), 0) is None


def test_best_response_ties_do_not_move():
    # everyone on the expensive edge pays 1; the cheap edge also costs 1 solo
    inst = two_link(5)
    crowded = inst.profile(tuple((1,) for _ in range(5)))
    for agent in range(5):
        assert best_response(inst, crowded, agent) is None


def test_first_improvement_prefers_lexicographic_path():
    inst = overhead_parallel(3, EPS)
    crowded = inst.profile(((3,), (3,), (3,)))
    trace = run_dynamics(inst, crowded, DeviationPolicy(rule="first_improving"))
    step = trace.steps[0]
    # edge 0 is the lowest edge id that strictly improves
    assert (step.agent, step.old_path, step.new_path) == (0, (3,), (0,))


# --- run_dynamics ------------------------------------------------------------------


def test_dynamics_from_packed_optimum_reaches_spread_equilibrium():
    inst = overhead_parallel(4, EPS)
    packed = inst.profile(((4,), (4,), (4,), (4,)))
    trace = run_dynamics(inst, packed)
    assert sum_cost(inst, trace.terminal) == Fraction(13, 4)  # n - 1 + 1/n
    assert is_nash(inst, trace.terminal)
    pots = trace.potentials()
    assert all(a > b for a, b in zip(pots, pots[1:]))


def test_dynamics_zero_steps_from_equilibrium():
    inst = two_link(3)
    cheap = inst.profile(((0,), (0,), (0,)))
    trace = run_dynamics(inst, cheap)
    assert trace.step_count == 0
    assert trace.terminal == cheap


def test_dynamics_potential_identity_holds_stepwise():
    for seed in range(20):
        inst = random_sp(seed + 700, 2 + seed % 2, scheme_family="mixed")
        profiles = oracle_feasible_profiles(inst)
        start = profiles[seed % len(profiles)]
        trace = run_dynamics(inst, start)
        assert is_nash(inst, trace.terminal)
        pot = trace.initial_potential
        for step in trace.steps:
            assert step.cost_delta < 0
            assert step.potential_after - pot == step.cost_delta
            pot = step.potential_after


def test_dynamics_policies_are_deterministic():
    inst = random_sp(31, 3, scheme_family="threshold")
    start = enumerate_profiles(inst)[0]
    policy = DeviationPolicy(ordering="random", seed=5)
    a = run_dynamics(inst, start, policy)
    b = run_dynamics(inst, start, policy)
    assert a == b


def test_dynamics_step_cap():
    inst = overhead_parallel(4, EPS)
    packed = inst.profile(((4,), (4,), (4,), (4,)))
    with pytest.raises(StepCapExceeded):
        run_dynamics(inst, packed, step_cap=1)


def test_policy_validation():
    with pytest.raises(ParameterViolation):
        DeviationPolicy(ordering="sideways")
    with pytest.raises(ParameterViolation):
        DeviationPolicy(rule="fastest")


# --- the rebuild procedure -----------------------------------------------------------


def test_rebuild_two_link_hits_the_bound():
    inst = two_link(5)
    opt_profile, opt_value = optimal_profile(inst, Criterion.MAX)
    result = low_max_cost_equilibrium(inst, opt_profile)
    # brute force confirms an equilibrium with max-cost <= n * opt exists and
    # the procedure lands on a qualifying one
    target = 5 * opt_value
    assert max_cost(inst, result.equilibrium) <= target
    assert is_nash(inst, result.equilibrium)
    qualifying = [
        p
        for p in enumerate_profiles(inst)
        if is_nash(inst, p) and max_cost(inst, p) <= target
    ]
    assert qualifying
    assert result.equilibrium in qualifying


def test_rebuild_zero_rounds_when_dynamics_already_good():
    inst = overhead_parallel(4, Fraction(1, 1000))
    opt_profile, opt_value = optimal_profile(inst, Criterion.MAX)
    result = low_max_cost_equilibrium(inst, opt_profile)
    assert result.rounds == ()
    assert max_cost(inst, result.equilibrium) <= 4 * opt_value


def test_rebuild_requires_symmetric():
    graph = make_graph([0, 1, 2], [(0, 0, 1), (1, 1, 2)], 0, 2)
    schemes = {0: make_ordinary_scheme(1, 2), 1: make_ordinary_scheme(1, 2)}
    inst = make_instance(graph, schemes, [(0, 1), (1, 2)])
    start = inst.profile(((0,), (1,)))
    with pytest.raises(NotSymmetric):
        low_max_cost_equilibrium(inst, start)


def test_rebuild_random_sp_bound_with_enumeration_oracle():
    for seed in range(25):
        n = 2 + seed % 2
        inst = random_sp(seed + 800, n, scheme_family="mixed")
        opt_profile, opt_value = optimal_profile(inst, Criterion.MAX)
        result = low_max_cost_equilibrium(inst, opt_profile)
        assert is_nash(inst, result.equilibrium)
        assert max_cost(inst, result.equilibrium) <= n * opt_value
        for record in result.rounds:
            assert record.rebuilt_path_cost <= sum_cost(inst, opt_profile)
            assert record.rebuilt_potential < record.equilibrium_potential


def test_rebuild_all_zero_costs():
    graph = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t")
    schemes = {0: make_ordinary_scheme(0, 2), 1: make_ordinary_scheme(0, 2)}
    inst = make_instance(graph, schemes, 2)
    start = inst.profile(((0,), (0,)))
    result = low_max_cost_equilibrium(inst, start)
    assert max_cost(inst, result.equilibrium) == 0


def test_rebuild_round_runs_in_instance_units(monkeypatch):
    # No small game settles above the target, so drive one: the first settle
    # on two-link(3) parks agent 0 on the cost-3 edge, above the reference
    # sum-cost of 1, and the rebuild moves it back
    real = dynamics.run_dynamics
    settles = []

    def driven(instance, start, policy=dynamics.DEFAULT_POLICY, step_cap=dynamics.DEFAULT_STEP_CAP):
        settles.append(start)
        if len(settles) > 1:
            return real(instance, start, policy, step_cap)
        terminal = StrategyProfile(((1,), (0,), (0,)))
        return dynamics.DynamicsTrace(start, terminal, (), potential(instance, terminal))

    monkeypatch.setattr(dynamics, "run_dynamics", driven)
    inst = two_link(3)
    reference = inst.profile(((0,), (0,), (0,)))
    result = low_max_cost_equilibrium(inst, reference)
    assert result.equilibrium == reference
    assert result.rounds == (
        RebuildRound(
            removed_agent=0,
            equilibrium_max_cost=Fraction(3),
            equilibrium_potential=Fraction(9, 2),
            augmenting_arcs=(ResidualArc(0, True),),
            rebuilt_path_cost=Fraction(1),
            rebuilt_potential=Fraction(11, 6),
            settled_potential=Fraction(11, 6),
        ),
    )


# --- reinsertion internals -------------------------------------------------------------


def diamond_instance():
    graph = make_graph(
        ["s", "u", "v", "t"],
        [(0, "s", "u"), (1, "s", "v"), (2, "u", "v"), (3, "u", "t"), (4, "v", "t")],
        "s",
        "t",
    )
    schemes = {i: make_ordinary_scheme(1, 1) for i in range(5)}
    return make_instance(graph, schemes, 2)


def test_reinsert_forward_only_path():
    inst = two_link(3)
    reference = inst.profile(((0,), (0,), (0,)))
    partial = StrategyProfile(((0,), (0,)))
    rebuilt, arcs, path_cost = _reinsert_agent(
        inst, reference.loads, partial, removed=1
    )
    assert all(arc.forward for arc in arcs)
    assert rebuilt.paths == ((0,), (0,), (0,))
    assert path_cost == 1


def test_reinsert_backward_arc_reroutes_by_decomposition():
    # the partial profile takes the crossing route, so reinserting the removed
    # agent must push a unit back across the middle edge and re-split paths
    inst = diamond_instance()
    reference = inst.profile(((0, 3), (1, 4)))
    partial = StrategyProfile(((0, 2, 4),))
    rebuilt, arcs, path_cost = _reinsert_agent(
        inst, reference.loads, partial, removed=0
    )
    assert ResidualArc(2, False) in arcs
    assert rebuilt.paths == ((0, 3), (1, 4))
    assert is_feasible(inst, rebuilt)
    # forward arcs all lie inside the reference profile's edges
    for arc in arcs:
        if arc.forward:
            assert reference.loads.get(arc.edge_id, 0) > 0
    assert path_cost == 2  # edges 1 and 3
