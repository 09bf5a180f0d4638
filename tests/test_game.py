import random
import tracemalloc
from fractions import Fraction

import pytest

from csglab.errors import (
    InfeasibleGame,
    InfeasibleProfile,
    InternalAssertion,
    MalformedProfile,
    NotSeriesParallel,
    NotSymmetric,
    ParameterViolation,
    PathExplosion,
)
from csglab.game import (
    StrategyProfile,
    _scaled_costs,
    agent_cost,
    best_response,
    feasible_extension,
    is_feasible,
    is_nash,
    make_instance,
    make_ordinary_scheme,
    max_cost,
    potential,
    sum_cost,
)
from csglab.graphs import make_graph
from csglab.instances import crossed_dag, overhead_parallel, random_sp, two_link
from helpers import oracle_feasible_profiles, oracle_is_nash, oracle_potential, series_with_two_sinks


EPS = Fraction(1, 100)


def single_edge_instance(cost=5, capacity=1, agents=1):
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    return make_instance(graph, {0: make_ordinary_scheme(cost, capacity)}, agents)


def crowded_unit_links():
    """Two agents on two capacity-1 links, both on link 0: one path per
    agent, and link 0 overloaded."""
    graph = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t")
    schemes = {0: make_ordinary_scheme(5, 1), 1: make_ordinary_scheme(5, 1)}
    inst = make_instance(graph, schemes, 2)
    return inst, inst.profile(((0,), (0,)))


# --- profiles -----------------------------------------------------------------


def test_profile_validation():
    inst = crossed_dag(1, 2)
    profile = inst.profile(((0, 2, 6), (1, 5)))
    assert profile.loads == {0: 1, 2: 1, 6: 1, 1: 1, 5: 1}
    with pytest.raises(MalformedProfile):
        inst.profile(((0, 2, 6),))  # wrong agent count
    with pytest.raises(MalformedProfile):
        inst.profile(((0, 2), (1, 5)))  # ends off the sink
    with pytest.raises(MalformedProfile):
        inst.profile(((2, 6), (1, 5)))  # starts off the source
    with pytest.raises(MalformedProfile):
        inst.profile(((0, 99, 6), (1, 5)))  # unknown edge


def test_loads_cache_matches_recount():
    inst = two_link(4)
    profile = inst.profile(((0,), (1,), (0,), (1,)))
    recount = {}
    for path in profile.paths:
        for e in path:
            recount[e] = recount.get(e, 0) + 1
    assert profile.loads == recount


def test_instance_feasibility_certificate():
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    with pytest.raises(InfeasibleGame):
        make_instance(graph, {0: make_ordinary_scheme(1, 1)}, 2)
    make_instance(graph, {0: make_ordinary_scheme(1, 2)}, 2)


def test_asymmetric_feasibility_certificate():
    graph = make_graph([0, 1, 2], [(0, 0, 1), (1, 1, 2)], 0, 2)
    schemes = {0: make_ordinary_scheme(1, 1), 1: make_ordinary_scheme(1, 1)}
    make_instance(graph, schemes, [(0, 1), (1, 2)])
    with pytest.raises(InfeasibleGame):
        make_instance(graph, schemes, [(0, 1), (0, 1)])


def test_make_instance_requires_scheme_per_edge():
    graph = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t")
    with pytest.raises(ParameterViolation):
        make_instance(graph, {0: make_ordinary_scheme(1, 1)}, 1)


def test_make_instance_rejects_degenerate_terminals():
    graph = make_graph([0, 1, 2], [(0, 0, 1), (1, 1, 2)], 0, 2)
    schemes = {0: make_ordinary_scheme(1, 1), 1: make_ordinary_scheme(1, 1)}
    with pytest.raises(ParameterViolation):
        make_instance(graph, schemes, [(1, 1)])


# --- costs ----------------------------------------------------------------------


def test_agent_cost_crossing_equilibrium():
    inst = crossed_dag(1, 2)
    locked = inst.profile(((0, 3, 5), (1, 4, 6)))
    assert agent_cost(inst, locked, 0) == 4  # 2x + y at x=1, y=2
    assert agent_cost(inst, locked, 1) == 4


def test_agent_cost_single_agent_pays_base_cost():
    inst = single_edge_instance(cost=Fraction(7, 3))
    profile = inst.profile(((0,),))
    assert agent_cost(inst, profile, 0) == Fraction(7, 3)


def test_cost_views_refuse_an_overload():
    inst, crowded = crowded_unit_links()
    for view in (
        lambda: agent_cost(inst, crowded, 0),
        lambda: sum_cost(inst, crowded),
        lambda: max_cost(inst, crowded),
    ):
        with pytest.raises(InfeasibleProfile, match="^edge 0 loaded 2 over capacity 1$"):
            view()
    assert not is_feasible(inst, crowded)


def test_cost_kernel_puts_one_more_agent_on_the_added_path():
    inst, _ = crowded_unit_links()
    head = StrategyProfile(((0,),))
    alone = (5 * inst.scale, 5 * inst.scale)
    assert _scaled_costs(inst, head.loads, head.paths) == alone
    assert _scaled_costs(inst, head.loads, head.paths, (1,)) == alone
    # only the added agent overloads link 0, and no caller passes an overload
    with pytest.raises(InternalAssertion, match="cost kernel met edge 0 loaded 2 over capacity 1"):
        _scaled_costs(inst, head.loads, head.paths, (0,))


def test_sum_and_max_cost_crossed_dag():
    inst = crossed_dag(1, 2)
    locked = inst.profile(((0, 3, 5), (1, 4, 6)))
    disjoint = inst.profile(((0, 2, 6), (1, 5)))
    assert sum_cost(inst, locked) == 8  # 4x + 2y
    assert max_cost(inst, locked) == 4  # 2x + y
    assert sum_cost(inst, disjoint) == 5  # 5x
    assert max_cost(inst, disjoint) == 3  # 3x


def test_empty_game_costs_are_zero():
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    inst = make_instance(graph, {0: make_ordinary_scheme(1, 1)}, 0)
    profile = inst.profile(())
    assert sum_cost(inst, profile) == 0
    assert max_cost(inst, profile) == 0


# --- potential --------------------------------------------------------------------


def test_potential_single_agent_single_edge():
    inst = single_edge_instance(cost=Fraction(9, 2))
    assert potential(inst, inst.profile(((0,),))) == Fraction(9, 2)


def test_potential_two_sharers_partial_sum():
    inst = single_edge_instance(cost=6, capacity=2, agents=2)
    profile = inst.profile(((0,), (0,)))
    assert potential(inst, profile) == 9  # 6 + 3


def test_potential_rejects_infeasible():
    inst, crowded = crowded_unit_links()
    with pytest.raises(InfeasibleProfile):
        potential(inst, crowded)


def test_potential_matches_oracle_on_random_instances():
    rng = random.Random(5)
    for seed in range(10):
        inst = random_sp(seed + 300, 2 + seed % 2, scheme_family="mixed")
        profiles = oracle_feasible_profiles(inst)
        for profile in rng.sample(profiles, min(5, len(profiles))):
            assert potential(inst, profile) == oracle_potential(inst, profile)


def test_potential_sandwich():
    rng = random.Random(6)
    for seed in range(10):
        inst = random_sp(seed + 400, 2 + seed % 2, scheme_family="mixed")
        profiles = oracle_feasible_profiles(inst)
        for profile in rng.sample(profiles, min(5, len(profiles))):
            cost = sum_cost(inst, profile)
            pot = potential(inst, profile)
            assert cost <= pot <= inst.n * cost


def test_ordinary_fair_split_sums_to_base_costs():
    for seed in range(8):
        inst = random_sp(seed + 500, 2, scheme_family="ordinary")
        for profile in oracle_feasible_profiles(inst)[:20]:
            total = sum_cost(inst, profile)
            base = sum(inst.schemes[e].base_cost for e in profile.loads)
            assert total == base


# --- equilibrium test ----------------------------------------------------------------


def test_is_nash_crossing_profile():
    inst = crossed_dag(1, 2)
    locked = inst.profile(((0, 3, 5), (1, 4, 6)))
    assert is_nash(inst, locked) is True


def test_best_response_on_wide_edge_profile():
    inst = overhead_parallel(4, EPS)
    crowded = inst.profile(((4,), (4,), (4,), (4,)))
    assert is_nash(inst, crowded) is False
    witness = best_response(inst, crowded, 0)
    assert witness.agent == 0
    assert witness.new_path == (0,)
    assert witness.old_cost == (1 + EPS) / 4
    assert witness.new_cost == Fraction(1, 4)


def test_is_nash_single_agent_on_best_path():
    inst = single_edge_instance()
    assert is_nash(inst, inst.profile(((0,),)))


def test_is_nash_agrees_with_oracle():
    for seed in range(10):
        inst = random_sp(seed + 600, 2, scheme_family="mixed")
        for profile in oracle_feasible_profiles(inst)[:30]:
            assert is_nash(inst, profile) == oracle_is_nash(inst, profile)


def test_is_nash_requires_feasible_profile():
    inst, crowded = crowded_unit_links()
    with pytest.raises(InfeasibleProfile):
        is_nash(inst, crowded)


def count_scans(monkeypatch) -> list[str]:
    """The rule of every deviation scan made from now on, in call order."""
    from csglab import game

    rules: list[str] = []
    scan = game._improving_move

    def counted(instance, loads, held, agent, rule):
        rules.append(rule)
        return scan(instance, loads, held, agent, rule)

    monkeypatch.setattr(game, "_improving_move", counted)
    return rules


def test_is_nash_scans_each_path_class_once(monkeypatch):
    from csglab.analysis import all_nash

    inst = two_link(9)
    equilibria = [entry.profile for entry in all_nash(inst).entries]
    assert equilibria
    rules = count_scans(monkeypatch)
    for profile in equilibria:
        rules.clear()
        assert is_nash(inst, profile)
        assert rules == ["first_improving"] * len(set(profile.paths))
        assert len(rules) <= 2


def count_gates(monkeypatch) -> list[StrategyProfile]:
    """Every profile the gate checks from now on, in call order."""
    from csglab import dynamics, game

    profiles: list[StrategyProfile] = []
    gate = game._loads

    def counted(instance, profile):
        profiles.append(profile)
        return gate(instance, profile)

    monkeypatch.setattr(game, "_loads", counted)
    # dynamics imports the gate by name, so its binding is patched too
    monkeypatch.setattr(dynamics, "_loads", counted)
    return profiles


def test_is_nash_gates_its_profile_once(monkeypatch):
    from csglab.analysis import all_nash

    inst = two_link(9)
    equilibrium = all_nash(inst).entries[0].profile
    gated = count_gates(monkeypatch)
    assert is_nash(inst, equilibrium)
    assert gated == [equilibrium]


def test_dynamics_gates_each_visited_profile_once(monkeypatch):
    from csglab.dynamics import run_dynamics

    inst = two_link(9)
    gated = count_gates(monkeypatch)
    trace = run_dynamics(inst, StrategyProfile(((0,),) + ((1,),) * 8))
    assert trace.step_count > 0
    # the start, then the profile after each step
    assert len(gated) == trace.step_count + 1
    assert gated[0] == trace.start and gated[-1] == trace.terminal


def test_equilibrium_leaves_every_best_response_unchanged():
    from csglab.analysis import all_nash
    from csglab.dynamics import best_response

    inst = crossed_dag(1, 2)
    for entry in all_nash(inst).entries:
        for agent in range(inst.n):
            assert best_response(inst, entry.profile, agent) is None


# --- feasible extension ----------------------------------------------------------------


def test_extension_two_link_all_on_expensive():
    inst = two_link(4)
    big = StrategyProfile(((1,), (1,), (1,), (1,)))
    small = StrategyProfile(())
    # the expensive edge is the only one the big profile uses
    assert feasible_extension(inst, big, small) == (1,)


def test_extension_rejects_non_sp():
    inst = crossed_dag(1, 2)
    big = inst.profile(((0, 2, 6), (1, 5)))
    small = StrategyProfile(((0, 2, 6),))
    with pytest.raises(NotSeriesParallel):
        feasible_extension(inst, big, small)


def test_extension_requires_shared_terminals():
    inst = series_with_two_sinks()
    big = inst.profile(((0,), (0, 1)))
    with pytest.raises(NotSymmetric):
        feasible_extension(inst, big, StrategyProfile(((0,),)))


def test_extension_requires_fewer_small_agents():
    inst = two_link(2)
    big = StrategyProfile(((0,), (1,)))
    with pytest.raises(ParameterViolation):
        feasible_extension(inst, big, big)


def test_extension_fresh_path_case():
    inst = two_link(3)
    small = StrategyProfile(((0,), (1,)))
    big = StrategyProfile(((0,), (1,), (0,)))
    path = feasible_extension(inst, big, small)
    assert set(path) <= big.loads.keys()
    assert is_feasible(inst, StrategyProfile(small.paths + (path,)))


# --- the scaled tables stop at load n -------------------------------------------


def entry_points(inst, profile):
    """Every public function that takes a profile, each called on ``profile``."""
    from csglab.dynamics import low_max_cost_equilibrium, run_dynamics

    last = len(profile) - 1
    return (
        lambda: agent_cost(inst, profile, 0),
        lambda: agent_cost(inst, profile, last),
        lambda: sum_cost(inst, profile),
        lambda: max_cost(inst, profile),
        lambda: potential(inst, profile),
        lambda: best_response(inst, profile, 0),
        lambda: best_response(inst, profile, last),
        lambda: is_nash(inst, profile),
        lambda: run_dynamics(inst, profile),
        lambda: low_max_cost_equilibrium(inst, profile),
        lambda: feasible_extension(inst, profile, StrategyProfile(())),
    )


def test_costs_reject_a_profile_with_more_paths_than_agents():
    # capacity 3 admits load 2, but with one agent the tables stop at load 1
    one_edge = single_edge_instance(cost=6, capacity=3, agents=1)
    # link 0 (capacity 1) is overloaded as well, in either path order
    graph = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t")
    two_links = make_instance(graph, {0: make_ordinary_scheme(6, 1), 1: make_ordinary_scheme(6, 3)}, 1)
    # three links (costs 1, 5, 1; capacities 1, 2, 1) and three agents, two on
    # link 0: agent 0, alone on link 1, has a cheaper move, and still no
    # entry point answers anything about the profile
    graph = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t"), (2, "s", "t")], "s", "t")
    links = make_instance(graph, {e: make_ordinary_scheme(c, k) for e, c, k in ((0, 1, 1), (1, 5, 2), (2, 1, 1))}, 3)
    overloaded = (InfeasibleProfile, "edge 0 loaded 2 over capacity 1")
    cases = [
        (one_edge, ((0,), (0,)), (MalformedProfile, "profile has 2 paths but the instance has 1 agents")),
        (two_links, ((0,), (0,), (1,), (1,)), (MalformedProfile, "profile has 4 paths but the instance has 1 agents")),
        (two_links, ((1,), (1,), (0,), (0,)), (MalformedProfile, "profile has 4 paths but the instance has 1 agents")),
        (links, ((1,), (0,), (0,)), overloaded),
        (links, ((0,), (0,), (2,)), overloaded),
    ]
    for inst, paths, (error, message) in cases:
        for evaluate in entry_points(inst, StrategyProfile(paths)):
            with pytest.raises(error, match=f"^{message}$"):
                evaluate()
    # an overloaded small profile is refused as well
    with pytest.raises(InfeasibleProfile, match=f"^{overloaded[1]}$"):
        feasible_extension(links, links.profile(((0,), (1,), (2,))), StrategyProfile(((0,), (0,))))


def test_is_nash_rejects_paths_on_an_agentless_instance():
    inst = single_edge_instance(agents=0)
    with pytest.raises(MalformedProfile, match="profile has 1 paths but the instance has 0 agents"):
        is_nash(inst, StrategyProfile(((0,),)))


def test_feasibility_of_a_profile_with_more_paths_than_agents():
    inst = single_edge_instance(cost=6, capacity=3, agents=1)
    assert is_feasible(inst, StrategyProfile(((0,),) * 3))
    assert not is_feasible(inst, StrategyProfile(((0,),) * 4))


# --- the instance owns its path cap ----------------------------------------------


def chain_of_pairs(stages, cap):
    """One agent across ``stages`` parallel pairs (costs 1 and 2, capacity 1):
    2**stages paths, built under ``cap``."""
    edges = [(2 * i + k, i, i + 1) for i in range(stages) for k in (0, 1)]
    graph = make_graph(list(range(stages + 1)), edges, 0, stages)
    schemes = {eid: make_ordinary_scheme(eid % 2 + 1, 1) for eid, _, _ in edges}
    return make_instance(graph, schemes, 1, cap=cap)


def test_every_enumeration_of_an_agents_paths_uses_the_instance_cap():
    from csglab.analysis import compute_ratios
    from csglab.dynamics import run_dynamics

    stages = 14  # 16,384 paths, over the default cap of 10,000
    inst = chain_of_pairs(stages, cap=20000)
    cheap = tuple(range(0, 2 * stages, 2))
    dear = inst.profile((tuple(range(1, 2 * stages, 2)),))
    assert is_nash(inst, dear) is False
    assert best_response(inst, dear, 0).new_path == cheap
    trace = run_dynamics(inst, dear)
    assert trace.step_count == 1 and trace.terminal.paths == (cheap,)
    report = compute_ratios(inst, cap=20000)
    assert report.opt_sc[0].paths == (cheap,)
    assert len(inst.agent_paths(0)) == 2**stages

    small = chain_of_pairs(stages, cap=100)
    with pytest.raises(PathExplosion, match="exceeded the cap of 100$"):
        small.agent_paths(0)


def test_an_infeasible_agent_count_builds_no_per_agent_state():
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    schemes = {0: make_ordinary_scheme(1, 1)}
    tracemalloc.start()
    try:
        with pytest.raises(InfeasibleGame, match="max flow 1 cannot route 1000000 agents"):
            make_instance(graph, schemes, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
