from fractions import Fraction
from math import prod

import pytest

from csglab.analysis import (
    Criterion,
    all_nash,
    compute_ratios,
    enumerate_orbits,
    enumerate_profiles,
    optimal_profile,
    verify_lemma_cost_bound,
)
from csglab.dynamics import run_dynamics
from csglab.errors import NotSeriesParallel, PathExplosion
from csglab.game import (
    is_nash,
    make_instance,
    make_ordinary_scheme,
    make_threshold_scheme,
    max_cost,
    potential,
    sum_cost,
)
from csglab.graphs import GraphClass, make_graph
from csglab.instances import crossed_dag, overhead_parallel, random_asymmetric, random_sp, two_link

from helpers import oracle_feasible_profiles, oracle_is_nash

EPS = Fraction(1, 100)


# --- enumeration -----------------------------------------------------------------


def test_enumerate_crossed_dag_profiles_match_oracle():
    inst = crossed_dag(1, 2)
    got = enumerate_profiles(inst)
    expected = oracle_feasible_profiles(inst)
    assert got == expected
    # frozen from the oracle: six ordered feasible profiles (three unordered
    # pairings of the five routes survive the unit capacities)
    assert len(got) == 6


def test_enumerate_single_agent_parallel_links():
    graph = make_graph(["s", "t"], [(i, "s", "t") for i in range(4)], "s", "t")
    inst = make_instance(graph, {i: make_ordinary_scheme(i + 1, 1) for i in range(4)}, 1)
    assert [p.paths for p in enumerate_profiles(inst)] == [
        ((0,),),
        ((1,),),
        ((2,),),
        ((3,),),
    ]


def test_enumerate_excludes_overloads():
    inst = two_link(2)
    profiles = enumerate_profiles(inst)
    assert len(profiles) == 4  # both edges have capacity 2, no exclusions
    tight = make_instance(
        make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t"),
        {0: make_ordinary_scheme(1, 1), 1: make_ordinary_scheme(2, 2)},
        2,
    )
    kept = {p.paths for p in enumerate_profiles(tight)}
    assert kept == {((0,), (1,)), ((1,), (0,)), ((1,), (1,))}


def test_enumerate_raises_on_product_explosion():
    inst = two_link(5)
    with pytest.raises(PathExplosion) as info:
        enumerate_profiles(inst, cap=10)
    assert str(info.value) == "ordered profile product 2×2×2×2×2 = 32 exceeds the cap of 10"
    assert (info.value.cap, info.value.count) == (10, 32)
    # the cap bounds the ordered product, not the 6 orbits
    with pytest.raises(PathExplosion, match="2×2×2×2×2 = 32"):
        enumerate_orbits(inst, cap=10)


# --- orbits ------------------------------------------------------------------------


def _mixed_terminal_game():
    """Agents 0 and 2 share (s, t); agent 1 routes (s, a) between them."""
    graph = make_graph(
        ["s", "a", "t"],
        [(0, "s", "a"), (1, "s", "a"), (2, "a", "t"), (3, "s", "t"), (4, "s", "t")],
        "s",
        "t",
    )
    schemes = {
        0: make_ordinary_scheme(2, 2),
        1: make_threshold_scheme(3, 3, 2),
        2: make_ordinary_scheme(1, 2),
        3: make_ordinary_scheme(4, 2),
        4: make_ordinary_scheme(1, 1),
    }
    return make_instance(graph, schemes, [("s", "t"), ("s", "a"), ("s", "t")])


def _orbit_pool():
    """Symmetric SP games with binding capacities, all-distinct asymmetric
    DAG games, and the mixed game whose class members are not adjacent."""
    symmetric = [
        random_sp(seed, 3 + seed % 2, cap_range=(1, 2), scheme_family="mixed")
        for seed in range(7100, 7112)
    ] + [two_link(4), overhead_parallel(3, EPS)]
    asymmetric = []
    seed = 7200
    while len(asymmetric) < 8:
        inst = random_asymmetric(seed, 3, scheme_family="mixed")
        if len(set(inst.terminals)) == inst.n:
            asymmetric.append(inst)
        seed += 1
    binding = [
        inst
        for inst in symmetric
        if len(enumerate_profiles(inst)) < prod(len(inst.agent_paths(j)) for j in range(inst.n))
    ]
    assert len(binding) >= 6
    return symmetric + asymmetric + [_mixed_terminal_game()]


def _orbit_key(instance, profile):
    return tuple(sorted(zip(map(repr, instance.terminals), profile.paths)))


def _ordered_reference(instance):
    """Optima and equilibria from every ordered profile, grouped up to permutation."""
    profiles = enumerate_profiles(instance)
    optima = {}
    for criterion, cost in ((Criterion.SUM, sum_cost), (Criterion.MAX, max_cost)):
        best = None
        for profile in profiles:
            value = cost(instance, profile)
            if best is None or value < best[1]:
                best = (profile, value)
        optima[criterion] = best
    groups: dict = {}
    for profile in profiles:
        if is_nash(instance, profile):
            kept, count = groups.get(_orbit_key(instance, profile), (profile, 0))
            groups[_orbit_key(instance, profile)] = (kept, count + 1)
    entries = [
        (p, count, sum_cost(instance, p), max_cost(instance, p), potential(instance, p))
        for p, count in groups.values()
    ]
    return optima, entries, sum(count for _, count in groups.values())


def test_enumerate_orbits_two_link_multinomials():
    orbits = enumerate_orbits(two_link(5))
    assert [size for _, size in orbits] == [1, 5, 10, 10, 5, 1]
    assert [p.paths for p, _ in orbits] == [
        tuple([(0,)] * (5 - k) + [(1,)] * k) for k in range(6)
    ]


def test_enumerate_orbits_partitions_ordered_profiles():
    for inst in _orbit_pool():
        groups: dict = {}
        for profile in enumerate_profiles(inst):
            groups.setdefault(_orbit_key(inst, profile), []).append(profile)
        # each orbit is its first ordered member, in order, with its size
        assert enumerate_orbits(inst) == [(members[0], len(members)) for members in groups.values()]


def test_mixed_terminal_orbits_keep_classes_apart():
    inst = _mixed_terminal_game()
    orbits = enumerate_orbits(inst)
    assert sum(size for _, size in orbits) == len(enumerate_profiles(inst))
    # agent 1's path rank may fall below agent 0's; agent 2's may not
    assert any(p.paths[1] == (0,) and p.paths[0] != (0, 2) for p, _ in orbits)
    ranks = inst.agent_paths(0)
    assert all(ranks.index(p.paths[0]) <= ranks.index(p.paths[2]) for p, _ in orbits)
    assert {size for _, size in orbits} == {1, 2}


def test_orbit_analysis_matches_ordered_reference():
    for inst in _orbit_pool():
        optima, entries, total = _ordered_reference(inst)
        report = compute_ratios(inst)
        assert report.opt_sc == optima[Criterion.SUM] == optimal_profile(inst, Criterion.SUM)
        assert report.opt_mc == optima[Criterion.MAX] == optimal_profile(inst, Criterion.MAX)
        for equilibria in (report.equilibria, all_nash(inst)):
            got = [
                (e.profile, e.multiplicity, e.sum_cost, e.max_cost, e.potential)
                for e in equilibria.entries
            ]
            assert got == entries
            assert equilibria.total_count == total


# --- optima -----------------------------------------------------------------------


def test_optimal_profiles_crossed_dag():
    inst = crossed_dag(1, 2)
    _, sc_value = optimal_profile(inst, Criterion.SUM)
    _, mc_value = optimal_profile(inst, Criterion.MAX)
    assert sc_value == 5
    assert mc_value == 3


def test_optimal_profile_wide_edge_when_eps_small():
    inst = overhead_parallel(4, EPS)
    profile, value = optimal_profile(inst, Criterion.SUM)
    assert value == Fraction(101, 100)
    assert profile.paths == ((4,), (4,), (4,), (4,))


def test_optimal_profile_spread_when_eps_large():
    # with eps = 1 the packed profile costs 2, the spread one only 3/2, so the
    # generator's ratio formula does not apply and enumeration must decide
    inst = overhead_parallel(2, 1)
    profile, value = optimal_profile(inst, Criterion.SUM)
    assert value == Fraction(3, 2)
    assert sorted(profile.paths) == [(0,), (1,)]
    report = compute_ratios(inst)
    assert report.pos_sc.value == 1


def test_optimal_single_agent_shortest_path():
    graph = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t")
    inst = make_instance(
        graph, {0: make_ordinary_scheme(3, 1), 1: make_ordinary_scheme(2, 1)}, 1
    )
    profile, value = optimal_profile(inst, Criterion.SUM)
    assert profile.paths == ((1,),)
    assert value == 2


# --- equilibrium sets ----------------------------------------------------------------


def test_all_nash_overhead_parallel_unique():
    inst = overhead_parallel(4, EPS)
    equilibria = all_nash(inst)
    assert len(equilibria.entries) == 1
    entry = equilibria.entries[0]
    assert entry.sum_cost == Fraction(13, 4)
    assert entry.multiplicity == equilibria.total_count == 24  # 4! agent orders


def test_all_nash_two_link_has_both_extremes():
    inst = two_link(5)
    equilibria = all_nash(inst)
    paths = {entry.profile.paths for entry in equilibria.entries}
    assert paths == {tuple((0,) for _ in range(5)), tuple((1,) for _ in range(5))}
    assert equilibria.total_count == 2


def test_all_nash_crossed_dag_two_groups():
    inst = crossed_dag(1, 2)
    equilibria = all_nash(inst)
    assert equilibria.total_count == 4  # two unordered equilibria, agent swaps
    keys = {tuple(sorted(e.profile.paths)) for e in equilibria.entries}
    assert keys == {((0, 2, 6), (1, 5)), ((0, 3, 5), (1, 4, 6))}


def test_all_nash_agrees_with_oracle():
    for seed in range(6):
        inst = random_sp(seed + 900, 2, scheme_family="mixed")
        ne = [p for p in oracle_feasible_profiles(inst) if oracle_is_nash(inst, p)]
        assert all_nash(inst).total_count == len(ne)


# --- ratios and bounds -----------------------------------------------------------------


def test_ratios_two_link():
    report = compute_ratios(two_link(5))
    assert report.poa_sc.value == 5
    assert report.poa_mc.value == 5
    assert report.pos_sc.value == 1
    assert report.pos_mc.value == 1
    assert report.graph_class is GraphClass.PARALLEL_LINK
    assert all(check.holds for check in report.bounds)
    tags = {check.tag for check in report.bounds}
    assert tags == {"Thm5:PoA_sc<=n", "Thm9:PoA_mc<=n", "Thm8:PoS_sc<=n", "Thm10:PoS_mc<=n"}


def test_ratios_two_link_single_agent():
    report = compute_ratios(two_link(1))
    assert report.poa_sc.value == 1


def test_ratios_overhead_parallel():
    report = compute_ratios(overhead_parallel(4, EPS))
    assert report.pos_sc.value == Fraction(325, 101)
    assert report.poa_sc.value == Fraction(325, 101)


def test_ratios_crossed_dag():
    report = compute_ratios(crossed_dag(1, 2))
    assert report.graph_class is GraphClass.DAG
    assert report.poa_sc.value == Fraction(8, 5)
    assert report.poa_mc.value == Fraction(4, 3)
    assert report.pos_sc.value == 1
    # anarchy bounds are never asserted off series-parallel graphs
    tags = {check.tag for check in report.bounds}
    assert tags == {"Thm8:PoS_sc<=n", "Thm10:PoS_mc<=n"}


def test_ratio_invariants_on_random_instances():
    for seed in range(10):
        inst = random_sp(seed + 950, 2 + seed % 2, scheme_family="mixed")
        report = compute_ratios(inst)
        assert 1 <= report.pos_sc.value <= report.poa_sc.value
        assert 1 <= report.pos_mc.value <= report.poa_mc.value


def test_degenerate_all_zero_instance_flagged():
    graph = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t")
    inst = make_instance(
        graph, {0: make_ordinary_scheme(0, 2), 1: make_ordinary_scheme(0, 2)}, 2
    )
    report = compute_ratios(inst)
    assert report.poa_sc.value == 1
    assert report.poa_sc.degenerate
    assert all(check.holds for check in report.bounds)


def test_empty_game_report_is_degenerate_without_bounds():
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    inst = make_instance(graph, {0: make_ordinary_scheme(1, 1)}, 0)
    report = compute_ratios(inst)
    assert report.agents == 0
    assert report.poa_sc.value == 1 and report.poa_sc.degenerate
    assert report.bounds == ()
    assert report.equilibria.total_count == 1  # the empty profile


def test_asymmetric_bounds_tags():
    graph = make_graph([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 0, 1)], 0, 2)
    schemes = {i: make_ordinary_scheme(1, 2) for i in range(3)}
    inst = make_instance(graph, schemes, [(0, 1), (1, 2)])
    report = compute_ratios(inst)
    assert not report.symmetric
    tags = {check.tag for check in report.bounds}
    assert tags == {"Thm13:PoS_sc<=n", "Thm14:PoS_mc<=n^2"}


def test_dynamics_terminal_between_equilibrium_extremes():
    inst = crossed_dag(1, 2)
    equilibria = all_nash(inst)
    lo_sc = min(e.sum_cost for e in equilibria.entries)
    hi_sc = max(e.sum_cost for e in equilibria.entries)
    lo_mc = min(e.max_cost for e in equilibria.entries)
    hi_mc = max(e.max_cost for e in equilibria.entries)
    for start in enumerate_profiles(inst):
        terminal = run_dynamics(inst, start).terminal
        assert lo_sc <= sum_cost(inst, terminal) <= hi_sc
        assert lo_mc <= max_cost(inst, terminal) <= hi_mc


# --- the per-agent cost bound -------------------------------------------------------------


def test_lemma_cost_bound_on_families():
    assert verify_lemma_cost_bound(two_link(4)).holds
    assert verify_lemma_cost_bound(overhead_parallel(3, EPS)).holds
    for seed in range(10):
        inst = random_sp(seed + 980, 2 + seed % 2, scheme_family="mixed")
        assert verify_lemma_cost_bound(inst).holds


def test_lemma_cost_bound_rejects_non_sp():
    with pytest.raises(NotSeriesParallel):
        verify_lemma_cost_bound(crossed_dag(1, 2))
