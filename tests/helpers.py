"""Independent oracles used to freeze expected values in the tests.

These deliberately re-derive results by brute force, without touching the
library's search code, so the tests check the implementation against a
second route rather than against itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from csglab.game import Deviation, GameInstance, StrategyProfile, make_instance, make_ordinary_scheme
from csglab.graphs import Graph, make_graph


def oracle_paths(graph: Graph, source=None, sink=None) -> list[tuple[int, ...]]:
    """Recursive set-based DFS over simple paths, sorted lexicographically."""
    src = graph.source if source is None else source
    dst = graph.sink if sink is None else sink
    found: list[tuple[int, ...]] = []

    def explore(node, seen, acc):
        if node == dst:
            found.append(tuple(acc))
            return
        for edge in graph.edges:
            if edge.tail != node or edge.head in seen:
                continue
            explore(edge.head, seen | {edge.head}, acc + [edge.id])

    explore(src, {src}, [])
    return sorted(found)


def oracle_feasible_profiles(instance: GameInstance) -> list[StrategyProfile]:
    """Cross product of per-agent paths filtered by the capacity constraint."""
    per_agent = [oracle_paths(instance.graph, s, t) for s, t in instance.terminals]
    caps = instance.capacities
    out = []
    for combo in product(*per_agent):
        loads: dict[int, int] = {}
        for path in combo:
            for e in path:
                loads[e] = loads.get(e, 0) + 1
        if all(load <= caps[e] for e, load in loads.items()):
            out.append(StrategyProfile(tuple(combo)))
    return out


def oracle_is_nash(instance: GameInstance, profile: StrategyProfile) -> bool:
    """Full deviation scan recomputed from scratch via oracle_agent_cost."""
    for agent in range(instance.n):
        current = oracle_agent_cost(instance, profile, agent)
        s, t = instance.terminals[agent]
        for path in oracle_paths(instance.graph, s, t):
            rival = profile.replace(agent, path)
            if oracle_agent_cost(instance, rival, agent) < current:
                return False
    return True


def oracle_agent_cost(instance: GameInstance, profile: StrategyProfile, agent: int) -> Fraction | float:
    """Shares summed straight from the schemes, ``math.inf`` on any overload."""
    loads = profile.loads
    total = Fraction(0)
    for edge_id in profile.paths[agent]:
        scheme = instance.schemes[edge_id]
        if loads[edge_id] > scheme.capacity:
            return math.inf
        total += scheme.shares[loads[edge_id] - 1]
    return total


def oracle_social_costs(
    instance: GameInstance, profile: StrategyProfile
) -> tuple[Fraction | float, Fraction | float]:
    """Sum and max of oracle_agent_cost over every agent, (0, 0) for none."""
    costs = [oracle_agent_cost(instance, profile, agent) for agent in range(len(profile))]
    return sum(costs, Fraction(0)), max(costs, default=Fraction(0))


def oracle_best_response(
    instance: GameInstance, profile: StrategyProfile, agent: int
) -> Deviation | None:
    """Every path of the agent, costed by oracle_agent_cost, in lexicographic
    order; the first strictly cheapest one wins."""
    current = oracle_agent_cost(instance, profile, agent)
    best = None
    best_cost = current
    s, t = instance.terminals[agent]
    for path in oracle_paths(instance.graph, s, t):
        cost = oracle_agent_cost(instance, profile.replace(agent, path), agent)
        if cost < best_cost:
            best, best_cost = path, cost
    if best is None:
        return None
    return Deviation(agent, profile.paths[agent], best, current, best_cost)


def oracle_first_improvement(
    instance: GameInstance, profile: StrategyProfile, agent: int
) -> Deviation | None:
    """The first path of the agent, in oracle_paths order, whose
    oracle_agent_cost in the replaced profile is strictly below the current
    cost."""
    current = oracle_agent_cost(instance, profile, agent)
    s, t = instance.terminals[agent]
    for path in oracle_paths(instance.graph, s, t):
        cost = oracle_agent_cost(instance, profile.replace(agent, path), agent)
        if cost < current:
            return Deviation(agent, profile.paths[agent], path, current, cost)
    return None


def oracle_potential(instance: GameInstance, profile: StrategyProfile) -> Fraction:
    """Direct double loop over edges and loads."""
    total = Fraction(0)
    for edge_id, load in profile.loads.items():
        scheme = instance.schemes[edge_id]
        for x in range(1, load + 1):
            total += scheme.shares[x - 1]
    return total


def oracle_max_disjoint_path_count(graph: Graph) -> int:
    """Largest set of pairwise edge-disjoint s-t paths (unit-capacity max flow)."""
    paths = oracle_paths(graph)
    best = 0
    for size in range(1, len(paths) + 1):
        for combo in combinations(paths, size):
            used: set[int] = set()
            ok = True
            for path in combo:
                if used & set(path):
                    ok = False
                    break
                used |= set(path)
            if ok:
                best = max(best, size)
    return best


def oracle_extension_paths(
    instance: GameInstance, big: StrategyProfile, small: StrategyProfile
) -> list[tuple[int, ...]]:
    """All valid extension paths: within the big profile's edges, feasible when appended."""
    caps = instance.capacities
    small_loads = small.loads
    return [
        path
        for path in oracle_paths(instance.graph)
        if set(path) <= big.loads.keys()
        and all(small_loads.get(e, 0) + 1 <= caps[e] for e in path)
    ]


def oracle_residual_path(graph: Graph, capacities, values) -> tuple[tuple[int, bool], ...] | None:
    """Recursive depth-first residual search that lists and sorts each node's
    residual arcs, forward ones below capacity and backward ones carrying
    flow, and enters every node at most once. Arcs are (edge id, forward)."""
    entered = {graph.source}

    def explore(node):
        arcs = sorted(
            [(e.id, True, e.head) for e in graph.edges if e.tail == node and values.get(e.id, 0) < capacities.get(e.id, 0)]
            + [(e.id, False, e.tail) for e in graph.edges if e.head == node and values.get(e.id, 0) > 0]
        )
        for edge_id, forward, nxt in arcs:
            if nxt == graph.sink:
                return ((edge_id, forward),)
            if nxt not in entered:
                entered.add(nxt)
                rest = explore(nxt)
                if rest is not None:
                    return ((edge_id, forward),) + rest
        return None

    return explore(graph.source)


def oracle_augment(graph: Graph, capacities, values: dict[int, int]) -> tuple[dict[int, int], int] | None:
    """A copy of ``values`` pushed by the bottleneck along oracle_residual_path,
    with that bottleneck, or None when no residual path is left."""
    arcs = oracle_residual_path(graph, capacities, values)
    if arcs is None:
        return None
    bottleneck = min(
        capacities.get(edge_id, 0) - values.get(edge_id, 0) if forward else values.get(edge_id, 0)
        for edge_id, forward in arcs
    )
    updated = dict(values)
    for edge_id, forward in arcs:
        updated[edge_id] = updated.get(edge_id, 0) + (bottleneck if forward else -bottleneck)
    return updated, bottleneck


def oracle_max_flow(graph: Graph, capacities) -> tuple[dict[int, int], int]:
    """Per-edge values and value of repeated oracle_augment from zero flow."""
    values, value = {e.id: 0 for e in graph.edges}, 0
    while (step := oracle_augment(graph, capacities, values)) is not None:
        values, value = step[0], value + step[1]
    return values, value


def series_with_two_sinks() -> GameInstance:
    """The series graph s -> a -> t, one agent bound for a and one for t."""
    graph = make_graph(["s", "a", "t"], [(0, "s", "a"), (1, "a", "t")], "s", "t")
    schemes = {0: make_ordinary_scheme(1, 2), 1: make_ordinary_scheme(1, 2)}
    return make_instance(graph, schemes, [("s", "a"), ("s", "t")])
