"""Instance generators: the constructed families plus seeded random ones.

Of the three hand-built families, only `crossed_dag` checks its arithmetic on
construction: it fails loudly if the reconstruction ever drifts from the
intended values.
Random generators are pure functions of their seed.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from typing import Mapping

from . import flows
from .errors import GenerationFailed, ParameterViolation, SelfCheckFailed
from .game import (
    SCHEME_FAMILIES,
    GameInstance,
    CostSharingScheme,
    RationalLike,
    StrategyProfile,
    is_nash,
    make_instance,
    make_ordinary_scheme,
    make_threshold_scheme,
    max_cost,
    sum_cost,
)
from .graphs import Frozen, GraphClass, classify, enumerate_st_paths, make_graph
from .rational import parse_rational


def crossed_dag(x: RationalLike, y: RationalLike) -> GameInstance:
    """Two-agent game on a seven-edge acyclic graph with a crossing lane.

    All capacities are 1 and sharing is ordinary. The cheap profile routes
    the agents disjointly for a total of 5x; the locked-in equilibrium uses
    both crossing edges for a total of 4x + 2y, so the anarchy ratio grows
    without bound as y/x does. Requires 0 < x < y.
    """
    x = Fraction(x)
    y = Fraction(y)
    if not 0 < x < y:
        raise ParameterViolation("crossed_dag needs 0 < x < y")

    nodes = ["s", "a", "b", "c", "t"]
    edges = [
        (0, "s", "a"),
        (1, "s", "b"),
        (2, "a", "c"),
        (3, "a", "b"),
        (4, "b", "c"),
        (5, "b", "t"),
        (6, "c", "t"),
    ]
    costs = {0: x, 1: x, 2: x, 3: y, 4: y, 5: x, 6: x}
    graph = make_graph(nodes, edges, "s", "t")
    schemes = {eid: make_ordinary_scheme(costs[eid], 1) for eid in costs}
    instance = make_instance(graph, schemes, 2)

    disjoint = instance.profile(((0, 2, 6), (1, 5)))
    locked = instance.profile(((0, 3, 5), (1, 4, 6)))
    expectations = (
        ("disjoint profile sum", sum_cost(instance, disjoint), 5 * x),
        ("disjoint profile max", max_cost(instance, disjoint), 3 * x),
        ("locked profile sum", sum_cost(instance, locked), 4 * x + 2 * y),
        ("locked profile max", max_cost(instance, locked), 2 * x + y),
    )
    for label, got, want in expectations:
        if got != want:
            raise SelfCheckFailed(f"{label}: got {got}, expected {want}")
    if not is_nash(instance, locked):
        raise SelfCheckFailed("locked profile is not an equilibrium")
    return instance


def overhead_parallel(n: int, eps: RationalLike) -> GameInstance:
    """Parallel-link game whose only equilibrium is expensive.

    n + 1 parallel edges: a single cheap slot of cost 1/n, n - 1 unit-cost
    slots, and one wide edge of cost 1 + eps and capacity n whose sharing
    carries full overhead below a full house. The socially best profile
    packs everyone on the wide edge, but it always unravels to the spread
    equilibrium of total cost n - 1 + 1/n.
    """
    if n < 2:
        raise ParameterViolation("overhead_parallel needs n >= 2")
    eps = Fraction(eps)
    if eps <= 0:
        raise ParameterViolation("overhead_parallel needs eps > 0")

    nodes = ["s", "t"]
    edges = [(i, "s", "t") for i in range(n + 1)]
    graph = make_graph(nodes, edges, "s", "t")
    schemes: dict[int, CostSharingScheme] = {0: make_ordinary_scheme(Fraction(1, n), 1)}
    for i in range(1, n):
        schemes[i] = make_ordinary_scheme(Fraction(1), 1)
    schemes[n] = make_threshold_scheme(1 + eps, n, n)
    return make_instance(graph, schemes, n)


def two_link(n: int) -> GameInstance:
    """n agents over two parallel edges of cost 1 and n, both capacity n."""
    if n < 1:
        raise ParameterViolation("two_link needs n >= 1")
    graph = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t")
    schemes = {
        0: make_ordinary_scheme(1, n),
        1: make_ordinary_scheme(n, n),
    }
    return make_instance(graph, schemes, n)


# --- random families ---------------------------------------------------------


def _random_cost(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 3))


def _random_valid_scheme(
    rng: random.Random, base_cost: Fraction, capacity: int
) -> CostSharingScheme:
    """Sample a table, then clamp each entry into its admissible interval,
    which makes it valid by construction."""
    shares: list[Fraction] = []
    for load in range(1, capacity + 1):
        if load == 1:
            shares.append(base_cost)
            continue
        low = base_cost / load
        high = shares[-1]
        weight = Fraction(rng.randint(0, 4), 4)
        shares.append(low + (high - low) * weight)
    return CostSharingScheme(base_cost, capacity, tuple(shares))


def _scheme_for(
    rng: random.Random, family: str, base_cost: Fraction, capacity: int
) -> CostSharingScheme:
    if family == "mixed":
        family = rng.choice(("ordinary", "threshold", "random"))
    if family == "ordinary":
        return make_ordinary_scheme(base_cost, capacity)
    if family == "threshold":
        return make_threshold_scheme(base_cost, capacity, rng.randint(1, capacity))
    if family == "random":
        return _random_valid_scheme(rng, base_cost, capacity)
    raise ParameterViolation(f"unknown scheme family {family!r}")


def random_sp(
    seed: int,
    agents: int,
    max_depth: int = 3,
    cap_range: tuple[int, int] = (1, 3),
    scheme_family: str = "ordinary",
) -> GameInstance:
    """Seeded random symmetric game on a series-parallel graph.

    Capacities start in ``cap_range`` and are bumped along random
    source->sink paths until the graph can route all agents, so the result
    is always feasible. Identical seeds give identical instances.
    """
    if agents < 1:
        raise ParameterViolation("need at least one agent")
    # the tree has at most 2**(max_depth + 1) - 1 nodes
    if not 0 <= max_depth <= 16:
        raise ParameterViolation(f"max_depth must lie in 0..16, got {max_depth}")
    if scheme_family not in SCHEME_FAMILIES:
        raise ParameterViolation(f"scheme_family must be one of {SCHEME_FAMILIES}")
    if cap_range[0] < 1 or cap_range[0] > cap_range[1]:
        raise ParameterViolation("bad capacity range")

    rng = random.Random(seed)
    # draw the SP expression tree in pre-order, laying out each node as drawn
    nodes = [0, 1]
    edges: list[tuple[int, int, int]] = []
    pending = [(max_depth, 0, 1)]
    while pending:
        level, tail, head = pending.pop()
        if level == 0 or rng.random() < 0.3:
            edges.append((len(edges), tail, head))
        elif rng.choice(("series", "parallel")) == "series":
            nodes.append(len(nodes))
            pending += [(level - 1, nodes[-1], head), (level - 1, tail, nodes[-1])]
        else:
            pending += [(level - 1, tail, head), (level - 1, tail, head)]
    graph = make_graph(nodes, edges, 0, 1)
    capacities = {e.id: rng.randint(*cap_range) for e in graph.edges}
    paths = enumerate_st_paths(graph)
    # every source->sink cut meets each path, so each bump raises the min cut
    # by at least one and at most ``agents`` bumps are needed
    while flows.max_flow(graph, capacities).value < agents:
        for edge_id in rng.choice(paths):
            capacities[edge_id] += 1
    schemes = {eid: _scheme_for(rng, scheme_family, _random_cost(rng), cap) for eid, cap in capacities.items()}
    return make_instance(graph, schemes, agents)


def random_asymmetric(
    seed: int,
    agents: int,
    scheme_family: str = "ordinary",
) -> GameInstance:
    """Seeded random game on a DAG of 4 to 6 nodes with per-agent terminal pairs.

    Each agent gets a terminal pair that some path connects; capacities
    (drawn from 1..2) are lifted to cover one concrete assignment, so
    construction always yields a feasible game. Regenerates until the graph
    is a proper DAG (not SP).
    """
    if agents < 1:
        raise ParameterViolation("need at least one agent")
    if scheme_family not in SCHEME_FAMILIES:
        raise ParameterViolation(f"scheme_family must be one of {SCHEME_FAMILIES}")
    rng = random.Random(seed)

    for _ in range(64):
        count = rng.randint(4, 6)
        nodes = list(range(count))
        edges = []
        eid = 0
        for i in range(count):
            for j in range(i + 1, count):
                if rng.random() < 0.55:
                    edges.append((eid, i, j))
                    eid += 1
        if len(edges) < 3:
            continue
        graph = make_graph(nodes, edges, 0, count - 1)
        if classify(graph) is not GraphClass.DAG:
            continue

        terminals: list[tuple[int, int]] = []
        pick: list[tuple[int, ...]] = []
        ok = True
        for _ in range(agents):
            for _ in range(32):
                u = rng.randint(0, count - 2)
                v = rng.randint(u + 1, count - 1)
                options = enumerate_st_paths(graph, u, v)
                if options:
                    terminals.append((u, v))
                    pick.append(rng.choice(options))
                    break
            else:
                ok = False
                break
        if not ok:
            continue

        capacities = {e.id: rng.randint(1, 2) for e in graph.edges}
        for edge_id, load in StrategyProfile(tuple(pick)).loads.items():
            capacities[edge_id] = max(capacities[edge_id], load)

        schemes = {eid: _scheme_for(rng, scheme_family, _random_cost(rng), cap) for eid, cap in capacities.items()}
        # feasible by construction: the capacities hold every picked path
        return make_instance(graph, schemes, terminals, certify=False)
    raise GenerationFailed(f"could not build an asymmetric DAG instance for seed {seed}")


# --- recipes -----------------------------------------------------------------


class InstanceRecipe(Frozen):
    """Serializable provenance for a generated instance: its kind (fig2 | fig3 |
    two-link | random-sp | random-asymmetric | custom) and parameters."""

    FIELDS = ("kind", "params")
    __hash__ = None  # params is a dict

    def __init__(self, kind: str, params: Mapping[str, object] | None = None):
        self.__dict__.update(kind=kind, params={} if params is None else params)

    def as_document(self) -> dict:
        return {"kind": self.kind, "params": {k: str(v) for k, v in self.params.items()}}


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parameter(name: str, value: object) -> object:
    """n, seed and max_depth as integers: a non-bool int or ASCII digits with an
    optional sign; x, y and eps as rationals: a Fraction, a non-bool int or text
    that parse_rational accepts; any other parameter as given."""
    if name in ("x", "y", "eps"):
        if isinstance(value, str):
            return parse_rational(value)
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return Fraction(value)
        raise ParameterViolation(f"recipe parameter {name} must be a rational, got {value!r}")
    if name in ("n", "seed", "max_depth"):
        if isinstance(value, str) and _INTEGER.fullmatch(value):
            return parse_rational(value).numerator  # beyond int()'s digit limit: ParameterViolation
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterViolation(f"recipe parameter {name} must be an integer, got {value!r}")
    return value


def build_recipe(recipe: InstanceRecipe) -> GameInstance:
    p = {name: _parameter(name, value) for name, value in recipe.params.items()}
    if recipe.kind == "fig2":
        return crossed_dag(p["x"], p["y"])
    if recipe.kind == "fig3":
        return overhead_parallel(p["n"], p["eps"])
    if recipe.kind == "two-link":
        return two_link(p["n"])
    if recipe.kind == "random-sp":
        return random_sp(p["seed"], p["n"], max_depth=p.get("max_depth", 3), scheme_family=p.get("scheme", "ordinary"))
    if recipe.kind == "random-asymmetric":
        return random_asymmetric(p["seed"], p["n"], scheme_family=p.get("scheme", "ordinary"))
    raise ParameterViolation(f"unknown recipe kind {recipe.kind!r}")
