"""Capacitated cost-sharing connection games.

An instance couples a directed multigraph with one validated cost-sharing
scheme per edge and one (source, sink) pair per agent. Agents pick paths;
the price each agent pays on an edge is the edge's tabulated share at the
edge's current load. A profile that loads an edge beyond its capacity is
not a strategy profile: every function that costs, tests or moves a profile
refuses it with ``InfeasibleProfile``, and ``is_feasible`` tells it apart.

Everything here is exact, and equality tests (Nash membership, ratio
checks) never tolerate rounding. Shares are Fractions; the hot path (agent
costs, potentials, the deviation scan) runs on integers: each instance
scales its shares by one common denominator, the lcm of the denominators of
every share an agent can meet. Values leave as ``Fraction(v, scale)``, so
every public return value is still a Fraction.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm, prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from . import flows
from .errors import (
    InfeasibleGame,
    InfeasibleProfile,
    InternalAssertion,
    MalformedProfile,
    NotSeriesParallel,
    NotSymmetric,
    ParameterViolation,
    PathExplosion,
    SchemeViolation,
)
from .graphs import (
    DEFAULT_PATH_CAP,
    EdgePath,
    Frozen,
    Graph,
    GraphClass,
    NodeId,
    classify,
    enumerate_st_paths,
    first_path,
)

RationalLike = Union[int, Fraction]


# --- cost-sharing schemes ---------------------------------------------------

# the share-table families the random generators draw
SCHEME_FAMILIES = ("ordinary", "threshold", "random", "mixed")


class SchemeProblem(NamedTuple):
    """One violated scheme property, identified by property id and table index."""

    prop: str  # "1" non-increasing, "2" share floor, "3" solo price
    # index shadows tuple.index; it stays because it is a public field name
    index: int  # 1-based load at which the property fails
    detail: str


class CostSharingScheme(NamedTuple):
    """Per-edge share table: ``shares[x-1]`` is the price per agent at load x.

    A valid table is non-increasing, bounded below by base_cost / x, and
    starts at exactly base_cost. Tabulating (instead of storing a function)
    keeps those properties finitely checkable.
    """

    base_cost: Fraction
    capacity: int
    shares: tuple[Fraction, ...]


def validate_scheme(scheme: CostSharingScheme) -> tuple[SchemeProblem, ...]:
    """Check the three scheme properties; empty result means the table is valid."""
    p = scheme.base_cost
    shares = scheme.shares
    if len(shares) != scheme.capacity:
        return (SchemeProblem("shape", 0, f"table has {len(shares)} entries for capacity {scheme.capacity}"),)
    # compared in integers, cross-multiplied: a/b < e/f iff a*f < e*b (b, f > 0)
    c, d = p.numerator, p.denominator
    if c < 0:
        return (SchemeProblem("shape", 0, f"base cost {p} is negative"),)
    nums, dens = [s.numerator for s in shares], [s.denominator for s in shares]
    problems: list[SchemeProblem] = []
    if shares and (nums[0], dens[0]) != (c, d):
        problems.append(SchemeProblem("3", 1, f"solo share {shares[0]} differs from base cost {p}"))
    for x in range(1, scheme.capacity):
        if nums[x - 1] * dens[x] < nums[x] * dens[x - 1]:
            problems.append(
                SchemeProblem("1", x, f"share increases from {shares[x-1]} at {x} to {shares[x]} at {x+1}")
            )
    for x in range(1, scheme.capacity + 1):
        if nums[x - 1] * d * x < c * dens[x - 1]:
            problems.append(SchemeProblem("2", x, f"share {shares[x-1]} at load {x} is below {p}/{x}"))
    return tuple(problems)


def make_ordinary_scheme(base_cost: RationalLike, capacity: int) -> CostSharingScheme:
    """Overhead-free sharing: the share at load x is base_cost / x."""
    p = Fraction(base_cost)
    if p < 0:
        raise ParameterViolation("base cost must be >= 0")
    if capacity < 0:
        raise ParameterViolation("capacity must be >= 0")
    num, den = p.numerator, p.denominator
    return CostSharingScheme(p, capacity, tuple(Fraction(num, den * x) for x in range(1, capacity + 1)))


def make_threshold_scheme(
    base_cost: RationalLike, capacity: int, full_share_at: int
) -> CostSharingScheme:
    """Sharing with full overhead below a threshold load.

    Every agent pays the whole base cost while fewer than ``full_share_at``
    agents use the edge; from the threshold on the cost splits evenly. With
    full_share_at == 1 this degenerates to the ordinary scheme.
    """
    p = Fraction(base_cost)
    if p < 0:
        raise ParameterViolation("base cost must be >= 0")
    if not 1 <= full_share_at <= capacity:
        raise ParameterViolation("full_share_at must lie in 1..capacity")
    num, den = p.numerator, p.denominator
    shares = tuple(p if x < full_share_at else Fraction(num, den * x) for x in range(1, capacity + 1))
    return CostSharingScheme(p, capacity, shares)


def is_ordinary_scheme(scheme: CostSharingScheme) -> bool:
    return all(
        scheme.shares[x - 1] == scheme.base_cost / x for x in range(1, scheme.capacity + 1)
    )


# --- strategy profiles ------------------------------------------------------


class StrategyProfile(Frozen):
    """One edge-id path per agent, in agent index order."""

    FIELDS = ("paths",)

    def __init__(self, paths: tuple[EdgePath, ...]):
        self.__dict__["paths"] = paths

    @cached_property
    def loads(self) -> dict[int, int]:
        """Number of agents on each used edge (recomputable from paths)."""
        return dict(Counter(edge_id for path in self.paths for edge_id in path))

    def replace(self, agent: int, path: EdgePath) -> "StrategyProfile":
        return StrategyProfile(self.paths[:agent] + (path,) + self.paths[agent + 1 :])

    def without(self, agent: int) -> "StrategyProfile":
        return StrategyProfile(self.paths[:agent] + self.paths[agent + 1 :])

    def __len__(self) -> int:
        return len(self.paths)


class Deviation(NamedTuple):
    """A strictly improving unilateral path change for one agent."""

    agent: int
    old_path: EdgePath
    new_path: EdgePath
    old_cost: Fraction
    new_cost: Fraction


# --- instances ---------------------------------------------------------------


class GameInstance(Frozen):
    """A feasible game: graph, one scheme per edge, one terminal pair per
    agent, and the cap on every terminal pair's path count.

    Instances are immutable and equal only to themselves. The cached
    properties and the private cache only memoize pure computations on the
    fields, so sharing an instance across threads is safe.
    """

    FIELDS = ("graph", "schemes", "terminals", "cap")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        graph: Graph,
        schemes: Mapping[int, CostSharingScheme],
        terminals: tuple[tuple[NodeId, NodeId], ...],
        cap: int,  # bounds every enumeration of a terminal pair's paths
    ):
        self.__dict__.update(graph=graph, schemes=schemes, terminals=terminals, cap=cap, _cache={})

    @property
    def n(self) -> int:
        return len(self.terminals)

    @cached_property
    def symmetric(self) -> bool:
        hub = (self.graph.source, self.graph.sink)
        return all(pair == hub for pair in self.terminals)

    @cached_property
    def capacities(self) -> dict[int, int]:
        return {e.id: self.schemes[e.id].capacity for e in self.graph.edges_by_id}

    @cached_property
    def scale(self) -> int:
        """lcm of the share denominators at loads 1..min(capacity, n): a
        profile of at most n paths meets no other share."""
        return lcm(*{s.denominator for sch in self.schemes.values() for s in sch.shares[: self.n]})

    @cached_property
    def scaled_shares(self) -> dict[int, tuple[int, ...]]:
        """scaled_shares[e][x] = scale * share of edge e at load x (0 at x = 0)."""
        scale = self.scale
        return {
            eid: (0,) + tuple(scale // s.denominator * s.numerator for s in sch.shares[: self.n])
            for eid, sch in self.schemes.items()
        }

    @cached_property
    def scaled_prefix(self) -> dict[int, tuple[int, ...]]:
        """scaled_prefix[e][x] = scale * (sum of edge e's shares at loads 1..x)."""
        return {eid: tuple(accumulate(shares)) for eid, shares in self.scaled_shares.items()}

    def agent_paths(self, agent: int) -> tuple[EdgePath, ...]:
        """The agent's simple paths under ``cap``, memoized per terminal pair."""
        pair = self.terminals[agent]
        hit = self._cache.get(pair)
        if hit is None:
            hit = self._cache[pair] = tuple(enumerate_st_paths(self.graph, *pair, cap=self.cap))
        return hit

    def profile(self, paths: Sequence[Sequence[int]]) -> StrategyProfile:
        """Validate one path per agent and freeze the profile."""
        if len(paths) != self.n:
            raise MalformedProfile(f"expected {self.n} paths, got {len(paths)}")
        checked = tuple(
            self._checked_path(path, *self.terminals[j]) for j, path in enumerate(paths)
        )
        return StrategyProfile(checked)

    def _checked_path(self, path: Sequence[int], source: NodeId, sink: NodeId) -> EdgePath:
        if not path:
            raise MalformedProfile("empty path")
        edge_map = self.graph.edge_map
        seen_nodes: set[NodeId] = set()
        at = source
        for edge_id in path:
            edge = edge_map.get(edge_id)
            if edge is None:
                raise MalformedProfile(f"unknown edge id {edge_id}")
            if edge.tail != at:
                raise MalformedProfile(f"edge {edge_id} does not continue the path at {at!r}")
            if edge.tail in seen_nodes:
                raise MalformedProfile(f"path revisits node {edge.tail!r}")
            seen_nodes.add(edge.tail)
            at = edge.head
        if at != sink:
            raise MalformedProfile(f"path ends at {at!r}, expected {sink!r}")
        if at in seen_nodes:
            raise MalformedProfile(f"path revisits node {at!r}")
        return tuple(path)


def make_instance(
    graph: Graph,
    schemes: Mapping[int, CostSharingScheme],
    agents: int | Sequence[tuple[NodeId, NodeId]],
    *,
    certify: bool = True,
    cap: int = DEFAULT_PATH_CAP,
) -> GameInstance:
    """Validate schemes and terminals, certify feasibility, freeze the instance.

    ``cap`` (at least 1) bounds every enumeration of an agent's paths, for
    the life of the instance. Symmetric games (a count, or terminals that
    are all the graph's source and sink) are certified before any per-agent
    state is built: the max flow under the edge capacities must reach the
    agent count. Asymmetric games are certified by a pruned search for one
    feasible profile. Infeasible games are rejected outright.
    """
    if cap < 1:
        raise ParameterViolation("cap must be >= 1")
    missing = [e.id for e in graph.edges if e.id not in schemes]
    if missing:
        raise ParameterViolation(f"edges without schemes: {missing}")
    problems = [p for eid in sorted(schemes) for p in validate_scheme(schemes[eid])]
    if problems:
        raise SchemeViolation(problems)

    hub = (graph.source, graph.sink)
    if not isinstance(agents, int):
        terminals = tuple((src, dst) for src, dst in agents)
        node_set = set(graph.nodes)
        for j, (src, dst) in enumerate(terminals):
            if src not in node_set or dst not in node_set:
                raise ParameterViolation(f"agent {j} terminals not in graph")
            if src == dst:
                raise ParameterViolation(f"agent {j} has identical source and sink")
        if any(pair != hub for pair in terminals):
            instance = GameInstance(graph, dict(schemes), terminals, cap)
            if certify and _find_feasible_assignment(instance) is None:
                raise InfeasibleGame("no feasible strategy profile exists")
            return instance
        agents = len(terminals)
    if agents < 0:
        raise ParameterViolation("agent count must be >= 0")
    if certify and agents > 0:
        flow = flows.max_flow(graph, {e.id: schemes[e.id].capacity for e in graph.edges})
        if flow.value < agents:
            raise InfeasibleGame(f"max flow {flow.value} cannot route {agents} agents")
    return GameInstance(graph, dict(schemes), (hub,) * agents, cap)


def _path_options(instance: GameInstance, cap: int) -> list[tuple[EdgePath, ...]]:
    """Each agent's paths, in rank order.

    The instance's own cap bounds each agent's path count, and ``cap`` the
    product of the counts; beyond either the instance is declared too large
    for exhaustive work.
    """
    options = [instance.agent_paths(j) for j in range(instance.n)]
    counts = [len(paths) for paths in options]
    combinations = prod(counts, start=1)
    if combinations > cap:
        raise PathExplosion(f"ordered profile product {_factors(counts)}", cap, combinations)
    return options


def _factors(counts: list[int]) -> str:
    """The path counts as a product: written out for up to eight agents,
    else as powers of the distinct counts, largest first, at most four."""
    if len(counts) <= 8:
        return "×".join(map(str, counts)) or "1"
    powers = [f"{c}^{k}" if k > 1 else str(c) for c, k in sorted(Counter(counts).items(), reverse=True)]
    return "×".join(powers[:4]) + ("×…" if len(powers) > 4 else "")


def _find_feasible_assignment(instance: GameInstance) -> tuple[EdgePath, ...] | None:
    """First feasible profile's paths in path-rank order, or None (asymmetric
    games). The search is bounded as the analysis is: an ordered profile
    product beyond the instance's cap raises PathExplosion. A product of 0
    bounds nothing, so an agent without paths is answered before any search."""
    options = _path_options(instance, instance.cap)
    if not all(options):
        return None
    return next((paths for paths, _ in feasible_profiles(instance, options, [None] * instance.n)), None)


def feasible_profiles(
    instance: GameInstance,
    options: Sequence[Sequence[EdgePath]],
    previous: Sequence[int | None],
) -> Iterator[tuple[tuple[EdgePath, ...], dict[int, int]]]:
    """Feasible (paths, loads) pairs by pruned backtracking, in lexicographic
    order of per-agent path rank (the index into ``options[j]``); each loads
    map is a copy.

    Capacity overloads are pruned as agents are assigned. Agent j's rank
    starts at the rank chosen for agent ``previous[j]``, or at 0 when that
    is None.
    """
    caps = instance.capacities
    loads: dict[int, int] = {}  # used edges only, in the first-use order of a recount
    ranks: list[int] = []  # the rank chosen for each assigned agent
    chosen: list[EdgePath] = []
    rank = 0  # the next rank to try for agent len(ranks)
    while True:
        j = len(ranks)
        if j == len(options):
            yield tuple(chosen), dict(loads)
        elif rank < len(options[j]):
            path = options[j][rank]
            for e in path:
                if loads.get(e, 0) >= caps[e]:
                    rank += 1
                    break
            else:
                for e in path:
                    loads[e] = loads.get(e, 0) + 1
                ranks.append(rank)
                chosen.append(path)
                if j + 1 < len(options):
                    rank = 0 if previous[j + 1] is None else ranks[previous[j + 1]]
            continue
        if not ranks:
            return
        rank = ranks.pop() + 1
        for e in chosen.pop():
            if loads[e] == 1:
                del loads[e]
            else:
                loads[e] -= 1


# --- costs, potential, equilibrium test --------------------------------------


def is_feasible(instance: GameInstance, profile: StrategyProfile) -> bool:
    caps = instance.capacities
    return all(load <= caps[e] for e, load in profile.loads.items())


def _loads(instance: GameInstance, profile: StrategyProfile) -> dict[int, int]:
    """The profile's loads; the one gate of every function that takes a
    profile. More than n paths is malformed, as the scaled tables stop at
    load n, and an edge loaded over its capacity makes the profile
    infeasible."""
    if len(profile.paths) > instance.n:
        raise MalformedProfile(f"profile has {len(profile.paths)} paths but the instance has {instance.n} agents")
    caps = instance.capacities
    loads = profile.loads
    for e, load in loads.items():
        if load > caps[e]:
            raise InfeasibleProfile(f"edge {e} loaded {load} over capacity {caps[e]}")
    return loads


def _scaled_costs(
    instance: GameInstance,
    loads: Mapping[int, int],
    paths: Iterable[EdgePath],
    plus: EdgePath = (),
) -> tuple[int, int]:
    """scale * (sum, max) of what the agents holding ``paths`` pay under
    ``loads``, with one more agent on the edges of ``plus`` when it is a
    path. Callers pass feasible loads only, so an overload is a bug. An
    agent on the same path object as the agent before it shares its cost,
    so each run of one path is costed once."""
    caps = instance.capacities
    shares = instance.scaled_shares
    total = worst = cost = 0
    previous = None
    for path in paths:
        if path is not previous:
            previous, cost = path, 0
            for e in path:
                load = loads[e] + (e in plus)
                if load > caps[e]:
                    raise InternalAssertion(f"cost kernel met edge {e} loaded {load} over capacity {caps[e]}")
                cost += shares[e][load]
            if cost > worst:
                worst = cost
        total += cost
    return total, worst


def agent_cost(instance: GameInstance, profile: StrategyProfile, agent: int) -> Fraction:
    """Sum of shares along the agent's path."""
    return Fraction(_scaled_costs(instance, _loads(instance, profile), (profile.paths[agent],))[0], instance.scale)


def sum_cost(instance: GameInstance, profile: StrategyProfile) -> Fraction:
    """Total of all agents' costs (0 for the empty game)."""
    return Fraction(_scaled_costs(instance, _loads(instance, profile), profile.paths)[0], instance.scale)


def max_cost(instance: GameInstance, profile: StrategyProfile) -> Fraction:
    """Worst single agent cost (0 for the empty game)."""
    return Fraction(_scaled_costs(instance, _loads(instance, profile), profile.paths)[1], instance.scale)


def _scaled_potential(instance: GameInstance, loads: Mapping[int, int]) -> int:
    """scale * the potential of a profile with feasible ``loads``."""
    prefix = instance.scaled_prefix
    return sum(prefix[e][load] for e, load in loads.items())


def potential(instance: GameInstance, profile: StrategyProfile) -> Fraction:
    """Sum over used edges of the share prefix up to the edge's load.

    A unilateral deviation changes this quantity by exactly the deviating
    agent's cost change, which is what makes best-response dynamics converge.
    """
    return Fraction(_scaled_potential(instance, _loads(instance, profile)), instance.scale)


def _prices(
    instance: GameInstance,
    loads: Mapping[int, int],
    paths: Iterable[EdgePath],
    plus: EdgePath = (),
    minus: EdgePath = (),
) -> Iterator[int | None]:
    """scale * what one agent pays on each path: the sum of s_e(y_e + 1) over
    its edges, where the other agents' loads y are ``loads`` plus one on the
    edges of ``plus`` and minus one on the edges of ``minus``. This is the
    agent's cost after moving to the path, the one price behind every
    deviation; None for a path that meets an edge the others already fill.
    """
    caps = instance.capacities
    shares = instance.scaled_shares
    for path in paths:
        price = 0
        for e in path:
            load = loads.get(e, 0) + (e in plus) - (e in minus) + 1
            if load > caps[e]:
                break
            price += shares[e][load]
        else:
            yield price
            continue
        yield None


def _improving_move(
    instance: GameInstance, loads: Mapping[int, int], held: EdgePath, agent: int, rule: str
) -> tuple[EdgePath, int, int] | None:
    """Scan the agent's paths in lexicographic order for a strict improvement.

    The current cost comes from ``_scaled_costs``, and every path, the held
    one included, is priced against the gated ``loads`` minus the held path;
    a running best below the current cost keeps the strictly cheaper ones.
    "best" takes the first of the cheapest, "first_improving" the first.
    Returns the winner with the current and new cost, both times ``scale``.
    """
    current = bound = _scaled_costs(instance, loads, (held,))[0]
    best = None
    options = instance.agent_paths(agent)
    for candidate, price in zip(options, _prices(instance, loads, options, minus=held)):
        if price is not None and price < bound:
            best, bound = (candidate, current, price), price
            if rule == "first_improving":
                break
    return best


def best_response(
    instance: GameInstance, profile: StrategyProfile, agent: int
) -> Deviation | None:
    """Cheapest strictly improving path for one agent, or None when content.

    The agent's current path is always available, so a feasible profile can
    never leave an agent without options; ties favour staying put.
    """
    move = _improving_move(instance, _loads(instance, profile), profile.paths[agent], agent, "best")
    if move is None:
        return None
    new_path, old_cost, new_cost = move
    scale = instance.scale
    return Deviation(
        agent, profile.paths[agent], new_path, Fraction(old_cost, scale), Fraction(new_cost, scale)
    )


def is_nash(instance: GameInstance, profile: StrategyProfile) -> bool:
    """No-regret test: one first-improving scan per (terminal pair, path) class.

    Agents with the same terminals on the same path have the same moves, so
    only the lowest-index agent of each class is scanned, and each scan stops
    at its first strict improvement. ``best_response`` gives an improving
    agent's cheapest move.
    """
    loads = _loads(instance, profile)  # also rejects the extra paths that zip below would drop
    first: dict = {}
    for agent, key in enumerate(zip(instance.terminals, profile.paths)):
        first.setdefault(key, agent)
    return all(
        _improving_move(instance, loads, held, agent, "first_improving") is None for (_, held), agent in first.items()
    )


# --- feasible path extension (series-parallel) --------------------------------


def feasible_extension(
    instance: GameInstance,
    profile_big: StrategyProfile,
    profile_small: StrategyProfile,
) -> EdgePath:
    """A source->sink path inside the big profile's edges that the small
    profile can absorb without breaking feasibility.

    Requires a series-parallel graph. The search walks the residual network
    of the profile-union flow problem (capacities are the big profile's
    loads, the small profile plays the role of the current flow) restricted
    to its forward arcs; on SP graphs such a path always exists whenever the
    small profile has fewer agents than the big one.
    """
    if classify(instance.graph) not in (
        GraphClass.PARALLEL_LINK,
        GraphClass.SERIES_PARALLEL,
    ):
        raise NotSeriesParallel("feasible_extension requires a series-parallel graph")
    if not instance.symmetric:
        raise NotSymmetric("feasible_extension requires shared terminals")
    if len(profile_small) >= len(profile_big):
        raise ParameterViolation("small profile must have fewer agents than big profile")
    big_loads = _loads(instance, profile_big)
    small_loads = _loads(instance, profile_small)
    graph = instance.graph

    def arcs(node: NodeId) -> Iterator[tuple[int, NodeId]]:
        # forward residual arcs: edges the big profile uses strictly more often
        for edge in graph.outgoing[node]:
            if small_loads.get(edge.id, 0) < big_loads.get(edge.id, 0):
                yield edge.id, edge.head

    found = first_path(graph.source, graph.sink, arcs)
    if found is None:
        raise InternalAssertion(
            "no extension path found on a series-parallel graph; this should be impossible"
        )
    extended = StrategyProfile(profile_small.paths + (found,))
    if not is_feasible(instance, extended):
        raise InternalAssertion("extension path broke feasibility")
    return found
