"""Capacitated cost-sharing connection games.

An instance couples a directed multigraph with one validated cost-sharing
scheme per edge and one (source, sink) pair per agent. Agents pick paths;
the price each agent pays on an edge is the edge's tabulated share at the
edge's current load, or infinite when any edge on the agent's path is
loaded beyond capacity.

Everything here is exact: shares, costs and potentials are Fractions, and
equality tests (Nash membership, ratio checks) never tolerate rounding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, Union

from . import flows
from .errors import (
    InfeasibleGame,
    InfeasibleProfile,
    InternalAssertion,
    MalformedProfile,
    NotSeriesParallel,
    NotSymmetric,
    ParameterViolation,
    SchemeViolation,
)
from .graphs import (
    DEFAULT_PATH_CAP,
    EdgePath,
    Graph,
    GraphClass,
    NodeId,
    classify,
    enumerate_st_paths,
)
from .rational import INFINITY, Cost

RationalLike = Union[int, Fraction]


# --- cost-sharing schemes ---------------------------------------------------


@dataclass(frozen=True)
class SchemeProblem:
    """One violated scheme property, identified by property id and table index."""

    prop: str  # "1" non-increasing, "2" share floor, "3" solo price, "2'"/"3'" derived
    index: int  # 1-based load at which the property fails
    detail: str


@dataclass(frozen=True)
class CostSharingScheme:
    """Per-edge share table: ``shares[x-1]`` is the price per agent at load x.

    A valid table is non-increasing, bounded below by base_cost / x, and
    starts at exactly base_cost. Tabulating (instead of storing a function)
    keeps those properties finitely checkable.
    """

    base_cost: Fraction
    capacity: int
    shares: tuple[Fraction, ...]

    def share(self, load: int) -> Fraction:
        return self.shares[load - 1]

    @cached_property
    def prefix_sums(self) -> tuple[Fraction, ...]:
        """prefix_sums[x] = sum of shares at loads 1..x (index 0 is zero)."""
        acc = Fraction(0)
        out = [acc]
        for s in self.shares:
            acc += s
            out.append(acc)
        return tuple(out)

    def scaled(self, factor: Fraction) -> "CostSharingScheme":
        if factor <= 0:
            raise ParameterViolation("scale factor must be positive")
        return CostSharingScheme(
            self.base_cost * factor, self.capacity, tuple(s * factor for s in self.shares)
        )


def validate_scheme(scheme: CostSharingScheme) -> tuple[SchemeProblem, ...]:
    """Check the three scheme properties; empty result means the table is valid."""
    p = scheme.base_cost
    shares = scheme.shares
    problems: list[SchemeProblem] = []
    if len(shares) != scheme.capacity:
        problems.append(
            SchemeProblem("shape", 0, f"table has {len(shares)} entries for capacity {scheme.capacity}")
        )
        return tuple(problems)
    if p < 0:
        problems.append(SchemeProblem("shape", 0, f"base cost {p} is negative"))
        return tuple(problems)
    if scheme.capacity >= 1 and shares[0] != p:
        problems.append(
            SchemeProblem("3", 1, f"solo share {shares[0]} differs from base cost {p}")
        )
    for x in range(1, scheme.capacity):
        if shares[x - 1] < shares[x]:
            problems.append(
                SchemeProblem("1", x, f"share increases from {shares[x-1]} at {x} to {shares[x]} at {x+1}")
            )
    for x in range(1, scheme.capacity + 1):
        if shares[x - 1] < p / x:
            problems.append(
                SchemeProblem("2", x, f"share {shares[x-1]} at load {x} is below {p}/{x}")
            )
    if not problems:
        # redundant derived checks: implied by (1)+(3) and by (2)
        for x in range(1, scheme.capacity + 1):
            if shares[x - 1] > p:
                problems.append(SchemeProblem("3'", x, f"share exceeds base cost at load {x}"))
            if x * shares[x - 1] < p:
                problems.append(SchemeProblem("2'", x, f"aggregate below base cost at load {x}"))
    return tuple(problems)


def make_scheme(
    base_cost: RationalLike, capacity: int, shares: Iterable[RationalLike]
) -> CostSharingScheme:
    """Build and validate an explicit share table."""
    if capacity < 0:
        raise ParameterViolation("capacity must be >= 0")
    scheme = CostSharingScheme(
        Fraction(base_cost), capacity, tuple(Fraction(s) for s in shares)
    )
    problems = validate_scheme(scheme)
    if problems:
        raise SchemeViolation(problems)
    return scheme


def make_ordinary_scheme(base_cost: RationalLike, capacity: int) -> CostSharingScheme:
    """Overhead-free sharing: the share at load x is base_cost / x."""
    p = Fraction(base_cost)
    if p < 0:
        raise ParameterViolation("base cost must be >= 0")
    if capacity < 0:
        raise ParameterViolation("capacity must be >= 0")
    return CostSharingScheme(p, capacity, tuple(p / x for x in range(1, capacity + 1)))


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
    shares = tuple(
        p if x < full_share_at else p / x for x in range(1, capacity + 1)
    )
    scheme = CostSharingScheme(p, capacity, shares)
    problems = validate_scheme(scheme)
    if problems:
        raise SchemeViolation(problems)
    return scheme


def is_ordinary_scheme(scheme: CostSharingScheme) -> bool:
    return all(
        scheme.shares[x - 1] == scheme.base_cost / x for x in range(1, scheme.capacity + 1)
    )


# --- strategy profiles ------------------------------------------------------


@dataclass(frozen=True)
class StrategyProfile:
    """One edge-id path per agent, in agent index order."""

    paths: tuple[EdgePath, ...]

    @cached_property
    def loads(self) -> dict[int, int]:
        """Number of agents on each used edge (recomputable from paths)."""
        return dict(Counter(edge_id for path in self.paths for edge_id in path))

    @cached_property
    def edge_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(path) for path in self.paths)

    @cached_property
    def used_edges(self) -> frozenset[int]:
        return frozenset(self.loads)

    def replace(self, agent: int, path: EdgePath) -> "StrategyProfile":
        return StrategyProfile(self.paths[:agent] + (path,) + self.paths[agent + 1 :])

    def without(self, agent: int) -> "StrategyProfile":
        return StrategyProfile(self.paths[:agent] + self.paths[agent + 1 :])

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class Deviation:
    """A strictly improving unilateral path change for one agent."""

    agent: int
    old_path: EdgePath
    new_path: EdgePath
    old_cost: Fraction
    new_cost: Fraction

    @property
    def delta(self) -> Fraction:
        return self.new_cost - self.old_cost


@dataclass(frozen=True)
class NashResult:
    """Truthy iff no agent can strictly improve; otherwise carries a witness."""

    witness: Deviation | None

    def __bool__(self) -> bool:
        return self.witness is None


# --- instances ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GameInstance:
    """A feasible game: graph, one scheme per edge, one terminal pair per agent.

    Instances are immutable; the private cache only memoizes pure path
    enumerations, so sharing an instance across threads is safe.
    """

    graph: Graph
    schemes: Mapping[int, CostSharingScheme]
    terminals: tuple[tuple[NodeId, NodeId], ...]
    path_cap: int = DEFAULT_PATH_CAP
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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

    def st_paths(self, source: NodeId, sink: NodeId, cap: int | None = None) -> tuple[EdgePath, ...]:
        """Memoized simple-path enumeration between two nodes."""
        limit = self.path_cap if cap is None else cap
        key = (source, sink, limit)
        hit = self._cache.get(key)
        if hit is None:
            hit = tuple(enumerate_st_paths(self.graph, source, sink, cap=limit))
            self._cache[key] = hit
        return hit

    def agent_paths(self, agent: int, cap: int | None = None) -> tuple[EdgePath, ...]:
        source, sink = self.terminals[agent]
        return self.st_paths(source, sink, cap)

    def profile(self, paths: Sequence[Sequence[int]]) -> StrategyProfile:
        """Validate one path per agent and freeze the profile."""
        if len(paths) != self.n:
            raise MalformedProfile(f"expected {self.n} paths, got {len(paths)}")
        checked = tuple(
            self._checked_path(path, *self.terminals[j]) for j, path in enumerate(paths)
        )
        return StrategyProfile(checked)

    def partial_profile(self, paths: Sequence[Sequence[int]]) -> StrategyProfile:
        """Freeze any number of source->sink paths (symmetric helpers)."""
        hub = (self.graph.source, self.graph.sink)
        checked = tuple(self._checked_path(path, *hub) for path in paths)
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

    def scaled(self, factor: Fraction) -> "GameInstance":
        """Clone with every share table multiplied by a positive rational."""
        schemes = {eid: sch.scaled(factor) for eid, sch in self.schemes.items()}
        return GameInstance(self.graph, schemes, self.terminals, self.path_cap)


def make_instance(
    graph: Graph,
    schemes: Mapping[int, CostSharingScheme],
    agents: int | Sequence[tuple[NodeId, NodeId]],
    *,
    path_cap: int = DEFAULT_PATH_CAP,
    certify: bool = True,
) -> GameInstance:
    """Validate schemes and terminals, certify feasibility, freeze the instance.

    Symmetric games (``agents`` given as a count) are certified by checking
    that the max flow under the edge capacities is at least the number of
    agents; asymmetric games fall back to a pruned search for one feasible
    profile. Infeasible games are rejected outright.
    """
    missing = [e.id for e in graph.edges if e.id not in schemes]
    if missing:
        raise ParameterViolation(f"edges without schemes: {missing}")
    problems = [p for eid in sorted(schemes) for p in validate_scheme(schemes[eid])]
    if problems:
        raise SchemeViolation(problems)

    if isinstance(agents, int):
        if agents < 0:
            raise ParameterViolation("agent count must be >= 0")
        terminals = tuple((graph.source, graph.sink) for _ in range(agents))
    else:
        terminals = tuple((src, dst) for src, dst in agents)
        node_set = set(graph.nodes)
        for j, (src, dst) in enumerate(terminals):
            if src not in node_set or dst not in node_set:
                raise ParameterViolation(f"agent {j} terminals not in graph")
            if src == dst:
                raise ParameterViolation(f"agent {j} has identical source and sink")

    instance = GameInstance(graph, dict(schemes), terminals, path_cap)
    if certify and instance.n > 0:
        _certify_feasible(instance)
    return instance


def _certify_feasible(instance: GameInstance) -> None:
    if instance.symmetric:
        flow = flows.max_flow(instance.graph, instance.capacities)
        if flow.value < instance.n:
            raise InfeasibleGame(
                f"max flow {flow.value} cannot route {instance.n} agents"
            )
        return
    if _find_feasible_assignment(instance) is None:
        raise InfeasibleGame("no feasible strategy profile exists")


def _find_feasible_assignment(instance: GameInstance) -> StrategyProfile | None:
    """First feasible profile in path-rank order, or None (asymmetric games)."""
    options = [instance.agent_paths(j) for j in range(instance.n)]
    if not all(options):
        return None
    return next(feasible_profiles(instance, options, [None] * instance.n), None)


def feasible_profiles(
    instance: GameInstance,
    options: Sequence[Sequence[EdgePath]],
    previous: Sequence[int | None],
) -> Iterator[StrategyProfile]:
    """Feasible profiles by pruned backtracking, in lexicographic order of
    per-agent path rank (the index into ``options[j]``).

    Capacity overloads are pruned as agents are assigned. Agent j's rank
    starts at the rank chosen for agent ``previous[j]``, or at 0 when that
    is None.
    """
    caps = instance.capacities
    loads: Counter[int] = Counter()
    ranks: list[int] = []
    chosen: list[EdgePath] = []

    def assign(j: int) -> Iterator[StrategyProfile]:
        if j == len(options):
            yield StrategyProfile(tuple(chosen))
            return
        lowest = 0 if previous[j] is None else ranks[previous[j]]
        for rank in range(lowest, len(options[j])):
            path = options[j][rank]
            if any(loads[e] + 1 > caps[e] for e in path):
                continue
            for e in path:
                loads[e] += 1
            ranks.append(rank)
            chosen.append(path)
            yield from assign(j + 1)
            chosen.pop()
            ranks.pop()
            for e in path:
                loads[e] -= 1

    return assign(0)


# --- costs, potential, equilibrium test --------------------------------------


def is_feasible(instance: GameInstance, profile: StrategyProfile) -> bool:
    caps = instance.capacities
    return all(load <= caps[e] for e, load in profile.loads.items())


def agent_cost(instance: GameInstance, profile: StrategyProfile, agent: int) -> Cost:
    """Sum of shares along the agent's path, or INFINITY on any overload."""
    loads = profile.loads
    caps = instance.capacities
    path = profile.paths[agent]
    for edge_id in path:
        if loads[edge_id] > caps[edge_id]:
            return INFINITY
    total = Fraction(0)
    for edge_id in path:
        total += instance.schemes[edge_id].share(loads[edge_id])
    return total


def sum_cost(instance: GameInstance, profile: StrategyProfile) -> Cost:
    """Total of all agents' costs (0 for the empty game); INFINITY propagates."""
    total: Cost = Fraction(0)
    for agent in range(len(profile)):
        total = total + agent_cost(instance, profile, agent)
    return total


def max_cost(instance: GameInstance, profile: StrategyProfile) -> Cost:
    """Worst single agent cost (0 for the empty game); INFINITY propagates."""
    worst: Cost = Fraction(0)
    for agent in range(len(profile)):
        cost = agent_cost(instance, profile, agent)
        if cost > worst:
            worst = cost
    return worst


def potential(instance: GameInstance, profile: StrategyProfile) -> Fraction:
    """Sum over used edges of the share prefix up to the edge's load.

    A unilateral deviation changes this quantity by exactly the deviating
    agent's cost change, which is what makes best-response dynamics converge.
    """
    caps = instance.capacities
    total = Fraction(0)
    for edge_id, load in profile.loads.items():
        if load > caps[edge_id]:
            raise InfeasibleProfile(f"edge {edge_id} loaded {load} over capacity {caps[edge_id]}")
        total += instance.schemes[edge_id].prefix_sums[load]
    return total


def is_nash(instance: GameInstance, profile: StrategyProfile) -> NashResult:
    """No-regret test; the witness (when falsy) is a strictly improving move."""
    from . import dynamics  # deviation search lives with the dynamics code

    if not is_feasible(instance, profile):
        raise InfeasibleProfile("equilibrium test requires a feasible profile")
    for agent in range(len(profile)):
        deviation = dynamics.best_response(instance, profile, agent)
        if deviation is not None:
            return NashResult(deviation)
    return NashResult(None)


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
    if not is_feasible(instance, profile_big):
        raise InfeasibleProfile("big profile is infeasible")
    if not is_feasible(instance, profile_small):
        raise InfeasibleProfile("small profile is infeasible")

    big_loads = profile_big.loads
    small_loads = profile_small.loads
    graph = instance.graph

    # forward residual arcs: edges the big profile uses strictly more often
    path: list[int] = []
    visited: set[NodeId] = {graph.source}

    def walk(node: NodeId) -> bool:
        if node == graph.sink:
            return True
        for edge in graph.outgoing.get(node, ()):
            if small_loads.get(edge.id, 0) >= big_loads.get(edge.id, 0):
                continue
            if edge.head in visited:
                continue
            visited.add(edge.head)
            path.append(edge.id)
            if walk(edge.head):
                return True
            path.pop()
            visited.discard(edge.head)
        return False

    if not walk(graph.source):
        raise InternalAssertion(
            "no extension path found on a series-parallel graph; this should be impossible"
        )
    found = tuple(path)
    extended = StrategyProfile(profile_small.paths + (found,))
    if not is_feasible(instance, extended):
        raise InternalAssertion("extension path broke feasibility")
    return found
