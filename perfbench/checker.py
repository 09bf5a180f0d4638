"""Independent model of capacitated cost-sharing connection games.

Written from the model's definitions, not from csglab code, so that the
benchmark can check csglab's outputs against a second route:

- an agent on a path pays, on every edge of it, that edge's tabulated share
  at the edge's load; a profile is feasible when no load exceeds a capacity;
- the potential is the sum over edges of the share table's prefix sum up to
  the edge's load;
- a profile is an equilibrium when no agent can lower its own cost by
  switching alone to another of its paths;
- optima are found by trying every feasible profile, up to permutation of
  agents that share a terminal pair.

The model reads an instance document (the JSON that ``csglab analyze``
reads). All arithmetic is on integers: every share is multiplied by the lcm
``scale`` of all share denominators, so sums and comparisons stay exact, and
a value becomes a Fraction (``v / scale``) only when compared with a report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, lcm, prod

@dataclass(frozen=True)
class Orbit:
    """One feasible profile up to permutation of interchangeable agents."""

    profile: tuple  # a representative, one path per agent
    multiplicity: int  # ordered profiles in the orbit
    costs: tuple  # scaled agent costs of the representative
    potential: int
    nash: bool

    @property
    def sum_cost(self) -> int:
        return sum(self.costs)

    @property
    def max_cost(self) -> int:
        return max(self.costs, default=0)


@dataclass(frozen=True)
class Truth:
    """Everything the exhaustive search knows about one game."""

    orbits: tuple
    opt_sc: int
    opt_mc: int

    @property
    def equilibria(self) -> tuple:
        return tuple(o for o in self.orbits if o.nash)


class Network:
    """Directed multigraph with a designated source and sink."""

    def __init__(self, nodes, arcs: dict, source, sink):
        self.nodes = list(nodes)
        self.arcs = arcs  # edge id -> (tail, head)
        self.source = source
        self.sink = sink
        self.outgoing: dict = {v: [] for v in self.nodes}
        for eid in sorted(arcs):
            tail, head = arcs[eid]
            self.outgoing[tail].append((eid, head))
        self._paths: dict = {}

    def paths(self, source, sink) -> tuple:
        """Every simple source->sink path, by an explicit-stack search."""
        key = (source, sink)
        if key not in self._paths:
            found = []
            stack = [(source, (), frozenset((source,)))]
            while stack:
                node, path, seen = stack.pop()
                if node == sink:
                    found.append(path)
                    continue
                for eid, head in self.outgoing[node]:
                    if head not in seen:
                        stack.append((head, path + (eid,), seen | {head}))
            self._paths[key] = tuple(sorted(found))
        return self._paths[key]

    def graph_class(self) -> str:
        """parallel-link, series-parallel, dag or general, by definition."""
        indegree = Counter(head for _, head in self.arcs.values())
        ready = [v for v in self.nodes if indegree[v] == 0]
        seen = 0
        while ready:
            node = ready.pop()
            seen += 1
            for _, head in self.outgoing[node]:
                indegree[head] -= 1
                if indegree[head] == 0:
                    ready.append(head)
        if seen < len(self.nodes):
            return "general"
        s, t = self.source, self.sink
        ends = {s, t}
        if set(self.nodes) == ends and self.arcs and all(a == (s, t) for a in self.arcs.values()):
            return "parallel-link"
        return "series-parallel" if self._reduces_to_edge() else "dag"

    def _reduces_to_edge(self) -> bool:
        """Merge parallel arcs and splice in-1/out-1 inner nodes until stuck.

        Arcs are kept as sets of heads and tails, so parallel arcs merge as
        soon as they appear. The graph is series-parallel exactly when one
        arc source->sink and no other node is left.
        """
        s, t = self.source, self.sink
        succ = {v: set() for v in self.nodes}
        pred = {v: set() for v in self.nodes}
        for tail, head in self.arcs.values():
            succ[tail].add(head)
            pred[head].add(tail)
        work = [v for v in self.nodes if v not in (s, t)]
        while work:
            v = work.pop()
            if v not in succ or len(pred[v]) != 1 or len(succ[v]) != 1:
                continue
            (u,), (w,) = pred[v], succ[v]
            succ[u].discard(v)
            pred[w].discard(v)
            succ[u].add(w)
            pred[w].add(u)
            del succ[v], pred[v]
            work.extend(x for x in (u, w) if x not in (s, t))
        return set(succ) == {s, t} and succ[s] == {t} and not succ[t]


class Game(Network):
    """A game read from an instance document."""

    def __init__(self, doc: dict):
        arcs: dict[int, tuple] = {}
        self.capacity: dict[int, int] = {}
        tables: dict[int, list[Fraction]] = {}
        for entry in doc["edges"]:
            eid = int(entry["id"])
            cap = int(entry["capacity"])
            cost = Fraction(entry["cost"])
            scheme = entry.get("scheme", "ordinary")
            if scheme == "ordinary":
                tables[eid] = [cost / load for load in range(1, cap + 1)]
            else:
                tables[eid] = [Fraction(s) for s in scheme["table"]]
            arcs[eid] = (entry["tail"], entry["head"])
            self.capacity[eid] = cap
        super().__init__(doc["nodes"], arcs, doc["source"], doc["sink"])
        self.scale = lcm(1, *(s.denominator for t in tables.values() for s in t))
        # share[e][x]: scaled price per agent at load x; prefix[e][x]: sum of loads 1..x
        self.share = {e: [0] + [int(s * self.scale) for s in t] for e, t in tables.items()}
        self.prefix = {}
        for e, table in self.share.items():
            acc, sums = 0, [0]
            for price in table[1:]:
                acc += price
                sums.append(acc)
            self.prefix[e] = sums
        agents = doc["agents"]
        if isinstance(agents, int):
            self.terminals = [(self.source, self.sink)] * agents
        else:
            self.terminals = [(a["source"], a["sink"]) for a in agents]
        self.symmetric = all(t == (self.source, self.sink) for t in self.terminals)

    @property
    def n(self) -> int:
        return len(self.terminals)

    def value(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale)

    # --- strategies ------------------------------------------------------

    def agent_paths(self, agent: int) -> tuple:
        return self.paths(*self.terminals[agent])

    # --- costs -----------------------------------------------------------

    @staticmethod
    def loads(profile) -> Counter:
        return Counter(e for path in profile for e in path)

    def feasible(self, profile) -> bool:
        return all(load <= self.capacity[e] for e, load in self.loads(profile).items())

    def costs(self, profile) -> tuple | None:
        """Scaled cost of every agent, or None when an edge is overloaded."""
        loads = self.loads(profile)
        if any(load > self.capacity[e] for e, load in loads.items()):
            return None
        return tuple(sum(self.share[e][loads[e]] for e in path) for path in profile)

    def potential(self, profile) -> int:
        loads = self.loads(profile)
        if any(load > self.capacity[e] for e, load in loads.items()):
            raise ValueError("potential of an infeasible profile")
        return sum(self.prefix[e][load] for e, load in loads.items())

    def improving_move(self, profile) -> tuple | None:
        """(agent, path, new cost) of a strictly improving unilateral switch, or None."""
        loads = self.loads(profile)
        costs = self.costs(profile)
        if costs is None:
            raise ValueError("deviation test of an infeasible profile")
        for agent, current in enumerate(profile):
            own = set(current)
            for path in self.agent_paths(agent):
                if path == current:
                    continue
                total = 0
                for e in path:
                    load = loads[e] if e in own else loads[e] + 1
                    if load > self.capacity[e]:
                        break
                    total += self.share[e][load]
                else:
                    if total < costs[agent]:
                        return agent, path, total
        return None

    def is_nash(self, profile) -> bool:
        return self.improving_move(profile) is None

    # --- exhaustive search -----------------------------------------------

    def orbit_key(self, profile) -> tuple:
        """Identity of a profile up to permuting agents with equal terminals."""
        return tuple(sorted(zip(map(repr, self.terminals), profile)))

    def orbits(self) -> list[tuple]:
        """(representative, multiplicity) of every feasible orbit."""
        classes: dict = {}
        for agent, pair in enumerate(self.terminals):
            classes.setdefault(pair, []).append(agent)
        groups = list(classes.values())
        choices = [
            list(combinations_with_replacement(self.agent_paths(members[0]), len(members)))
            for members in groups
        ]
        found = []
        for pick in product(*choices):
            profile = [None] * self.n
            multiplicity = 1
            for members, paths in zip(groups, pick):
                for agent, path in zip(members, paths):
                    profile[agent] = path
                counts = Counter(paths).values()
                multiplicity *= factorial(len(paths)) // prod(factorial(c) for c in counts)
            profile = tuple(profile)
            if self.feasible(profile):
                found.append((profile, multiplicity))
        return found

    def ordered_feasible_count(self) -> int:
        return sum(m for _, m in self.orbits())

    def truth(self) -> Truth:
        orbits = tuple(
            Orbit(p, m, self.costs(p), self.potential(p), self.is_nash(p))
            for p, m in self.orbits()
        )
        if not orbits:
            raise ValueError("game has no feasible profile")
        return Truth(
            orbits,
            min(o.sum_cost for o in orbits),
            min(o.max_cost for o in orbits),
        )
