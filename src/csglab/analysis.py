"""Exhaustive desk-scale analysis: optima, equilibrium sets, exact ratios.

Optima come from exhaustive search rather than flow optimization: under a
general scheme the aggregate edge cost need not be convex in the load, so
min-cost-flow shortcuts would be unsound. Everything is exact: orbits are
costed in the instance's scaled integers, and optima and equilibrium
statistics leave as Fractions.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from math import factorial, prod
from operator import attrgetter
from typing import Mapping, NamedTuple

from .errors import InternalAssertion, NotSeriesParallel, NotSymmetric
from .game import GameInstance, StrategyProfile, _path_options, _prices, _scaled_costs, feasible_profiles, potential
from .graphs import DEFAULT_PATH_CAP, EdgePath, GraphClass, classify


class Criterion(Enum):
    SUM = "sc"
    MAX = "mc"


def enumerate_profiles(
    instance: GameInstance, cap: int = DEFAULT_PATH_CAP
) -> list[StrategyProfile]:
    """All feasible profiles, ordered lexicographically by per-agent path rank."""
    options = _path_options(instance, cap)
    return [StrategyProfile(paths) for paths, _ in feasible_profiles(instance, options, [None] * instance.n)]


def _orbit_size(instance: GameInstance, paths: tuple[EdgePath, ...]) -> int:
    """The multinomial coefficient: the product of the terminal class sizes'
    factorials over the product of the factorials of how often each
    (terminal pair, path) repeats."""
    arrangements = prod(factorial(size) for size in Counter(instance.terminals).values())
    repeats = Counter(zip(instance.terminals, paths)).values()
    return arrangements // prod(factorial(k) for k in repeats)


class _CostedOrbit(NamedTuple):
    paths: tuple[EdgePath, ...]  # the orbit's first ordered member
    sum_cost: int  # times instance.scale, as is max_cost
    max_cost: int
    nash: bool  # no agent has a strictly cheaper path

    @property
    def profile(self) -> StrategyProfile:
        return StrategyProfile(self.paths)


def _cheapest_paths(
    instance: GameInstance,
    options: tuple[EdgePath, ...],
    loads: Mapping[int, int],
    plus: EdgePath,
    minus: EdgePath,
) -> frozenset[EdgePath]:
    """The paths in ``options`` that one agent prices cheapest when the
    other agents load ``loads`` with one more on ``plus`` and one fewer on
    ``minus``."""
    prices = list(_prices(instance, loads, options, plus, minus))
    floor = min(price for price in prices if price is not None)
    return frozenset(path for path, price in zip(options, prices) if price == floor)


def _costed_orbits(instance: GameInstance, cap: int) -> list[_CostedOrbit]:
    """Every orbit's representative with both social costs, and whether it
    is a Nash equilibrium.

    Social costs, Nash membership and potentials are the same for every
    member of an orbit, so the representatives stand for the whole orbit.
    The backtracker assigns the head, agents 0..n-2; ``_prices`` then prices
    each of the last agent's paths Q against the head's loads, which is its
    cost in the profile head + Q and its cost after moving to Q from any
    other path. The unblocked Q from the rank of the previous agent with the
    same terminals on complete the head's orbits. The head agents' costs
    come from ``_scaled_costs`` on the head's loads plus Q, and the last
    agent adds its price.

    An agent is content exactly where its path is among the cheapest of its
    options, each priced against the other agents' loads, and an orbit is an
    equilibrium exactly where every agent is content. The last agent is
    content where it pays the least of its prices. A head agent's cheapest
    paths depend only on the other agents' paths in position order, which
    also fix its terminal pair, so they are memoized under the head without
    the agent and Q's rank, and priced once, on first use. An agent on the
    same path object as the agent before it has the same other agents, so
    it is content exactly where that agent is.
    """
    options = _path_options(instance, cap)
    if not options:
        return [_CostedOrbit((), 0, 0, True)]
    previous: list[int | None] = []
    seen: dict = {}
    for j, pair in enumerate(instance.terminals):
        previous.append(seen.get(pair))
        seen[pair] = j
    *head_options, last_options = options
    anchor = previous.pop()
    cheapest: dict = {}  # (head without agent j, rank of Q) -> j's cheapest paths
    out = []
    for paths, loads in feasible_profiles(instance, head_options, previous):
        prices = list(_prices(instance, loads, last_options))
        floor = min((p for p in prices if p is not None), default=None)
        start = 0 if anchor is None else last_options.index(paths[anchor])
        for rank in range(start, len(last_options)):
            price = prices[rank]
            if price is None:
                continue
            last = last_options[rank]
            costs = _scaled_costs(instance, loads, paths, last)
            nash = price == floor
            if nash:
                for j, held in enumerate(paths):
                    if j and held is paths[j - 1]:
                        continue
                    key = (paths[:j] + paths[j + 1 :], rank)
                    floor_paths = cheapest.get(key)
                    if floor_paths is None:
                        floor_paths = cheapest[key] = _cheapest_paths(instance, head_options[j], loads, last, held)
                    if held not in floor_paths:
                        nash = False
                        break
            out.append(_CostedOrbit(paths + (last,), costs[0] + price, max(costs[1], price), nash))
    return out


def _social_cost(criterion: Criterion):
    return attrgetter("sum_cost" if criterion is Criterion.SUM else "max_cost")


def _first_minimum(
    instance: GameInstance, orbits: list[_CostedOrbit], criterion: Criterion
) -> tuple[StrategyProfile, Fraction]:
    value = _social_cost(criterion)
    best = min(orbits, key=value, default=None)  # min keeps the first of equals
    if best is None:
        raise InternalAssertion("certified-feasible instance has no feasible profile")
    return best.profile, Fraction(value(best), instance.scale)


def optimal_profile(
    instance: GameInstance, criterion: Criterion, cap: int = DEFAULT_PATH_CAP
) -> tuple[StrategyProfile, Fraction]:
    """Global minimizer of the social cost; ties go to enumeration order."""
    return _first_minimum(instance, _costed_orbits(instance, cap), criterion)


class EquilibriumSummary(NamedTuple):
    """One equilibrium up to agent permutation, with its social statistics."""

    profile: StrategyProfile
    multiplicity: int
    sum_cost: Fraction
    max_cost: Fraction
    potential: Fraction


class EquilibriumSet(NamedTuple):
    """Every Nash equilibrium, reported deduplicated up to agent permutation.

    Permuting agents with identical terminals never changes the social
    statistics, so extremes over ``entries`` equal extremes over all ordered
    equilibria; ``total_count`` still counts the ordered ones.
    """

    entries: tuple[EquilibriumSummary, ...]
    total_count: int

    def extreme(self, criterion: Criterion, worst: bool) -> EquilibriumSummary:
        pick = max if worst else min
        return pick(self.entries, key=_social_cost(criterion))


def _equilibria(instance: GameInstance, orbits: list[_CostedOrbit]) -> EquilibriumSet:
    scale = instance.scale
    entries = []
    for orbit in orbits:
        if orbit.nash:
            profile = orbit.profile
            entries.append(
                EquilibriumSummary(
                    profile=profile,
                    multiplicity=_orbit_size(instance, orbit.paths),
                    sum_cost=Fraction(orbit.sum_cost, scale),
                    max_cost=Fraction(orbit.max_cost, scale),
                    potential=potential(instance, profile),
                )
            )
    if instance.n > 0 and not entries:
        raise InternalAssertion("a feasible game must have a Nash equilibrium")
    return EquilibriumSet(tuple(entries), sum(entry.multiplicity for entry in entries))


def all_nash(instance: GameInstance, cap: int = DEFAULT_PATH_CAP) -> EquilibriumSet:
    """Exactly the feasible profiles that pass the no-regret test."""
    return _equilibria(instance, _costed_orbits(instance, cap))


class RatioValue(NamedTuple):
    """Exact equilibrium/optimum ratio; flagged when the optimum cost is zero.
    The value is None for x/0 with x > 0, the infinite ratio."""

    value: Fraction | None
    degenerate: bool = False


class BoundCheck(NamedTuple):
    """Verdict for one claimed bound, with a witness profile when violated."""

    tag: str
    description: str
    bound: Fraction
    measured: Fraction | None  # None is the infinite ratio
    holds: bool
    witness: StrategyProfile | None = None


class AnalysisReport(NamedTuple):
    graph_class: GraphClass
    agents: int
    symmetric: bool
    opt_sc: tuple[StrategyProfile, Fraction]
    opt_mc: tuple[StrategyProfile, Fraction]
    equilibria: EquilibriumSet
    poa_sc: RatioValue
    pos_sc: RatioValue
    poa_mc: RatioValue
    pos_mc: RatioValue
    bounds: tuple[BoundCheck, ...]


def _ratio(numerator: Fraction, denominator: Fraction) -> RatioValue:
    if denominator == 0:
        # 0/0 happens only on all-zero-cost games; report 1 and flag it
        if numerator == 0:
            return RatioValue(Fraction(1), degenerate=True)
        return RatioValue(None, degenerate=True)
    return RatioValue(numerator / denominator)


def compute_ratios(instance: GameInstance, cap: int = DEFAULT_PATH_CAP) -> AnalysisReport:
    """Exact PoA/PoS under both criteria plus verdicts for applicable bounds.

    No anarchy bound is asserted outside series-parallel graphs (the ratio
    is unbounded there); stability bounds apply everywhere, with the n^2
    variant for asymmetric games.
    """
    orbits = _costed_orbits(instance, cap)
    opt_sc = _first_minimum(instance, orbits, Criterion.SUM)
    opt_mc = _first_minimum(instance, orbits, Criterion.MAX)
    equilibria = _equilibria(instance, orbits)

    worst_sc = equilibria.extreme(Criterion.SUM, worst=True)
    best_sc = equilibria.extreme(Criterion.SUM, worst=False)
    worst_mc = equilibria.extreme(Criterion.MAX, worst=True)
    best_mc = equilibria.extreme(Criterion.MAX, worst=False)

    if best_sc.sum_cost < opt_sc[1] or best_mc.max_cost < opt_mc[1]:
        raise InternalAssertion("an equilibrium beat the optimum")
    if worst_sc.sum_cost < best_sc.sum_cost or worst_mc.max_cost < best_mc.max_cost:
        raise InternalAssertion("best equilibrium worse than worst equilibrium")

    poa_sc = _ratio(worst_sc.sum_cost, opt_sc[1])
    pos_sc = _ratio(best_sc.sum_cost, opt_sc[1])
    poa_mc = _ratio(worst_mc.max_cost, opt_mc[1])
    pos_mc = _ratio(best_mc.max_cost, opt_mc[1])

    n = Fraction(instance.n)
    graph_class = classify(instance.graph)
    bounds: list[BoundCheck] = []
    if instance.n >= 1:
        sp_like = graph_class in (GraphClass.PARALLEL_LINK, GraphClass.SERIES_PARALLEL)
        if instance.symmetric:
            if sp_like:
                bounds.append(
                    _check("Thm5:PoA_sc<=n", "anarchy under sum-cost on SP graphs", n, poa_sc, worst_sc.profile)
                )
                bounds.append(
                    _check("Thm9:PoA_mc<=n", "anarchy under max-cost on SP graphs", n, poa_mc, worst_mc.profile)
                )
            bounds.append(
                _check("Thm8:PoS_sc<=n", "stability under sum-cost", n, pos_sc, best_sc.profile)
            )
            bounds.append(
                _check("Thm10:PoS_mc<=n", "stability under max-cost", n, pos_mc, best_mc.profile)
            )
        else:
            bounds.append(
                _check("Thm13:PoS_sc<=n", "asymmetric stability under sum-cost", n, pos_sc, best_sc.profile)
            )
            bounds.append(
                _check("Thm14:PoS_mc<=n^2", "asymmetric stability under max-cost", n * n, pos_mc, best_mc.profile)
            )

    return AnalysisReport(
        graph_class=graph_class,
        agents=instance.n,
        symmetric=instance.symmetric,
        opt_sc=opt_sc,
        opt_mc=opt_mc,
        equilibria=equilibria,
        poa_sc=poa_sc,
        pos_sc=pos_sc,
        poa_mc=poa_mc,
        pos_mc=pos_mc,
        bounds=tuple(bounds),
    )


def _check(
    tag: str, description: str, bound: Fraction, ratio: RatioValue, extreme: StrategyProfile
) -> BoundCheck:
    holds = ratio.value is not None and ratio.value <= bound
    return BoundCheck(
        tag=tag,
        description=description,
        bound=bound,
        measured=ratio.value,
        holds=holds,
        witness=None if holds else extreme,
    )


def verify_lemma_cost_bound(report: AnalysisReport) -> BoundCheck:
    """Every equilibrium agent pays at most the sum-cost optimum (SP only)."""
    if report.graph_class not in (GraphClass.PARALLEL_LINK, GraphClass.SERIES_PARALLEL):
        raise NotSeriesParallel("the per-agent cost bound needs a series-parallel graph")
    if not report.symmetric:
        raise NotSymmetric("the per-agent cost bound needs shared terminals")

    # an equilibrium's worst agent cost is its max-cost
    worst = report.equilibria.extreme(Criterion.MAX, worst=True)
    return _check(
        "Lem3:agent_cost<=opt_sc",
        "equilibrium agent cost never exceeds the sum-cost optimum",
        report.opt_sc[1],
        RatioValue(worst.max_cost),
        worst.profile,
    )
