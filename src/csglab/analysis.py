"""Exhaustive desk-scale analysis: optima, equilibrium sets, exact ratios.

Optima come from exhaustive search rather than flow optimization: under a
general scheme the aggregate edge cost need not be convex in the load, so
min-cost-flow shortcuts would be unsound. Everything is exact rationals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, prod
from operator import attrgetter
from typing import NamedTuple

from .errors import InternalAssertion, NotSeriesParallel, NotSymmetric, PathExplosion
from .game import GameInstance, StrategyProfile, agent_cost, feasible_profiles, is_nash, potential
from .graphs import DEFAULT_PATH_CAP, GraphClass, classify
from .rational import Cost, INFINITY, is_finite


class Criterion(Enum):
    SUM = "sc"
    MAX = "mc"


def _feasible_profiles(
    instance: GameInstance, cap: int, one_per_orbit: bool
) -> list[StrategyProfile]:
    """Feasible profiles, ordered lexicographically by per-agent path rank.

    Guards both the per-agent path counts and the product of the counts with
    ``cap``; beyond that the instance is declared too large for exhaustive
    work. With ``one_per_orbit`` an agent's rank starts at the rank of the
    previous agent with the same terminals.
    """
    option_lists = [instance.agent_paths(j, cap) for j in range(instance.n)]
    counts = [len(options) for options in option_lists]
    combinations = prod(counts, start=1)
    if combinations > cap:
        product = "×".join(map(str, counts)) or "1"
        raise PathExplosion(f"ordered profile product {product}", cap, combinations)

    previous: list[int | None] = [None] * instance.n
    if one_per_orbit:
        last: dict = {}
        for j, pair in enumerate(instance.terminals):
            previous[j] = last.get(pair)
            last[pair] = j
    return list(feasible_profiles(instance, option_lists, previous))


def enumerate_profiles(
    instance: GameInstance, cap: int = DEFAULT_PATH_CAP
) -> list[StrategyProfile]:
    """All feasible profiles, ordered lexicographically by per-agent path rank."""
    return _feasible_profiles(instance, cap, one_per_orbit=False)


def enumerate_orbits(
    instance: GameInstance, cap: int = DEFAULT_PATH_CAP
) -> list[tuple[StrategyProfile, int]]:
    """One feasible profile per orbit, with the orbit's size.

    An orbit is the set of profiles reached by permuting agents that share a
    terminal pair. Each comes out as its lexicographically first ordered
    member (ranks non-decreasing within each such class), and the orbits come
    out in the order of those members. The size is the multinomial
    coefficient: the product of the class sizes' factorials over the product
    of the factorials of how often each (terminal pair, path) repeats.
    ``cap`` still bounds the ordered profile product.
    """
    arrangements = prod(factorial(size) for size in Counter(instance.terminals).values())
    return [
        (
            profile,
            arrangements
            // prod(factorial(k) for k in Counter(zip(instance.terminals, profile.paths)).values()),
        )
        for profile in _feasible_profiles(instance, cap, one_per_orbit=True)
    ]


class _CostedOrbit(NamedTuple):
    profile: StrategyProfile
    size: int
    sum_cost: Cost
    max_cost: Cost


def _costed_orbits(instance: GameInstance, cap: int) -> list[_CostedOrbit]:
    """Every orbit with both social costs, taken from one agent-cost vector.

    Social costs, Nash membership and potentials are the same for every
    member of an orbit, so the representatives stand for the whole orbit.
    """
    out = []
    for profile, size in enumerate_orbits(instance, cap):
        costs = [agent_cost(instance, profile, agent) for agent in range(instance.n)]
        out.append(_CostedOrbit(profile, size, sum(costs, Fraction(0)), max(costs, default=Fraction(0))))
    return out


def _social_cost(criterion: Criterion):
    return attrgetter("sum_cost" if criterion is Criterion.SUM else "max_cost")


def _first_minimum(
    orbits: list[_CostedOrbit], criterion: Criterion
) -> tuple[StrategyProfile, Fraction]:
    value = _social_cost(criterion)
    best = min(orbits, key=value, default=None)  # min keeps the first of equals
    if best is None or not is_finite(value(best)):
        raise InternalAssertion("certified-feasible instance has no feasible profile")
    return best.profile, value(best)


def optimal_profile(
    instance: GameInstance, criterion: Criterion, cap: int = DEFAULT_PATH_CAP
) -> tuple[StrategyProfile, Fraction]:
    """Global minimizer of the social cost; ties go to enumeration order."""
    return _first_minimum(_costed_orbits(instance, cap), criterion)


@dataclass(frozen=True)
class EquilibriumSummary:
    """One equilibrium up to agent permutation, with its social statistics."""

    profile: StrategyProfile
    multiplicity: int
    sum_cost: Fraction
    max_cost: Fraction
    potential: Fraction


@dataclass(frozen=True)
class EquilibriumSet:
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
    entries = tuple(
        EquilibriumSummary(
            profile=orbit.profile,
            multiplicity=orbit.size,
            sum_cost=orbit.sum_cost,
            max_cost=orbit.max_cost,
            potential=potential(instance, orbit.profile),
        )
        for orbit in orbits
        if is_nash(instance, orbit.profile)
    )
    if instance.n > 0 and not entries:
        raise InternalAssertion("a feasible game must have a Nash equilibrium")
    return EquilibriumSet(entries, sum(entry.multiplicity for entry in entries))


def all_nash(instance: GameInstance, cap: int = DEFAULT_PATH_CAP) -> EquilibriumSet:
    """Exactly the feasible profiles that pass the no-regret test."""
    return _equilibria(instance, _costed_orbits(instance, cap))


@dataclass(frozen=True)
class RatioValue:
    """Exact equilibrium/optimum ratio; flagged when the optimum cost is zero."""

    value: Cost
    degenerate: bool = False


@dataclass(frozen=True)
class BoundCheck:
    """Verdict for one claimed bound, with a witness profile when violated."""

    tag: str
    description: str
    bound: Fraction
    measured: Cost
    holds: bool
    witness: StrategyProfile | None = None


@dataclass(frozen=True)
class AnalysisReport:
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
        return RatioValue(INFINITY, degenerate=True)
    return RatioValue(numerator / denominator)


def compute_ratios(instance: GameInstance, cap: int = DEFAULT_PATH_CAP) -> AnalysisReport:
    """Exact PoA/PoS under both criteria plus verdicts for applicable bounds.

    No anarchy bound is asserted outside series-parallel graphs (the ratio
    is unbounded there); stability bounds apply everywhere, with the n^2
    variant for asymmetric games.
    """
    orbits = _costed_orbits(instance, cap)
    opt_sc = _first_minimum(orbits, Criterion.SUM)
    opt_mc = _first_minimum(orbits, Criterion.MAX)
    equilibria = _equilibria(instance, orbits)

    worst_sc = equilibria.extreme(Criterion.SUM, worst=True)
    best_sc = equilibria.extreme(Criterion.SUM, worst=False)
    worst_mc = equilibria.extreme(Criterion.MAX, worst=True)
    best_mc = equilibria.extreme(Criterion.MAX, worst=False)

    poa_sc = _ratio(worst_sc.sum_cost, opt_sc[1])
    pos_sc = _ratio(best_sc.sum_cost, opt_sc[1])
    poa_mc = _ratio(worst_mc.max_cost, opt_mc[1])
    pos_mc = _ratio(best_mc.max_cost, opt_mc[1])

    for ratio in (poa_sc, pos_sc, poa_mc, pos_mc):
        if is_finite(ratio.value) and ratio.value < 1:
            raise InternalAssertion("an equilibrium beat the optimum")
    if poa_sc.value < pos_sc.value or poa_mc.value < pos_mc.value:
        raise InternalAssertion("best equilibrium worse than worst equilibrium")

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
    holds = ratio.value <= bound
    return BoundCheck(
        tag=tag,
        description=description,
        bound=bound,
        measured=ratio.value,
        holds=holds,
        witness=None if holds else extreme,
    )


def verify_lemma_cost_bound(
    instance: GameInstance, cap: int = DEFAULT_PATH_CAP
) -> BoundCheck:
    """Every equilibrium agent pays at most the sum-cost optimum (SP only)."""
    if classify(instance.graph) not in (
        GraphClass.PARALLEL_LINK,
        GraphClass.SERIES_PARALLEL,
    ):
        raise NotSeriesParallel("the per-agent cost bound needs a series-parallel graph")
    if not instance.symmetric:
        raise NotSymmetric("the per-agent cost bound needs shared terminals")

    orbits = _costed_orbits(instance, cap)
    _, opt_value = _first_minimum(orbits, Criterion.SUM)
    # an equilibrium's worst agent cost is its max-cost
    worst = _equilibria(instance, orbits).extreme(Criterion.MAX, worst=True)
    holds = worst.max_cost <= opt_value
    return BoundCheck(
        tag="Lem3:agent_cost<=opt_sc",
        description="equilibrium agent cost never exceeds the sum-cost optimum",
        bound=opt_value,
        measured=worst.max_cost,
        holds=holds,
        witness=None if holds else worst.profile,
    )
