"""Convergent deviation dynamics and equilibrium rebuilding.

Only strictly improving moves are ever executed, so the potential drops at
every step and every run terminates at a Nash equilibrium. The rebuild
procedure turns a max-cost-optimal profile into an equilibrium whose
max-cost is at most n times the optimal max-cost, lowering the potential
across rebuild rounds until the bound holds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from . import flows
from .errors import (
    InternalAssertion,
    NotSymmetric,
    ParameterViolation,
    StepCapExceeded,
)
# best_response is re-exported from game, next to is_nash
from .game import (
    GameInstance,
    StrategyProfile,
    _improving_move,
    _loads,
    _scaled_potential,
    agent_cost,
    best_response,
    is_feasible,
    max_cost,
    potential,
    sum_cost,
)
from .graphs import EdgePath, Frozen

DEFAULT_STEP_CAP = 10_000

ORDERINGS = ("round_robin", "random")
RULES = ("best", "first_improving")


class DeviationPolicy(Frozen):
    """How agents take turns and which improving move they pick.

    Round-robin visits agents by index; "random" reshuffles each pass with
    a seeded generator, so runs are reproducible given the seed.
    """

    FIELDS = ("ordering", "rule", "seed")

    def __init__(self, ordering: str = "round_robin", rule: str = "best", seed: int = 0):
        if ordering not in ORDERINGS:
            raise ParameterViolation(f"unknown ordering {ordering!r}")
        if rule not in RULES:
            raise ParameterViolation(f"unknown rule {rule!r}")
        self.__dict__.update(ordering=ordering, rule=rule, seed=seed)


DEFAULT_POLICY = DeviationPolicy()


class DynamicsStep(NamedTuple):
    agent: int
    old_path: EdgePath
    new_path: EdgePath
    cost_delta: Fraction
    potential_after: Fraction


class DynamicsTrace(NamedTuple):
    """Executed deviations plus the terminal equilibrium they reached."""

    start: StrategyProfile
    terminal: StrategyProfile
    steps: tuple[DynamicsStep, ...]
    initial_potential: Fraction

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def potentials(self) -> tuple[Fraction, ...]:
        return (self.initial_potential,) + tuple(s.potential_after for s in self.steps)


def run_dynamics(
    instance: GameInstance,
    start: StrategyProfile,
    policy: DeviationPolicy = DEFAULT_POLICY,
    step_cap: int = DEFAULT_STEP_CAP,
) -> DynamicsTrace:
    """Iterate strictly improving deviations until no agent has one.

    The potential drops by exactly the mover's cost change at every step
    (asserted), so the run terminates; the step cap is only a safety net.
    A full pass with no executed move certifies the terminal profile is a
    Nash equilibrium.
    """
    if step_cap < 0:
        raise ParameterViolation(f"step cap must be non-negative, got {step_cap}")
    rng = random.Random(policy.seed)
    n = len(start)

    profile = start
    scale = instance.scale
    # each visited profile is gated once; its loads feed the potential and the scans
    loads = _loads(instance, profile)
    pot = _scaled_potential(instance, loads)
    initial_potential = Fraction(pot, scale)
    steps: list[DynamicsStep] = []

    while True:
        if policy.ordering == "round_robin":
            order = range(n)
        else:
            order = rng.sample(range(n), n)
        moved = False
        for agent in order:
            old_path = profile.paths[agent]
            move = _improving_move(instance, loads, old_path, agent, policy.rule)
            if move is None:
                continue
            if len(steps) >= step_cap:
                raise StepCapExceeded(f"dynamics exceeded {step_cap} steps")
            new_path, old_cost, new_cost = move
            profile = profile.replace(agent, new_path)
            loads = _loads(instance, profile)
            new_pot = _scaled_potential(instance, loads)
            if new_pot - pot != new_cost - old_cost:
                raise InternalAssertion(
                    f"potential change {Fraction(new_pot - pot, scale)}"
                    f" != cost change {Fraction(new_cost - old_cost, scale)}"
                )
            pot = new_pot
            steps.append(
                DynamicsStep(
                    agent, old_path, new_path, Fraction(new_cost - old_cost, scale), Fraction(new_pot, scale)
                )
            )
            moved = True
        if not moved:
            break

    return DynamicsTrace(start, profile, tuple(steps), initial_potential)


# --- low-max-cost equilibrium (augmenting-path rebuild) -----------------------


class RebuildRound(NamedTuple):
    """Bookkeeping for one rebuild of an equilibrium whose max-cost is too high.

    All values are in the instance's own units.
    """

    removed_agent: int
    equilibrium_max_cost: Fraction
    equilibrium_potential: Fraction
    augmenting_arcs: tuple[flows.ResidualArc, ...]
    rebuilt_path_cost: Fraction
    rebuilt_potential: Fraction
    settled_potential: Fraction


class ConstructiveResult(NamedTuple):
    equilibrium: StrategyProfile
    rounds: tuple[RebuildRound, ...]


def low_max_cost_equilibrium(
    instance: GameInstance,
    max_cost_optimum: StrategyProfile,
) -> ConstructiveResult:
    """Equilibrium whose max-cost is at most n times the optimal max-cost.

    The target is the reference profile's sum-cost, which is at most n times
    its max-cost. Thm10's proof rescales the game so that this sum is n;
    every comparison below survives a positive factor, so the procedure runs
    on the instance itself and visits the same profiles. Runs dynamics from
    the reference profile; while the resulting equilibrium still has
    max-cost above the target, removes the worst-paying agent (lowest index
    on ties), finds an augmenting path in the residual network of the
    combined capacitated graph, reinserts the agent along it, and settles
    again. Each round strictly lowers the potential, so the loop is finite.
    """
    if not instance.symmetric:
        raise NotSymmetric("the rebuild procedure requires shared terminals")
    n = instance.n
    if n == 0:
        raise ParameterViolation("need at least one agent")

    target = sum_cost(instance, max_cost_optimum)
    ref_loads = max_cost_optimum.loads

    equilibrium = run_dynamics(instance, max_cost_optimum).terminal
    rounds: list[RebuildRound] = []

    while True:
        worst = max_cost(instance, equilibrium)
        if worst <= target:
            break
        if len(rounds) >= DEFAULT_STEP_CAP:
            raise StepCapExceeded(f"rebuild exceeded {DEFAULT_STEP_CAP} rounds")

        ne_potential = potential(instance, equilibrium)
        removed = min(
            agent
            for agent in range(n)
            if agent_cost(instance, equilibrium, agent) == worst
        )
        partial = equilibrium.without(removed)
        profile_after_rebuild, arcs, path_cost = _reinsert_agent(
            instance, ref_loads, partial, removed
        )
        if path_cost > target:
            raise InternalAssertion(
                f"rebuilt path cost {path_cost} exceeds the reference sum-cost {target}"
            )
        rebuilt_potential = potential(instance, profile_after_rebuild)
        if not rebuilt_potential < ne_potential:
            raise InternalAssertion("rebuild did not lower the potential")

        equilibrium = run_dynamics(instance, profile_after_rebuild).terminal
        settled_potential = potential(instance, equilibrium)
        rounds.append(
            RebuildRound(
                removed_agent=removed,
                equilibrium_max_cost=worst,
                equilibrium_potential=ne_potential,
                augmenting_arcs=arcs,
                rebuilt_path_cost=path_cost,
                rebuilt_potential=rebuilt_potential,
                settled_potential=settled_potential,
            )
        )
        if len(rounds) >= 2:
            if not rounds[-1].equilibrium_potential < rounds[-2].equilibrium_potential:
                raise InternalAssertion("round potentials must strictly decrease")

    return ConstructiveResult(equilibrium, tuple(rounds))


def _reinsert_agent(
    instance: GameInstance,
    ref_loads: dict[int, int],
    partial: StrategyProfile,
    removed: int,
) -> tuple[StrategyProfile, tuple[flows.ResidualArc, ...], Fraction]:
    """Route the removed agent through the combined capacitated graph.

    The combined graph takes the union of the reference profile's and the
    partial profile's edges with capacity max(reference load, partial load).
    The partial profile is a flow one unit short of what the combined graph
    admits, so an augmenting path exists; every forward arc on it is an edge
    the reference profile uses (asserted), which caps the path's base-cost
    total. A forward-only path slots in directly as the removed agent's new
    strategy; otherwise the augmented flow is re-decomposed into unit paths
    assigned to agents by index.
    """
    graph = instance.graph
    partial_loads = partial.loads
    union_caps = {
        eid: max(ref_loads.get(eid, 0), partial_loads.get(eid, 0))
        for eid in set(ref_loads) | set(partial_loads)
    }
    flow = flows.Flow(dict(partial_loads), len(partial))
    arcs = flows.augmenting_path(graph, union_caps, flow)
    if arcs is None:
        raise InternalAssertion("combined graph admits no augmenting path")

    forward_edges = [arc.edge_id for arc in arcs if arc.forward]
    for edge_id in forward_edges:
        if ref_loads.get(edge_id, 0) <= 0:
            raise InternalAssertion(
                f"augmenting path uses edge {edge_id} outside the reference profile"
            )
    path_cost = sum(
        (instance.schemes[eid].base_cost for eid in forward_edges), Fraction(0)
    )

    if all(arc.forward for arc in arcs):
        new_path = tuple(arc.edge_id for arc in arcs)
        rebuilt = StrategyProfile(
            partial.paths[:removed] + (new_path,) + partial.paths[removed:]
        )
    else:
        new_values = flows.apply_augmentation(flow.values, arcs)
        unit_paths = flows.decompose_unit_paths(graph, new_values)
        rebuilt = StrategyProfile(unit_paths)
    if len(rebuilt) != instance.n:
        raise InternalAssertion("rebuild produced the wrong number of paths")
    if not is_feasible(instance, rebuilt):
        raise InternalAssertion("rebuilt profile is infeasible")
    return rebuilt, arcs, path_cost
