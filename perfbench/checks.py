"""Checks of csglab's output documents against the independent checker.

Every check compares a report or trace with what ``checker.Game`` derives
from the instance document, or with a property the method must have. None
compares with a stored copy of an earlier output.
"""

from __future__ import annotations

from fractions import Fraction

from checker import Game


class CheckFailed(Exception):
    """An output disagrees with the checker or breaks a required property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _profile(lists) -> tuple:
    return tuple(tuple(path) for path in lists)


def _ratio(num: Fraction, den: Fraction) -> Fraction:
    expect(den > 0, "optimum cost is zero; the workloads never build such games")
    return num / den


def check_analyze(game: Game, report: dict, family: tuple | None = None) -> None:
    """An ``analyze`` report: class, optima, equilibria, ratios, bounds, dynamics."""
    truth = game.truth()
    n = game.n
    graph_class = game.graph_class()
    expect(report["graph_class"] == graph_class, f"graph class {report['graph_class']} != checker's {graph_class}")
    expect(report["agents"] == n, "agent count differs")
    expect(report["symmetric"] == game.symmetric, "symmetry flag differs")

    optima = {"sum_cost": (truth.opt_sc, sum), "max_cost": (truth.opt_mc, max)}
    for name, (want, social) in optima.items():
        block = report["optima"][name]
        value = Fraction(block["value"]["exact"])
        expect(value == game.value(want), f"{name} optimum {value} != checker's {game.value(want)}")
        costs = game.costs(_profile(block["profile"]))
        expect(costs is not None, f"{name} optimum profile is infeasible")
        expect(social(costs) == want, f"{name} optimum profile does not attain its value")

    equilibria = {game.orbit_key(o.profile): o for o in truth.equilibria}
    block = report["equilibria"]
    seen = set()
    for entry in block["profiles"]:
        profile = _profile(entry["paths"])
        key = game.orbit_key(profile)
        expect(key not in seen, "an equilibrium is listed twice")
        seen.add(key)
        expect(key in equilibria, f"reported equilibrium {entry['paths']} is not one")
        orbit = equilibria[key]
        expect(entry["multiplicity"] == orbit.multiplicity, "equilibrium multiplicity differs")
        expect(Fraction(entry["sum_cost"]) == game.value(orbit.sum_cost), "equilibrium sum-cost differs")
        expect(Fraction(entry["max_cost"]) == game.value(orbit.max_cost), "equilibrium max-cost differs")
        expect(Fraction(entry["potential"]) == game.value(orbit.potential), "equilibrium potential differs")
    expect(seen == set(equilibria), f"{len(equilibria) - len(seen & set(equilibria))} equilibria missing")
    expect(block["count_distinct"] == len(equilibria), "distinct equilibrium count differs")
    expect(block["count_ordered"] == sum(o.multiplicity for o in equilibria.values()),
           "ordered equilibrium count differs")

    eq = equilibria.values()
    opt_sc, opt_mc = game.value(truth.opt_sc), game.value(truth.opt_mc)
    ratios = {
        "poa_sc": _ratio(game.value(max(o.sum_cost for o in eq)), opt_sc),
        "pos_sc": _ratio(game.value(min(o.sum_cost for o in eq)), opt_sc),
        "poa_mc": _ratio(game.value(max(o.max_cost for o in eq)), opt_mc),
        "pos_mc": _ratio(game.value(min(o.max_cost for o in eq)), opt_mc),
    }
    for name, want in ratios.items():
        got = Fraction(report["ratios"][name]["exact"])
        expect(got == want, f"{name} {got} != checker's {want}")

    # the paper's bounds, on the checker's ratios
    if game.symmetric:
        limits = {"pos_sc": n, "pos_mc": n}
        if graph_class in ("parallel-link", "series-parallel"):
            limits.update(poa_sc=n, poa_mc=n)
    else:
        limits = {"pos_sc": n, "pos_mc": n * n}
    for name, limit in limits.items():
        expect(ratios[name] <= limit, f"{name} = {ratios[name]} exceeds {limit}")
    expect(report["all_bounds_hold"] is True and all(b["holds"] for b in report["bounds"]),
           "report marks a bound as violated")

    if family is not None:
        check_family(family, report, ratios, truth, game)
    check_trace(game, report["dynamics"], _profile(report["optima"]["sum_cost"]["profile"]))


def check_family(family: tuple, report: dict, ratios: dict, truth, game: Game) -> None:
    """The paper's closed forms for its two constructed families."""
    kind, n = family[0], game.n
    if kind == "two-link":
        expect(ratios["poa_sc"] == n and ratios["poa_mc"] == n, f"two-link({n}): PoA != n")
    elif kind == "fig3":
        eps = family[1]
        spread = n - 1 + Fraction(1, n)
        expect(len(truth.equilibria) == 1, f"fig3({n}): {len(truth.equilibria)} distinct equilibria")
        expect(game.value(truth.equilibria[0].sum_cost) == spread, f"fig3({n}): equilibrium sum-cost != n-1+1/n")
        expect(ratios["pos_sc"] == spread / (1 + eps), f"fig3({n}): PoS_sc != (n-1+1/n)/(1+eps)")
    else:
        raise CheckFailed(f"unknown family {kind!r}")


def check_trace(game: Game, trace: dict, start: tuple) -> None:
    """A dynamics trace: replay it move by move and test where it ends."""
    profile = list(start)
    expect(_profile(trace["start"]) == start, "trace does not start at the given profile")
    pot = game.potential(profile)
    expect(Fraction(trace["initial_potential"]) == game.value(pot), "initial potential differs")
    for number, step in enumerate(trace["steps"]):
        agent = step["agent"]
        old, new = tuple(step["old_path"]), tuple(step["new_path"])
        expect(profile[agent] == old, f"step {number}: old path is not the agent's path")
        expect(new in game.agent_paths(agent), f"step {number}: new path is not a strategy")
        before = game.costs(profile)[agent]
        profile[agent] = new
        costs = game.costs(profile)
        expect(costs is not None, f"step {number}: the move overloads an edge")
        after_pot = game.potential(profile)
        delta = Fraction(step["cost_delta"])
        expect(delta == game.value(costs[agent] - before), f"step {number}: cost change differs")
        expect(delta == game.value(after_pot - pot), f"step {number}: potential difference != cost change")
        expect(delta < 0, f"step {number}: the move does not improve")
        expect(Fraction(step["potential_after"]) == game.value(after_pot), f"step {number}: potential differs")
        pot = after_pot
    expect(trace["step_count"] == len(trace["steps"]), "step count differs")
    terminal = trace["terminal"]
    expect(_profile(terminal["paths"]) == tuple(profile), "terminal profile is not where the steps lead")
    expect(game.is_nash(tuple(profile)), "terminal profile is not an equilibrium")
    costs = game.costs(profile)
    expect(Fraction(terminal["sum_cost"]) == game.value(sum(costs)), "terminal sum-cost differs")
    expect(Fraction(terminal["max_cost"]) == game.value(max(costs)), "terminal max-cost differs")
    expect(Fraction(terminal["potential"]) == game.value(pot), "terminal potential differs")
