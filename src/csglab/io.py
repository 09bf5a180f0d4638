"""JSON documents for instances, profiles, reports and traces.

Rationals cross the wire as reduced "num/den" strings, never floats, so a
document round-trips losslessly. Report documents are byte-stable for
identical inputs: anything non-deterministic (wall time) lives in a
dedicated volatile block.
"""

from __future__ import annotations

import json
from typing import Any, IO, Mapping

from .analysis import AnalysisReport, BoundCheck, EquilibriumSet, RatioValue
from .dynamics import DynamicsTrace
from .errors import InstanceFormatError
from .game import (
    CostSharingScheme,
    GameInstance,
    StrategyProfile,
    is_ordinary_scheme,
    make_instance,
    make_ordinary_scheme,
    make_scheme,
    max_cost,
    potential,
    sum_cost,
)
from .graphs import make_graph
from .rational import as_decimal, format_rational, parse_rational

INSTANCE_VERSION = 1
REPORT_VERSION = 1


# --- instance documents -------------------------------------------------------


def instance_to_document(
    instance: GameInstance, recipe: Mapping[str, Any] | None = None
) -> dict:
    graph = instance.graph
    edges = []
    for edge in graph.edges_by_id:
        scheme = instance.schemes[edge.id]
        edges.append(
            {
                "id": edge.id,
                "tail": edge.tail,
                "head": edge.head,
                "cost": format_rational(scheme.base_cost),
                "capacity": scheme.capacity,
                "scheme": _scheme_to_json(scheme),
            }
        )
    doc: dict[str, Any] = {
        "version": INSTANCE_VERSION,
        "agents": instance.n
        if instance.symmetric
        else [{"source": s, "sink": t} for s, t in instance.terminals],
        "nodes": list(graph.nodes),
        "source": graph.source,
        "sink": graph.sink,
        "edges": edges,
    }
    if recipe is not None:
        doc["recipe"] = dict(recipe)
    return doc


def _scheme_to_json(scheme: CostSharingScheme):
    if is_ordinary_scheme(scheme):
        return "ordinary"
    return {"table": [format_rational(s) for s in scheme.shares]}


def instance_from_document(doc: Mapping[str, Any]) -> GameInstance:
    try:
        return _parse_instance(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed instance document: {exc}") from exc


def _parse_instance(doc: Mapping[str, Any]) -> GameInstance:
    if doc.get("version") != INSTANCE_VERSION:
        raise InstanceFormatError(f"unsupported instance version {doc.get('version')!r}")
    nodes = list(doc["nodes"])
    graph = make_graph(
        nodes,
        [(int(e["id"]), e["tail"], e["head"]) for e in doc["edges"]],
        doc["source"],
        doc["sink"],
    )
    schemes: dict[int, CostSharingScheme] = {}
    for entry in doc["edges"]:
        eid = int(entry["id"])
        cost = parse_rational(str(entry["cost"]))
        capacity = int(entry["capacity"])
        raw = entry.get("scheme", "ordinary")
        if raw == "ordinary":
            schemes[eid] = make_ordinary_scheme(cost, capacity)
        elif isinstance(raw, Mapping) and "table" in raw:
            table = [parse_rational(str(v)) for v in raw["table"]]
            schemes[eid] = make_scheme(cost, capacity, table)
        else:
            raise InstanceFormatError(f"edge {eid}: unknown scheme form {raw!r}")
    agents = doc["agents"]
    if isinstance(agents, int):
        agent_arg: int | list = agents
    else:
        agent_arg = [(a["source"], a["sink"]) for a in agents]
    return make_instance(graph, schemes, agent_arg)


# --- profiles ------------------------------------------------------------------


def profile_to_lists(profile: StrategyProfile) -> list[list[int]]:
    return [list(path) for path in profile.paths]


def profile_from_document(doc: Any, instance: GameInstance) -> StrategyProfile:
    """Accept either a bare list of edge-id lists or {"paths": [...]}."""
    paths = doc.get("paths") if isinstance(doc, Mapping) else doc
    if not isinstance(paths, list):
        raise InstanceFormatError("profile document must be a list of edge-id lists")
    try:
        return instance.profile([tuple(int(e) for e in path) for path in paths])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed profile document: {exc}") from exc


# --- reports -------------------------------------------------------------------


def _rational_block(value, *, degenerate: bool = False) -> dict:
    block = {"exact": format_rational(value), "decimal": as_decimal(value)}
    if degenerate:
        block["degenerate"] = True
    return block


def _ratio_block(ratio: RatioValue) -> dict:
    return _rational_block(ratio.value, degenerate=ratio.degenerate)


def _bound_block(check: BoundCheck) -> dict:
    block = {
        "tag": check.tag,
        "description": check.description,
        "bound": format_rational(check.bound),
        "measured": format_rational(check.measured),
        "holds": check.holds,
        "witness": None if check.witness is None else profile_to_lists(check.witness),
    }
    return block


def _equilibria_block(equilibria: EquilibriumSet) -> dict:
    return {
        "count_ordered": equilibria.total_count,
        "count_distinct": len(equilibria.entries),
        "profiles": [
            {
                "paths": profile_to_lists(entry.profile),
                "multiplicity": entry.multiplicity,
                "sum_cost": format_rational(entry.sum_cost),
                "max_cost": format_rational(entry.max_cost),
                "potential": format_rational(entry.potential),
            }
            for entry in equilibria.entries
        ],
    }


def report_to_document(
    report: AnalysisReport,
    *,
    criterion: str = "both",
    recipe: Mapping[str, Any] | None = None,
    dynamics: Mapping[str, Any] | None = None,
    seeds: Mapping[str, Any] | None = None,
    wall_time_s: float | None = None,
) -> dict:
    """Assemble the analysis report document.

    ``criterion`` filters optima, ratios and bound verdicts, and
    ``all_bounds_hold`` counts only the verdicts the document shows.
    """
    want_sc = criterion in ("both", "sc")
    want_mc = criterion in ("both", "mc")
    ratios: dict[str, Any] = {}
    optima: dict[str, Any] = {}
    if want_sc:
        optima["sum_cost"] = {
            "value": _rational_block(report.opt_sc[1]),
            "profile": profile_to_lists(report.opt_sc[0]),
        }
        ratios["poa_sc"] = _ratio_block(report.poa_sc)
        ratios["pos_sc"] = _ratio_block(report.pos_sc)
    if want_mc:
        optima["max_cost"] = {
            "value": _rational_block(report.opt_mc[1]),
            "profile": profile_to_lists(report.opt_mc[0]),
        }
        ratios["poa_mc"] = _ratio_block(report.poa_mc)
        ratios["pos_mc"] = _ratio_block(report.pos_mc)

    def tag_wanted(tag: str) -> bool:
        if "_sc" in tag:
            return want_sc
        if "_mc" in tag:
            return want_mc
        return True

    shown = [c for c in report.bounds if tag_wanted(c.tag)]
    doc: dict[str, Any] = {
        "version": REPORT_VERSION,
        "graph_class": report.graph_class.value,
        "agents": report.agents,
        "symmetric": report.symmetric,
        "optima": optima,
        "equilibria": _equilibria_block(report.equilibria),
        "ratios": ratios,
        "bounds": [_bound_block(c) for c in shown],
        "all_bounds_hold": all(c.holds for c in shown),
        "seeds": dict(seeds or {}),
    }
    if recipe is not None:
        doc["recipe"] = dict(recipe)
    if dynamics is not None:
        doc["dynamics"] = dict(dynamics)
    doc["volatile"] = {"wall_time_s": wall_time_s}
    return doc


def trace_to_document(trace: DynamicsTrace, instance: GameInstance) -> dict:
    return {
        "start": profile_to_lists(trace.start),
        "steps": [
            {
                "agent": step.agent,
                "old_path": list(step.old_path),
                "new_path": list(step.new_path),
                "cost_delta": format_rational(step.cost_delta),
                "potential_after": format_rational(step.potential_after),
            }
            for step in trace.steps
        ],
        "step_count": trace.step_count,
        "initial_potential": format_rational(trace.initial_potential),
        "terminal": {
            "paths": profile_to_lists(trace.terminal),
            "sum_cost": format_rational(sum_cost(instance, trace.terminal)),
            "max_cost": format_rational(max_cost(instance, trace.terminal)),
            "potential": format_rational(potential(instance, trace.terminal)),
        },
    }


# --- plumbing ------------------------------------------------------------------


def canonical_json(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(stream: IO[str]) -> Any:
    try:
        return json.load(stream)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
