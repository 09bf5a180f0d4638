"""JSON documents for instances, profiles, reports and traces.

Rationals cross the wire as reduced "num/den" strings, never floats, so a
document round-trips losslessly. Report documents are byte-stable for
identical inputs: anything non-deterministic (wall time) lives in a
dedicated volatile block.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from typing import Any, IO

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
    max_cost,
    potential,
    sum_cost,
)
from .graphs import DEFAULT_PATH_CAP, NodeId, make_graph
from .rational import as_decimal, format_rational, parse_rational

INSTANCE_VERSION = 1
REPORT_VERSION = 1


# --- instance documents -------------------------------------------------------


def instance_to_document(
    instance: GameInstance, recipe: Mapping[str, Any] | None = None
) -> dict:
    graph = instance.graph
    edges = []
    for edge in graph.edges:
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


def instance_from_document(doc: Any, cap: int = DEFAULT_PATH_CAP) -> GameInstance:
    if not isinstance(doc, Mapping):
        raise InstanceFormatError(f"instance document must be a JSON object, got {type(doc).__name__}")
    try:
        return _parse_instance(doc, cap)
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed instance document: {exc}") from exc


def _integer(value: Any, what: str) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not coerced."""
    if type(value) is not int:
        raise InstanceFormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _node(value: Any, what: str) -> NodeId:
    """A node id: a JSON string or integer; floats, booleans and null are rejected."""
    if type(value) not in (str, int):
        raise InstanceFormatError(f"{what} must be a JSON string or integer, got {value!r}")
    return value


def _array(value: Any, what: str) -> list:
    """A JSON array; strings and objects are rejected, not split into items."""
    if not isinstance(value, list):
        raise InstanceFormatError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _parse_instance(doc: Mapping[str, Any], cap: int) -> GameInstance:
    if doc.get("version") != INSTANCE_VERSION:
        raise InstanceFormatError(f"unsupported instance version {doc.get('version')!r}")
    if "recipe" in doc and not isinstance(doc["recipe"], Mapping):
        # the report copies the recipe as an object
        raise InstanceFormatError(f"recipe must be a JSON object, got {type(doc['recipe']).__name__}")
    nodes = [_node(v, "node id") for v in _array(doc["nodes"], "nodes")]
    edges = _array(doc["edges"], "edges")
    ids = [_integer(e["id"], "edge id") for e in edges]
    graph = make_graph(
        nodes,
        [(eid, _node(e["tail"], "edge tail"), _node(e["head"], "edge head")) for eid, e in zip(ids, edges)],
        _node(doc["source"], "source"),
        _node(doc["sink"], "sink"),
    )
    schemes: dict[int, CostSharingScheme] = {}
    for eid, entry in zip(ids, edges):
        cost = parse_rational(str(entry["cost"]))
        capacity = _integer(entry["capacity"], f"edge {eid}: capacity")
        raw = entry.get("scheme", "ordinary")
        if raw == "ordinary":
            schemes[eid] = make_ordinary_scheme(cost, capacity)
        elif isinstance(raw, Mapping) and "table" in raw:
            # validated with every other table by make_instance
            table = tuple(parse_rational(str(v)) for v in _array(raw["table"], f"edge {eid}: table"))
            schemes[eid] = CostSharingScheme(cost, capacity, table)
        else:
            raise InstanceFormatError(f"edge {eid}: unknown scheme form {raw!r}")
    agents = doc["agents"]
    if isinstance(agents, (int, float)):
        agent_arg: int | list = _integer(agents, "agent count")
    else:
        agent_arg = [
            (_node(a["source"], "agent source"), _node(a["sink"], "agent sink"))
            for a in _array(agents, "agents")
        ]
    return make_instance(graph, schemes, agent_arg, cap=cap)


# --- profiles ------------------------------------------------------------------


def profile_to_lists(profile: StrategyProfile) -> list[list[int]]:
    return [list(path) for path in profile.paths]


def profile_from_document(doc: Any, instance: GameInstance) -> StrategyProfile:
    """Accept either a bare list of edge-id lists or {"paths": [...]}."""
    paths = doc.get("paths") if isinstance(doc, Mapping) else doc
    if not isinstance(paths, list):
        raise InstanceFormatError("profile document must be a list of edge-id lists")
    try:
        return instance.profile([tuple(_integer(e, "profile edge id") for e in path) for path in paths])
    except TypeError as exc:
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

    # every bound's tag names its criterion, "_sc" or "_mc"
    shown = [c for c in report.bounds if (want_sc if "_sc" in c.tag else want_mc)]
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


# how json.dumps writes each scalar type; v - v is 0.0 only for finite floats
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda v: float.__repr__(v) if v - v == 0 else "NaN" if v != v else "Infinity" if v > 0 else "-Infinity",
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _flat(value: Any, pad: str) -> str | None:
    """A scalar, a container of scalars or a list of int lists, closed on the
    line ``pad`` starts, as json.dumps writes it; None for other containers."""
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not {*map(type, value.values())} <= _SCALARS.keys():
            return None
        # a non-str key fails in sorted() or in the encoder, with TypeError
        texts = [f"{encode_basestring_ascii(k)}: {_SCALARS[type(v)](v)}" for k, v in sorted(value.items())]
    elif not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif (kinds := {*map(type, value)}) <= _SCALARS.keys():
        texts = map(int.__repr__, value) if kinds == {int} else [_SCALARS[type(v)](v) for v in value]
    elif kinds <= {list, tuple} and all({*map(type, row)} == {int} for row in value):
        deeper = inner + "  "  # every profile is such a list
        texts = [f"[{deeper}{(',' + deeper).join(map(int.__repr__, row))}{inner}]" for row in value]
    else:
        return None
    opener, closer = "{}" if isinstance(value, dict) else "[]"
    return f"{opener}{inner}{(',' + inner).join(texts)}{pad}{closer}" if value else opener + closer


def canonical_json(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` byte for byte, without the
    pure-Python encoder that ``indent`` selects. Only dicts with str keys, lists, tuples,
    str, int, float, bool and None are written; anything else raises TypeError, and a
    cycle ValueError."""
    out: list[str] = []
    # a frame per open container: its (head, value) items, closing text, items' pad and id
    stack = [(iter([("", doc)]), "", "\n", None)]
    entered = set()  # ids of the open containers, so that a cycle raises as in json
    while stack:
        items, _, pad, _ = stack[-1]
        for head, value in items:
            out.append(head)
            text = _flat(value, pad)
            if text is None:
                break
            out.append(text)
        else:
            _, close, _, key = stack.pop()
            entered.discard(key)
            out.append(close)
            continue
        if id(value) in entered:
            raise ValueError("Circular reference detected")
        entered.add(id(value))
        inner = pad + "  "
        if isinstance(value, dict):
            keys, children = zip(*sorted(value.items()))
            heads, brackets = [f",{inner}{encode_basestring_ascii(k)}: " for k in keys], "{}"
        else:
            heads, children, brackets = [f",{inner}"] * len(value), value, "[]"
        heads[0] = heads[0][1:]
        out.append(brackets[0])
        stack.append((zip(heads, children), pad + brackets[1], inner, id(value)))
    out.append("\n")
    return "".join(out)


def load_json(stream: IO[str]) -> Any:
    try:
        return json.load(stream)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:  # json's scanner recurses once per level
        raise InstanceFormatError("invalid JSON: arrays or objects nested too deeply to load") from None
