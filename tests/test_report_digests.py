"""Golden digests of whole analyze reports.

Each document below is analyzed the way ``csglab analyze`` does it (exact
ratios, dynamics from the sum-cost optimum, the canonical report text), and
the sha256 of that text without its ``volatile`` block must equal the
recorded constant. The constants were taken before the integer cost kernel
replaced the Fraction loops, so any change to a report byte, however small,
fails here: a faster kernel must give the same reports.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from csglab.analysis import compute_ratios
from csglab.dynamics import run_dynamics
from csglab.io import (
    canonical_json,
    instance_from_document,
    load_json,
    report_to_document,
    trace_to_document,
)


def _edge(eid, tail, head, cost, capacity, table=None) -> dict:
    return {
        "id": eid,
        "tail": tail,
        "head": head,
        "cost": cost,
        "capacity": capacity,
        "scheme": "ordinary" if table is None else {"table": table},
    }


def _document(nodes, edges, source, sink, agents, kind="custom", params=None) -> dict:
    return {
        "version": 1,
        "agents": agents,
        "nodes": nodes,
        "source": source,
        "sink": sink,
        "edges": edges,
        "recipe": {"kind": kind, "params": params or {}},
    }


def _two_link(n: int) -> dict:
    edges = [_edge(0, "s", "t", "1/1", n), _edge(1, "s", "t", f"{n}/1", n)]
    return _document(["s", "t"], edges, "s", "t", n, "two-link", {"n": str(n)})


def _fig3(n: int) -> dict:
    # eps = 1/1000: the wide link costs 1001/1000 and splits only at a full house
    wide = 1001
    table = [f"{wide}/1000"] * (n - 1) + [f"{wide}/{1000 * n}"]
    edges = [_edge(0, "s", "t", f"1/{n}", 1)]
    edges += [_edge(i, "s", "t", "1/1", 1) for i in range(1, n)]
    edges.append(_edge(n, "s", "t", f"{wide}/1000", n, table))
    return _document(["s", "t"], edges, "s", "t", n, "fig3", {"eps": "1/1000", "n": str(n)})


# three agents with distinct terminal pairs on a DAG that is not series-parallel;
# random share tables, four equilibria and two dynamics steps
ASYMMETRIC_DAG = _document(
    list(range(7)),
    [
        _edge(0, 0, 1, "2/1", 2, ["2/1", "5/4"]),
        _edge(1, 0, 3, "1/3", 2, ["1/3", "1/6"]),
        _edge(2, 0, 4, "7/1", 2, ["7/1", "7/1"]),
        _edge(3, 1, 3, "1/3", 1),
        _edge(4, 1, 4, "2/1", 3),
        _edge(5, 1, 5, "4/3", 1, ["4/3"]),
        _edge(6, 3, 4, "1/2", 1, ["1/2"]),
        _edge(7, 4, 5, "7/2", 2),
    ],
    0,
    6,
    [{"source": 0, "sink": 5}, {"source": 0, "sink": 4}, {"source": 1, "sink": 5}],
)

# six agents on a series-parallel graph with three s-t paths; edges 0 and 3
# use threshold sharing (full price below load 3), edge 1 a random table
SYMMETRIC_SP = _document(
    [0, 1, 2, 3],
    [
        _edge(0, 0, 2, "2/3", 6, ["2/3", "2/3", "2/9", "1/6", "2/15", "1/9"]),
        _edge(1, 2, 1, "8/1", 5, ["8/1", "8/1", "4/1", "4/1", "4/1"]),
        _edge(2, 0, 3, "6/1", 3),
        _edge(3, 3, 1, "3/1", 4, ["3/1", "3/1", "1/1", "3/4"]),
        _edge(4, 0, 1, "2/1", 1, ["2/1"]),
    ],
    0,
    1,
    6,
)

GOLDEN = {
    "two-link(9)": (_two_link(9), "43d3163951da337a8f1a67b9c8dd13f08292a8ecba4e6dbd46234a544d202a42"),
    "fig3(5)": (_fig3(5), "db079a39f0730a1e9421185620d141b203422e8a8de7ef553e6afba97eff4bb7"),
    "asymmetric-dag": (ASYMMETRIC_DAG, "02ed205d621018e8ac1ecaab1264ff91a59cfdbf0c99cf5bfe0ece70a44ddc04"),
    "symmetric-sp-threshold": (SYMMETRIC_SP, "286e2b6710bab629e452ab0773e58aa1d0b98e729c85f98e5a2fba7225f57fb7"),
}


def analyze_text(doc: dict) -> str:
    """The canonical text ``csglab analyze`` prints for this document."""
    loaded = load_json(io.StringIO(json.dumps(doc, sort_keys=True)))
    instance = instance_from_document(loaded)
    report = compute_ratios(instance)
    trace = run_dynamics(instance, report.opt_sc[0])
    out = report_to_document(
        report,
        recipe=loaded.get("recipe"),
        dynamics=trace_to_document(trace, instance),
        seeds={"cli_seed": None},
        wall_time_s=0.0,
    )
    return canonical_json(out)


def stable_digest(text: str) -> str:
    doc = json.loads(text)
    doc.pop("volatile", None)
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_is_unchanged(name):
    doc, expected = GOLDEN[name]
    assert stable_digest(analyze_text(doc)) == expected
