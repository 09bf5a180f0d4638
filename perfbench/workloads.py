"""Seeded instance documents for the workloads.

Each workload is a list of ``Op``: one instance document, the JSON text a
user would pass to ``csglab analyze``. The same workload seed gives the same
documents. Random games are drawn until their feasible-profile count falls in
a fixed band, so the work in one pass barely depends on the seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from checker import Game, Network

OPS = 100  # per workload: leaves ten ops beyond the 90th percentile
CAP = 10_000  # csglab's default --cap on the ordered profile product
FIG3_EPS = Fraction(1, 1000)


@dataclass
class Op:
    """One user command. Only text is kept, so the benchmark's own heap stays
    small next to the program's, as in a process that runs one command."""

    label: str
    text: str  # the instance document, as the file would hold it
    family: tuple | None = None  # ("two-link",) or ("fig3", eps): see checks.check_family

    def game(self) -> Game:
        """The checker's model of this op's game."""
        return Game(json.loads(self.text))


def _op(label: str, doc: dict, **extra) -> Op:
    return Op(label, json.dumps(doc, sort_keys=True) + "\n", **extra)


def _fmt(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _edge(eid, tail, head, cost, capacity, table=None) -> dict:
    return {
        "id": eid,
        "tail": tail,
        "head": head,
        "cost": _fmt(cost),
        "capacity": capacity,
        "scheme": "ordinary" if table is None else {"table": [_fmt(s) for s in table]},
    }


def _document(nodes, edges, source, sink, agents, recipe=None) -> dict:
    return {
        "version": 1,
        "agents": agents,
        "nodes": nodes,
        "source": source,
        "sink": sink,
        "edges": edges,
        "recipe": recipe or {"kind": "custom", "params": {}},
    }


def _unpriced(nodes, arcs, caps, source, sink, agents) -> Game:
    """Unit-cost game: enough to count feasible profiles, which ignore prices."""
    edges = [_edge(e, a, b, 1, c) for e, ((a, b), c) in enumerate(zip(arcs, caps))]
    return Game(_document(nodes, edges, source, sink, agents))


# --- random pieces ---------------------------------------------------------


def _random_table(rng: random.Random, cost: Fraction, capacity: int) -> list | None:
    """A valid share table (None meaning ordinary sharing): ordinary,
    threshold, or random entries between cost/x and the previous share."""
    kind = rng.choice(("ordinary", "threshold", "random"))
    if kind == "ordinary":
        return None
    if kind == "threshold":
        full_at = rng.randint(1, capacity)
        return [cost if x < full_at else cost / x for x in range(1, capacity + 1)]
    shares = [cost]
    for x in range(2, capacity + 1):
        low = cost / x
        shares.append(low + (shares[-1] - low) * Fraction(rng.randint(0, 4), 4))
    return shares


def _random_cost(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 3))


def _sp_expression(rng: random.Random, paths: int):
    """Random series-parallel expression with exactly ``paths`` s-t paths."""
    if paths == 1:
        return "e" if rng.random() < 0.6 else ("s", "e", "e")
    divisors = [d for d in range(2, isqrt(paths) + 1) if paths % d == 0]
    if divisors and rng.random() < 0.6:
        d = rng.choice(divisors)
        parts = [d, paths // d]
        rng.shuffle(parts)
        return ("s", _sp_expression(rng, parts[0]), _sp_expression(rng, parts[1]))
    first = rng.randint(1, min(3, paths - 1))
    return ("p", _sp_expression(rng, first), _sp_expression(rng, paths - first))


def _sp_arcs(expr) -> tuple[int, list]:
    """Node count and (tail, head) arcs; node 0 is the source, 1 the sink."""
    arcs: list = []
    count = 2
    stack = [(expr, 0, 1)]
    while stack:
        part, tail, head = stack.pop()
        if part == "e":
            arcs.append((tail, head))
        elif part[0] == "s":
            middle = count
            count += 1
            stack.append((part[2], middle, head))
            stack.append((part[1], tail, middle))
        else:
            stack.append((part[2], tail, head))
            stack.append((part[1], tail, head))
    return count, arcs


def _priced_edges(rng, arcs, capacities) -> list:
    edges = []
    for eid, ((tail, head), cap) in enumerate(zip(arcs, capacities)):
        cost = _random_cost(rng)
        edges.append(_edge(eid, tail, head, cost, cap, _random_table(rng, cost, cap)))
    return edges


# --- the paper's families ----------------------------------------------------


def two_link(n: int) -> Op:
    edges = [_edge(0, "s", "t", 1, n), _edge(1, "s", "t", n, n)]
    doc = _document(["s", "t"], edges, "s", "t", n, {"kind": "two-link", "params": {"n": str(n)}})
    return _op(f"two-link({n})", doc, family=("two-link",))


def fig3(n: int, eps: Fraction = FIG3_EPS) -> Op:
    """n+1 parallel links: one cheap slot, n-1 unit slots, and a wide link of
    cost 1+eps and capacity n whose agents pay the whole cost below n."""
    wide = 1 + eps
    edges = [_edge(0, "s", "t", Fraction(1, n), 1)]
    edges += [_edge(i, "s", "t", 1, 1) for i in range(1, n)]
    edges.append(_edge(n, "s", "t", wide, n, [wide] * (n - 1) + [wide / n]))
    recipe = {"kind": "fig3", "params": {"eps": _fmt(eps), "n": str(n)}}
    doc = _document(["s", "t"], edges, "s", "t", n, recipe)
    return _op(f"fig3({n},{_fmt(eps)})", doc, family=("fig3", eps))


# --- workloads -----------------------------------------------------------------

# sym-sp: (agents, s-t paths, band of feasible ordered profiles) per random op
SYM_CLASSES = ((5, 3, 80, 200), (5, 4, 150, 400), (6, 3, 150, 400), (6, 4, 200, 500))


def sym_sp(seed: int) -> list[Op]:
    ops = [two_link(9), two_link(9), two_link(10), two_link(10)]
    ops += [fig3(4), fig3(4), fig3(5), fig3(5)]
    for index in range(OPS - len(ops)):
        rng = random.Random(f"sym-sp/{seed}/{index}")
        n, paths, low, high = SYM_CLASSES[index % len(SYM_CLASSES)]
        for _ in range(10_000):
            count, arcs = _sp_arcs(_sp_expression(rng, paths))
            caps = [rng.randint(1, n) for _ in arcs]
            if low <= _unpriced(list(range(count)), arcs, caps, 0, 1, n).ordered_feasible_count() <= high:
                break
        else:
            raise RuntimeError(f"sym-sp op {index}: no game in band")
        doc = _document(list(range(count)), _priced_edges(rng, arcs, caps), 0, 1, n)
        ops.append(_op(f"sp(n={n},paths={paths})", doc))
    return _finish(ops, seed)


def asym_dag(seed: int) -> list[Op]:
    ops = []
    for index in range(OPS):
        rng = random.Random(f"asym-dag/{seed}/{index}")
        nodes = 7 + index % 2
        for _ in range(10_000):
            arcs = [(i, j) for i in range(nodes) for j in range(i + 1, nodes) if rng.random() < 0.45]
            net = Network(range(nodes), dict(enumerate(arcs)), 0, nodes - 1)
            if net.graph_class() != "dag":
                continue
            # three distinct terminal pairs, each joined by at least three paths
            spans = [(u, v) for u in range(nodes) for v in range(u + 1, nodes) if len(net.paths(u, v)) >= 3]
            if len(spans) < 3:
                continue
            pairs = rng.sample(spans, 3)
            options = [net.paths(u, v) for u, v in pairs]
            if prod(map(len, options)) > CAP:
                continue
            # capacities 1-2, lifted to carry one random profile, so the game is feasible
            caps = [rng.randint(1, 2) for _ in arcs]
            chosen = [rng.choice(p) for p in options]
            for e, load in Counter(e for p in chosen for e in p).items():
                caps[e] = max(caps[e], load)
            agents = [{"source": u, "sink": v} for u, v in pairs]
            if 30 <= _unpriced(list(range(nodes)), arcs, caps, 0, nodes - 1, agents).ordered_feasible_count() <= 90:
                break
        else:
            raise RuntimeError(f"asym-dag op {index}: no game in band")
        doc = _document(list(range(nodes)), _priced_edges(rng, arcs, caps), 0, nodes - 1, agents)
        ops.append(_op(f"dag(nodes={nodes})", doc))
    return _finish(ops, seed)


def _finish(ops: list[Op], seed: int) -> list[Op]:
    """Shuffle, so that slow drift of the machine during a pass does not line
    up with op size."""
    random.Random(f"order/{seed}").shuffle(ops)
    return ops


WORKLOADS = {
    "sym-sp": sym_sp,
    "asym-dag": asym_dag,
}
