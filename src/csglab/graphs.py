"""Directed multigraphs, series-parallel construction and recognition.

Graphs are immutable once built and safe to share between concurrent
readers. Every search in this module breaks ties by lowest edge id so that
results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import ParameterViolation, PathExplosion

NodeId = Union[int, str]
EdgePath = tuple[int, ...]

DEFAULT_PATH_CAP = 10_000


@dataclass(frozen=True)
class Edge:
    id: int
    tail: NodeId
    head: NodeId


@dataclass(frozen=True)
class Graph:
    """Directed multigraph with designated source and sink terminals.

    Edge ids are unique integers; parallel edges are allowed (parallel-link
    graphs require them), self-loops are rejected unless explicitly enabled
    at construction.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[Edge, ...]
    source: NodeId
    sink: NodeId

    @cached_property
    def edge_map(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def edges_by_id(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges, key=lambda e: e.id))

    @cached_property
    def outgoing(self) -> dict[NodeId, tuple[Edge, ...]]:
        table: dict[NodeId, list[Edge]] = {v: [] for v in self.nodes}
        for edge in self.edges_by_id:
            table[edge.tail].append(edge)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def incoming(self) -> dict[NodeId, tuple[Edge, ...]]:
        table: dict[NodeId, list[Edge]] = {v: [] for v in self.nodes}
        for edge in self.edges_by_id:
            table[edge.head].append(edge)
        return {v: tuple(es) for v, es in table.items()}


def make_graph(
    nodes: Iterable[NodeId],
    edges: Iterable[Edge | tuple[int, NodeId, NodeId]],
    source: NodeId,
    sink: NodeId,
    *,
    allow_self_loops: bool = False,
) -> Graph:
    """Validate and freeze a graph; edges may be given as (id, tail, head)."""
    node_tuple = tuple(nodes)
    if len(set(node_tuple)) != len(node_tuple):
        raise ParameterViolation("duplicate node ids")
    node_set = set(node_tuple)
    edge_list: list[Edge] = []
    for item in edges:
        edge = item if isinstance(item, Edge) else Edge(*item)
        if edge.tail not in node_set or edge.head not in node_set:
            raise ParameterViolation(f"edge {edge.id} references unknown node")
        if edge.tail == edge.head and not allow_self_loops:
            raise ParameterViolation(f"edge {edge.id} is a self-loop")
        edge_list.append(edge)
    ids = [e.id for e in edge_list]
    if len(set(ids)) != len(ids):
        raise ParameterViolation("duplicate edge ids")
    if source not in node_set or sink not in node_set:
        raise ParameterViolation("source/sink must be graph nodes")
    if source == sink:
        raise ParameterViolation("source and sink must differ")
    return Graph(node_tuple, tuple(edge_list), source, sink)


class GraphClass(Enum):
    PARALLEL_LINK = "parallel-link"
    SERIES_PARALLEL = "series-parallel"
    DAG = "dag"
    GENERAL = "general"


# --- series-parallel expressions ------------------------------------------


@dataclass(frozen=True)
class EdgeLeaf:
    """A single directed source-to-sink edge."""


@dataclass(frozen=True)
class Series:
    first: "SpExpression"
    second: "SpExpression"


@dataclass(frozen=True)
class Parallel:
    first: "SpExpression"
    second: "SpExpression"


SpExpression = Union[EdgeLeaf, Series, Parallel]


def series(*parts: SpExpression) -> SpExpression:
    if not parts:
        raise ParameterViolation("series() needs at least one part")
    expr = parts[0]
    for part in parts[1:]:
        expr = Series(expr, part)
    return expr


def parallel(*parts: SpExpression) -> SpExpression:
    if not parts:
        raise ParameterViolation("parallel() needs at least one part")
    expr = parts[0]
    for part in parts[1:]:
        expr = Parallel(expr, part)
    return expr


def build_sp_graph(expr: SpExpression) -> Graph:
    """Evaluate a series-parallel expression into a two-terminal graph.

    Node ids are deterministic: 0 is the source, 1 the sink, and interior
    nodes are numbered in pre-order of the expression tree. Edge ids follow
    the same pre-order, so the same expression always yields the same graph.
    """
    nodes: list[NodeId] = [0, 1]
    edges: list[Edge] = []

    def emit(part: SpExpression, tail: NodeId, head: NodeId) -> None:
        if isinstance(part, EdgeLeaf):
            edges.append(Edge(len(edges), tail, head))
        elif isinstance(part, Series):
            middle = len(nodes)
            nodes.append(middle)
            emit(part.first, tail, middle)
            emit(part.second, middle, head)
        elif isinstance(part, Parallel):
            emit(part.first, tail, head)
            emit(part.second, tail, head)
        else:
            raise ParameterViolation(f"not an SP expression node: {part!r}")

    emit(expr, 0, 1)
    return make_graph(nodes, edges, 0, 1)


# --- classification ---------------------------------------------------------


def classify(graph: Graph) -> GraphClass:
    """Most restrictive class among parallel-link / SP / DAG / general.

    Series-parallel recognition runs the series/parallel reduction to a
    fixpoint; the graph is SP exactly when it collapses to the single edge
    source->sink with no leftover nodes.
    """
    if _has_cycle(graph):
        return GraphClass.GENERAL
    if _is_parallel_link(graph):
        return GraphClass.PARALLEL_LINK
    if _reduces_to_single_edge(graph):
        return GraphClass.SERIES_PARALLEL
    return GraphClass.DAG


def _has_cycle(graph: Graph) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in graph.nodes}

    for start in graph.nodes:
        if color[start] != WHITE:
            continue
        stack: list[tuple[NodeId, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, idx = stack.pop()
            advanced = False
            out = graph.outgoing.get(node, ())
            for i in range(idx, len(out)):
                nxt = out[i].head
                if color[nxt] == GRAY:
                    return True
                if color[nxt] == WHITE:
                    stack.append((node, i + 1))
                    stack.append((nxt, 0))
                    color[nxt] = GRAY
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
    return False


def _is_parallel_link(graph: Graph) -> bool:
    if set(graph.nodes) != {graph.source, graph.sink} or not graph.edges:
        return False
    return all(e.tail == graph.source and e.head == graph.sink for e in graph.edges)


def _reduces_to_single_edge(graph: Graph) -> bool:
    if not graph.edges:
        return False
    s, t = graph.source, graph.sink
    pairs = [(e.tail, e.head) for e in graph.edges]
    nodes = set(graph.nodes)

    changed = True
    while changed:
        changed = False
        # parallel reduction: collapse duplicate (tail, head) pairs
        seen: set[tuple[NodeId, NodeId]] = set()
        kept: list[tuple[NodeId, NodeId]] = []
        for pair in pairs:
            if pair in seen:
                changed = True
                continue
            seen.add(pair)
            kept.append(pair)
        pairs = kept
        # series reduction: splice out a non-terminal degree-(1,1) node
        indeg: dict[NodeId, list[int]] = {}
        outdeg: dict[NodeId, list[int]] = {}
        for idx, (tail, head) in enumerate(pairs):
            outdeg.setdefault(tail, []).append(idx)
            indeg.setdefault(head, []).append(idx)
        for v in nodes:
            if v in (s, t):
                continue
            ins = indeg.get(v, [])
            outs = outdeg.get(v, [])
            if len(ins) == 1 and len(outs) == 1:
                u = pairs[ins[0]][0]
                w = pairs[outs[0]][1]
                if u == w:
                    continue  # would create a self-loop; cannot happen acyclically
                pairs = [p for i, p in enumerate(pairs) if i not in (ins[0], outs[0])]
                pairs.append((u, w))
                nodes.discard(v)
                changed = True
                break
    return nodes == {s, t} and pairs == [(s, t)]


# --- path enumeration -------------------------------------------------------


def enumerate_st_paths(
    graph: Graph,
    source: NodeId | None = None,
    sink: NodeId | None = None,
    cap: int = DEFAULT_PATH_CAP,
) -> list[EdgePath]:
    """All simple directed source->sink paths as edge-id tuples.

    Paths come out in lexicographic order of their edge-id sequences.
    Raises PathExplosion as soon as more than ``cap`` paths exist.
    """
    src = graph.source if source is None else source
    dst = graph.sink if sink is None else sink
    if cap < 1:
        raise ParameterViolation("cap must be >= 1")
    if src not in graph.outgoing or dst not in graph.outgoing:
        raise ParameterViolation("source/sink must be graph nodes")
    if src == dst:
        raise ParameterViolation("path endpoints must differ")

    results: list[EdgePath] = []
    prefix: list[int] = []
    visited: set[NodeId] = {src}

    def walk(node: NodeId) -> None:
        if node == dst:
            if len(results) >= cap:
                raise PathExplosion(f"simple path enumeration from node {src!r} to node {dst!r}", cap)
            results.append(tuple(prefix))
            return
        for edge in graph.outgoing.get(node, ()):
            if edge.head in visited:
                continue
            visited.add(edge.head)
            prefix.append(edge.id)
            walk(edge.head)
            prefix.pop()
            visited.discard(edge.head)

    walk(src)
    return results


def path_nodes(graph: Graph, path: Sequence[int]) -> list[NodeId]:
    """Node sequence visited by an edge-id path (empty path -> [])."""
    if not path:
        return []
    out: list[NodeId] = [graph.edge_map[path[0]].tail]
    for edge_id in path:
        out.append(graph.edge_map[edge_id].head)
    return out
