"""Directed multigraphs, series-parallel construction and recognition.

Graphs are immutable once built and safe to share between concurrent
readers. Every search in this module breaks ties by lowest edge id so that
results are reproducible across runs.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar, Union

from .errors import ParameterViolation, PathExplosion

NodeId = Union[int, str]
EdgePath = tuple[int, ...]
Label = TypeVar("Label")

DEFAULT_PATH_CAP = 10_000


class Edge(NamedTuple):
    id: int
    tail: NodeId
    head: NodeId


class Frozen:
    """Base of the immutable values a NamedTuple cannot hold: ``__init__`` sets
    each field once in ``__dict__``, where a ``cached_property`` also stores,
    assigning or deleting an attribute raises AttributeError, and equality
    (same type only), hash and repr go by the fields named in ``FIELDS``."""

    FIELDS: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r} to a {type(value).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__name__}({shown})"


class Graph(Frozen):
    """Directed multigraph with designated source and sink terminals.

    Edge ids are unique integers; parallel edges are allowed (parallel-link
    graphs require them), self-loops are rejected at construction.
    """

    FIELDS = ("nodes", "edges", "source", "sink")

    def __init__(self, nodes: tuple[NodeId, ...], edges: tuple[Edge, ...], source: NodeId, sink: NodeId):
        self.__dict__.update(nodes=nodes, edges=edges, source=source, sink=sink)

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
        if edge.tail == edge.head:
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


class EdgeLeaf(Frozen):
    """A single directed source-to-sink edge."""


class Series(Frozen):
    FIELDS = ("first", "second")

    def __init__(self, first: SpExpression, second: SpExpression):
        self.__dict__.update(first=first, second=second)


class Parallel(Frozen):
    FIELDS = ("first", "second")

    def __init__(self, first: SpExpression, second: SpExpression):
        self.__dict__.update(first=first, second=second)


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
    pending: list[tuple[SpExpression, NodeId, NodeId]] = [(expr, 0, 1)]
    while pending:
        part, tail, head = pending.pop()
        if isinstance(part, EdgeLeaf):
            edges.append(Edge(len(edges), tail, head))
        elif isinstance(part, Series):
            middle = len(nodes)
            nodes.append(middle)
            pending += [(part.second, middle, head), (part.first, tail, middle)]
        elif isinstance(part, Parallel):
            pending += [(part.second, tail, head), (part.first, tail, head)]
        else:
            raise ParameterViolation(f"not an SP expression node: {part!r}")
    return make_graph(nodes, edges, 0, 1)


# --- classification ---------------------------------------------------------


def classify(graph: Graph) -> GraphClass:
    """Most restrictive class among parallel-link / SP / DAG / general.

    Series-parallel recognition runs the series/parallel reduction once, in
    time linear in the graph; the graph is SP exactly when it collapses to
    the single edge source->sink with no leftover nodes.
    """
    if not _is_acyclic(graph):
        return GraphClass.GENERAL
    if _is_parallel_link(graph):
        return GraphClass.PARALLEL_LINK
    if _reduces_to_single_edge(graph):
        return GraphClass.SERIES_PARALLEL
    return GraphClass.DAG


def _is_acyclic(graph: Graph) -> bool:
    """Kahn's test (CACM 5(11), 1962): a worklist removes every node whose
    arcs in have all been removed; the graph is acyclic exactly when every
    node goes."""
    waiting = {v: len(graph.incoming[v]) for v in graph.nodes}
    work = [v for v, count in waiting.items() if count == 0]
    removed = 0
    while work:
        removed += 1
        for edge in graph.outgoing[work.pop()]:
            waiting[edge.head] -= 1
            if waiting[edge.head] == 0:
                work.append(edge.head)
    return removed == len(graph.nodes)


def _is_parallel_link(graph: Graph) -> bool:
    if set(graph.nodes) != {graph.source, graph.sink} or not graph.edges:
        return False
    return all(e.tail == graph.source and e.head == graph.sink for e in graph.edges)


def _reduces_to_single_edge(graph: Graph) -> bool:
    """True when series and parallel reductions collapse an acyclic graph to
    the single arc source->sink.

    Each node keeps its sets of distinct predecessors and successors, so
    parallel arcs merge as they appear. A worklist splices out every inner
    node with one predecessor and one successor, then revisits both ends.
    The reductions are confluent (Valdes, Tarjan and Lawler, 1982), so this
    one pass reaches the same answer as any other order.
    """
    if not graph.edges:
        return False
    s, t = graph.source, graph.sink
    pred: dict[NodeId, set[NodeId]] = {v: set() for v in graph.nodes}
    succ: dict[NodeId, set[NodeId]] = {v: set() for v in graph.nodes}
    for edge in graph.edges:
        succ[edge.tail].add(edge.head)
        pred[edge.head].add(edge.tail)
    work = list(graph.nodes)
    while work:
        v = work.pop()
        if v == s or v == t or v not in pred or len(pred[v]) != 1 or len(succ[v]) != 1:
            continue
        (u,) = pred.pop(v)
        (w,) = succ.pop(v)
        succ[u].remove(v)
        succ[u].add(w)
        pred[w].remove(v)
        pred[w].add(u)
        work += [u, w]
    return len(pred) == 2 and succ[s] == {t}


# --- searches ---------------------------------------------------------------
#
# Every search keeps its own stack, so neither path length nor graph size is
# bounded by the interpreter's recursion limit.


def first_path(
    source: NodeId,
    sink: NodeId,
    arcs: Callable[[NodeId], Iterable[tuple[Label, NodeId]]],
) -> tuple[Label, ...] | None:
    """The first simple source->sink path in depth-first order, as a tuple of
    arc labels, or None when the sink is unreachable.

    ``arcs(node)`` gives the (label, next node) pairs leaving ``node`` in the
    order to try them. The path is the one enumeration lists first, but each
    node is entered once and never re-opened: a node the search has left
    without reaching the sink cannot lead there by a later route either, and
    re-entering it by every route, as enumeration must, takes exponential
    time when the sink is cut off.
    """
    # the stack is the path: (label that entered a node, the node's untried arcs)
    entered: set[NodeId] = {source}
    stack: list[tuple[Label | None, Iterator[tuple[Label, NodeId]]]] = [(None, iter(arcs(source)))]
    while stack:
        for label, nxt in stack[-1][1]:
            if nxt == sink:
                return (*(entering for entering, _ in stack[1:]), label)
            if nxt not in entered:
                entered.add(nxt)
                stack.append((label, iter(arcs(nxt))))
                break
        else:
            stack.pop()
    return None


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

    # depth-first, re-opening each node when the search backs out of it
    results: list[EdgePath] = []
    labels: list[int] = []
    on_path: set[NodeId] = {src}
    stack = [(src, iter(graph.outgoing[src]))]
    while stack:
        node, out = stack[-1]
        for edge in out:
            if edge.head == dst:
                if len(results) >= cap:
                    raise PathExplosion(
                        f"simple path enumeration from node {src!r} to node {dst!r}", cap
                    )
                results.append((*labels, edge.id))
            elif edge.head not in on_path:
                labels.append(edge.id)
                on_path.add(edge.head)
                stack.append((edge.head, iter(graph.outgoing[edge.head])))
                break
        else:
            stack.pop()
            on_path.discard(node)
            if labels:
                labels.pop()
    return results
