"""Integral flows, residual networks and augmenting paths.

Flows count unit source-to-sink paths, so values are nonnegative integers.
Searches visit residual arcs in increasing edge-id order, which makes
max-flow results and augmenting paths deterministic.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .errors import InfeasibleFlow, InternalAssertion, ParameterViolation
from .graphs import EdgePath, Graph, NodeId, first_path


class Flow(NamedTuple):
    """Per-edge integer flow values plus the number of unit paths carried."""

    values: Mapping[int, int]
    value: int


class ResidualArc(NamedTuple):
    """One step of a residual path: traverse ``edge_id`` forward or backward."""

    edge_id: int
    forward: bool


def _validate_capacities(graph: Graph, capacities: Mapping[int, int]) -> None:
    for edge in graph.edges:
        cap = capacities.get(edge.id, 0)
        if not isinstance(cap, int) or cap < 0:
            raise ParameterViolation(f"capacity of edge {edge.id} must be an integer >= 0")


def check_flow(graph: Graph, capacities: Mapping[int, int], flow: Flow) -> None:
    """Raise InfeasibleFlow unless ``flow`` respects capacities and conservation."""
    _validate_capacities(graph, capacities)
    for edge_id in flow.values:
        if edge_id not in graph.edge_map:
            raise InfeasibleFlow(f"flow on unknown edge {edge_id}")
    net: dict[NodeId, int] = {v: 0 for v in graph.nodes}
    for edge in graph.edges:
        f = flow.values.get(edge.id, 0)
        cap = capacities.get(edge.id, 0)
        if f < 0 or f > cap:
            raise InfeasibleFlow(f"edge {edge.id}: flow {f} outside [0, {cap}]")
        net[edge.tail] += f
        net[edge.head] -= f
    for node in graph.nodes:
        expected = flow.value if node == graph.source else -flow.value if node == graph.sink else 0
        if net[node] != expected:
            raise InfeasibleFlow(f"conservation violated at node {node!r}")


def _residual_search(
    graph: Graph, capacities: Mapping[int, int], values: Mapping[int, int]
) -> tuple[ResidualArc, ...] | None:
    """Depth-first residual path, exploring arcs by lowest edge id first."""

    def arcs(node: NodeId) -> Iterator[tuple[ResidualArc, NodeId]]:
        # ids are unique and self-loops rejected, so Edge tuples sort by id
        for e in sorted(graph.outgoing[node] + graph.incoming[node]):
            if e.tail == node:
                if values.get(e.id, 0) < capacities.get(e.id, 0):
                    yield ResidualArc(e.id, True), e.head
            elif values.get(e.id, 0) > 0:
                yield ResidualArc(e.id, False), e.tail

    return first_path(graph.source, graph.sink, arcs)


def augmenting_path(
    graph: Graph, capacities: Mapping[int, int], flow: Flow
) -> tuple[ResidualArc, ...] | None:
    """Residual source->sink path, or None when ``flow`` is already maximum."""
    check_flow(graph, capacities, flow)
    return _residual_search(graph, capacities, flow.values)


def apply_augmentation(values: Mapping[int, int], arcs: tuple[ResidualArc, ...]) -> dict[int, int]:
    """A copy of ``values`` with one more unit along ``arcs``."""
    updated = dict(values)
    for arc in arcs:
        updated[arc.edge_id] = updated.get(arc.edge_id, 0) + (1 if arc.forward else -1)
    return updated


def max_flow(graph: Graph, capacities: Mapping[int, int]) -> Flow:
    """Integral maximum flow by repeated augmentation (value = min cut)."""
    _validate_capacities(graph, capacities)
    values = {e.id: 0 for e in graph.edges_by_id}
    value = 0
    while True:
        arcs = _residual_search(graph, capacities, values)
        if arcs is None:
            return Flow(values, value)
        bottleneck = min(
            capacities.get(a.edge_id, 0) - values[a.edge_id] if a.forward else values[a.edge_id]
            for a in arcs
        )
        for a in arcs:
            values[a.edge_id] += bottleneck if a.forward else -bottleneck
        value += bottleneck


def decompose_unit_paths(graph: Graph, values: Mapping[int, int]) -> tuple[EdgePath, ...]:
    """Split an integral flow into unit source->sink paths.

    Each unit path is the first simple path over the edges that still carry
    flow, trying edges by lowest id, so flow circulating on a cycle is never
    peeled and the split is deterministic.
    """
    src, dst = graph.source, graph.sink
    work = {e.id: values.get(e.id, 0) for e in graph.edges_by_id}

    def carrying(node: NodeId) -> Iterator[tuple[int, NodeId]]:
        for e in graph.outgoing[node]:
            if work[e.id] > 0:
                yield e.id, e.head

    remaining = sum(work[e.id] for e in graph.outgoing[src]) - sum(work[e.id] for e in graph.incoming[src])
    paths: list[EdgePath] = []
    for _ in range(remaining):
        path = first_path(src, dst, carrying)
        if path is None:
            raise InternalAssertion("flow decomposition found no path that carries flow")
        for edge_id in path:
            work[edge_id] -= 1
        paths.append(path)
    if any(v < 0 for v in work.values()):
        raise InternalAssertion("flow decomposition went negative")
    return tuple(paths)
