"""Long paths and many agents are not bounded by Python's recursion limit.

Every input here is a little beyond the default limit of 1,000 frames: a
search that recurses once per edge or once per agent fails on it. The
classification test runs a much longer path against the clock: a reduction
that does quadratic work on it takes minutes. The chains of parallel pairs
behind a bottleneck have exponentially many routes into a cut-off sink: a
one-path search that re-opens nodes walks all of them. A document nested far
beyond the limit is refused with exit 2, since json's own scanner recurses
once per level.
"""

import json
from time import perf_counter

from csglab.cli import main
from csglab.flows import decompose_unit_paths, max_flow
from csglab.game import StrategyProfile, feasible_extension, make_instance, make_ordinary_scheme
from csglab.graphs import EdgeLeaf, GraphClass, build_sp_graph, classify, make_graph, series

LENGTH = 1200


def path_graph(length):
    return make_graph(range(length + 1), [(i, i, i + 1) for i in range(length)], 0, length)


def analyze(tmp_path, capsys, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_analyze_long_path(tmp_path, capsys):
    doc = {
        "version": 1,
        "agents": 1,
        "nodes": list(range(LENGTH + 1)),
        "source": 0,
        "sink": LENGTH,
        "edges": [
            {"id": i, "tail": i, "head": i + 1, "cost": "1/1", "capacity": 1}
            for i in range(LENGTH)
        ],
    }
    code, report = analyze(tmp_path, capsys, doc)
    assert code == 0
    assert report["optima"]["sum_cost"]["profile"] == [list(range(LENGTH))]


def test_analyze_many_agents_on_one_edge(tmp_path, capsys):
    agents = 1100
    doc = {
        "version": 1,
        "agents": agents,
        "nodes": ["s", "t"],
        "source": "s",
        "sink": "t",
        "edges": [{"id": 0, "tail": "s", "head": "t", "cost": "1/1", "capacity": agents}],
    }
    code, report = analyze(tmp_path, capsys, doc)
    assert code == 0
    assert report["optima"]["sum_cost"]["profile"] == [[0]] * agents


def test_build_long_series():
    graph = build_sp_graph(series(*[EdgeLeaf()] * LENGTH))
    assert len(graph.edges) == LENGTH
    # edge ids follow the pre-order of the leaves, so in id order they walk 0 -> 1
    assert graph.edges[0].tail == 0 and graph.edges[-1].head == 1
    assert [e.head for e in graph.edges[:-1]] == [e.tail for e in graph.edges[1:]]


def test_feasible_extension_on_long_path():
    graph = path_graph(LENGTH)
    schemes = {i: make_ordinary_scheme(1, 2) for i in range(LENGTH)}
    instance = make_instance(graph, schemes, 2, certify=False)
    route = tuple(range(LENGTH))
    big = instance.profile([route, route])
    small = StrategyProfile((route,))
    assert feasible_extension(instance, big, small) == route


def test_decompose_long_path_flow_with_a_long_cycle():
    graph = make_graph(
        range(LENGTH + 1),
        [(i, i, i + 1) for i in range(LENGTH)] + [(LENGTH, LENGTH, 0)],
        0,
        LENGTH,
    )
    # one unit along the path plus one unit circulating through the back edge
    values = {i: 2 for i in range(LENGTH)} | {LENGTH: 1}
    assert decompose_unit_paths(graph, values) == (tuple(range(LENGTH)),)


def test_classify_long_path_in_linear_time():
    graph = path_graph(20_000)
    started = perf_counter()
    assert classify(graph) is GraphClass.SERIES_PARALLEL
    assert perf_counter() - started < 2


def bottleneck_chain(stages):
    """Pairs of parallel arcs i->i+1 (ids 2i, 2i+1), then the arc stages->stages+1."""
    edges = [(2 * i + j, i, i + 1) for i in range(stages) for j in (0, 1)]
    return make_graph(range(stages + 2), edges + [(2 * stages, stages, stages + 1)], 0, stages + 1)


def test_max_flow_behind_a_bottleneck_in_linear_time():
    graph = bottleneck_chain(20)
    capacities = {e.id: 2 for e in graph.edges} | {40: 1}
    started = perf_counter()
    # once the bottleneck is full, the last search finds every pair still open
    assert max_flow(graph, capacities).value == 1
    assert perf_counter() - started < 1


def test_analyze_on_a_long_bottleneck_chain_stops_at_the_path_cap(tmp_path, capsys):
    stages = 200
    graph = bottleneck_chain(stages)
    doc = {
        "version": 1,
        "agents": 2,
        "nodes": list(graph.nodes),
        "source": 0,
        "sink": stages + 1,
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "cost": "1", "capacity": 3}
            for e in graph.edges
        ],
    }
    doc["edges"][-1]["capacity"] = 2  # the bottleneck: once it is full, every pair is still open
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    started = perf_counter()
    assert main(["analyze", str(path)]) == 3
    assert "exceeded the cap of 10000" in capsys.readouterr().err
    assert perf_counter() - started < 2


DEEP = 100_000
ONE_EDGE = {
    "version": 1,
    "agents": 1,
    "nodes": ["s", "t"],
    "source": "s",
    "sink": "t",
    "edges": [{"id": 0, "tail": "s", "head": "t", "cost": "1/1", "capacity": 1}],
}


def deep_array(depth):
    return "[" * depth + "]" * depth


def test_analyze_refuses_a_deeply_nested_document(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(deep_array(DEEP))
    assert main(["analyze", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_analyze_refuses_a_deeply_nested_recipe(tmp_path, capsys):
    path = tmp_path / "deep-recipe.json"
    path.write_text(json.dumps(ONE_EDGE)[:-1] + ', "recipe": ' + deep_array(DEEP) + "}")
    assert main(["analyze", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_dynamics_refuses_a_deeply_nested_start_profile(tmp_path, capsys):
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps(ONE_EDGE))
    start = tmp_path / "start.json"
    start.write_text(deep_array(DEEP))
    assert main(["dynamics", str(instance), "--start", str(start)]) == 2
    assert "nested too deeply" in capsys.readouterr().err
