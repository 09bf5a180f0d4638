import pytest
from hypothesis import given, strategies as st

from csglab.errors import ParameterViolation, PathExplosion
from csglab.graphs import (
    EdgeLeaf,
    GraphClass,
    Parallel,
    Series,
    build_sp_graph,
    classify,
    enumerate_st_paths,
    make_graph,
    parallel,
    series,
)
from csglab.instances import crossed_dag

from helpers import oracle_paths


def leaf():
    return EdgeLeaf()


def test_graph_rejects_self_loops_by_default():
    with pytest.raises(ParameterViolation):
        make_graph(["s", "t"], [(0, "s", "s"), (1, "s", "t")], "s", "t")


def test_graph_rejects_duplicate_edge_ids_and_bad_terminals():
    with pytest.raises(ParameterViolation):
        make_graph(["s", "t"], [(0, "s", "t"), (0, "s", "t")], "s", "t")
    with pytest.raises(ParameterViolation):
        make_graph(["s", "t"], [(0, "s", "t")], "s", "s")
    with pytest.raises(ParameterViolation):
        make_graph(["s", "t"], [(0, "s", "x")], "s", "t")


@st.composite
def shuffled_edges(draw):
    """Node count, and (id, tail, head) triples with distinct ids, in a
    drawn order."""
    count = draw(st.integers(2, 5))
    ends = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)).filter(lambda arc: arc[0] != arc[1])
    arcs = draw(st.lists(ends, max_size=10))
    ids = draw(st.permutations(range(2 * len(arcs))))[: len(arcs)]
    return count, draw(st.permutations([(i, u, v) for i, (u, v) in zip(ids, arcs)]))


@given(shuffled_edges())
def test_graph_keeps_edges_in_id_order_whatever_order_they_come_in(drawn):
    count, triples = drawn
    graph = make_graph(range(count), triples, 0, count - 1)
    assert graph == make_graph(range(count), sorted(triples), 0, count - 1)
    assert graph.edges == tuple(sorted(triples))
    for v in graph.nodes:
        for table in (graph.outgoing, graph.incoming, graph.incident):
            assert [e.id for e in table[v]] == sorted(e.id for e in table[v])
        assert sorted(graph.incident[v]) == sorted(graph.outgoing[v] + graph.incoming[v])


def test_build_single_edge():
    g = build_sp_graph(leaf())
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert (g.edges[0].tail, g.edges[0].head) == (g.source, g.sink)


def test_build_parallel_pair_gives_parallel_links():
    g = build_sp_graph(Parallel(leaf(), leaf()))
    assert len(g.nodes) == 2
    assert len(g.edges) == 2
    assert all(e.tail == g.source and e.head == g.sink for e in g.edges)
    assert classify(g) is GraphClass.PARALLEL_LINK


def test_build_series_pair_gives_three_node_path():
    g = build_sp_graph(Series(leaf(), leaf()))
    assert len(g.nodes) == 3
    assert len(g.edges) == 2
    assert enumerate_st_paths(g) == [(0, 1)]


def test_build_is_deterministic():
    expr = Series(Parallel(leaf(), Series(leaf(), leaf())), leaf())
    a = build_sp_graph(expr)
    b = build_sp_graph(expr)
    assert a == b


def test_series_parallel_helpers_fold():
    g = build_sp_graph(series(leaf(), leaf(), leaf()))
    assert len(g.edges) == 3
    assert enumerate_st_paths(g) == [(0, 1, 2)]
    g2 = build_sp_graph(parallel(leaf(), leaf(), leaf()))
    assert classify(g2) is GraphClass.PARALLEL_LINK


def test_classify_two_parallel_edges():
    g = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t")
    assert classify(g) is GraphClass.PARALLEL_LINK


def test_classify_crossed_dag_is_dag_not_sp():
    # irreducible under series/parallel reduction, but acyclic
    g = crossed_dag(1, 2).graph
    assert classify(g) is GraphClass.DAG


def test_classify_cycle_is_general():
    g = make_graph(["s", "a", "t"], [(0, "s", "a"), (1, "a", "s"), (2, "a", "t")], "s", "t")
    assert classify(g) is GraphClass.GENERAL


def test_classify_sp_diamond():
    g = build_sp_graph(Parallel(Series(leaf(), leaf()), Series(leaf(), leaf())))
    assert classify(g) is GraphClass.SERIES_PARALLEL


def test_classify_stray_node_is_not_sp():
    g = make_graph(["s", "t", "x"], [(0, "s", "t")], "s", "t")
    assert classify(g) is GraphClass.DAG


def test_class_inclusion_parallel_links_also_reduce():
    # the class chain is an inclusion: parallel-link graphs pass the
    # series-parallel reduction too, classify just reports the tighter class
    from csglab.graphs import _reduces_to_single_edge

    g = make_graph(["s", "t"], [(i, "s", "t") for i in range(3)], "s", "t")
    assert classify(g) is GraphClass.PARALLEL_LINK
    assert _reduces_to_single_edge(g)


def test_enumerate_rejects_equal_endpoints():
    g = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    with pytest.raises(ParameterViolation):
        enumerate_st_paths(g, "s", "s")


def test_enumerate_crossed_dag_matches_oracle():
    g = crossed_dag(1, 2).graph
    expected = oracle_paths(g)
    assert enumerate_st_paths(g) == expected
    # frozen from the oracle: the seven-edge reconstruction has five routes
    assert expected == [(0, 2, 6), (0, 3, 4, 6), (0, 3, 5), (1, 4, 6), (1, 5)]


def test_enumerate_parallel_links():
    g = make_graph(["s", "t"], [(i, "s", "t") for i in range(4)], "s", "t")
    assert enumerate_st_paths(g) == [(0,), (1,), (2,), (3,)]


def test_enumerate_unreachable_sink():
    g = make_graph(["s", "t", "u"], [(0, "s", "u")], "s", "t")
    assert enumerate_st_paths(g) == []


def test_enumerate_respects_cap():
    g = make_graph(["s", "t"], [(i, "s", "t") for i in range(5)], "s", "t")
    with pytest.raises(PathExplosion) as info:
        enumerate_st_paths(g, cap=4)
    assert str(info.value) == "simple path enumeration from node 's' to node 't' exceeded the cap of 4"
    assert len(enumerate_st_paths(g, cap=5)) == 5

