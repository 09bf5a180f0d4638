"""Property tests over randomly generated structures."""

import random
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings, strategies as st

from csglab.flows import max_flow
from csglab.game import (
    feasible_extension,
    is_feasible,
    make_ordinary_scheme,
    make_scheme,
    validate_scheme,
)
from csglab.graphs import (
    EdgeLeaf,
    GraphClass,
    Parallel,
    Series,
    build_sp_graph,
    classify,
    enumerate_st_paths,
    make_graph,
)
from csglab.instances import random_sp
from csglab.rational import format_rational, parse_rational

from helpers import oracle_extension_paths, oracle_feasible_profiles


@st.composite
def sp_expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return EdgeLeaf()
    kind = draw(st.sampled_from((Series, Parallel)))
    return kind(draw(sp_expressions(depth=depth - 1)), draw(sp_expressions(depth=depth - 1)))


@settings(max_examples=60, deadline=None)
@given(sp_expressions())
def test_sp_built_graphs_classify_as_sp_or_parallel_link(expr):
    graph = build_sp_graph(expr)
    assert classify(graph) in (GraphClass.PARALLEL_LINK, GraphClass.SERIES_PARALLEL)


@settings(max_examples=60, deadline=None)
@given(sp_expressions())
def test_sp_built_graphs_are_acyclic_with_connected_terminals(expr):
    graph = build_sp_graph(expr)
    # acyclicity: classify would report "general" on any cycle
    assert classify(graph) is not GraphClass.GENERAL
    assert enumerate_st_paths(graph)


@settings(max_examples=40, deadline=None)
@given(sp_expressions(), st.integers(min_value=1, max_value=4))
def test_sp_unit_capacity_flow_matches_min_parallel_width(expr, cap):
    # sanity: flow value under uniform capacities is positive and bounded by
    # the number of edges leaving the source
    graph = build_sp_graph(expr)
    flow = max_flow(graph, {e.id: cap for e in graph.edges})
    assert 1 <= flow.value <= cap * len(graph.outgoing[graph.source])


@st.composite
def small_digraphs(draw):
    """Up to 5 nodes and 8 arcs in any direction: cycles and parallel arcs
    occur, and edge ids are a random permutation of the arc order."""
    size = draw(st.integers(min_value=2, max_value=5))
    node = st.integers(min_value=0, max_value=size - 1)
    arcs = draw(st.lists(st.tuples(node, node).filter(lambda a: a[0] != a[1]), max_size=8))
    ids = draw(st.permutations(range(len(arcs))))
    return make_graph(range(size), [(i, u, v) for i, (u, v) in zip(ids, arcs)], 0, size - 1)


def brute_force_paths(graph):
    """Every sequence of distinct edges that walks a simple source->sink path."""
    found = []
    for length in range(1, len(graph.nodes)):
        for edges in permutations(graph.edges, length):
            nodes = [edges[0].tail] + [e.head for e in edges]
            if (
                nodes[0] == graph.source
                and nodes[-1] == graph.sink
                and len(set(nodes)) == len(nodes)
                and all(a.head == b.tail for a, b in zip(edges, edges[1:]))
            ):
                found.append(tuple(e.id for e in edges))
    return sorted(found)


@settings(max_examples=150, deadline=None)
@given(small_digraphs())
def test_enumerate_lists_simple_paths_in_lexicographic_order(graph):
    assert enumerate_st_paths(graph) == brute_force_paths(graph)


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=6),
)
def test_ordinary_scheme_always_validates(p, c):
    assert validate_scheme(make_ordinary_scheme(p, c)) == ()


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 4), max_value=10),
    st.integers(min_value=1, max_value=5),
    st.lists(st.fractions(min_value=0, max_value=1), min_size=5, max_size=5),
)
def test_projected_tables_always_validate(p, c, weights):
    shares = [p]
    for load in range(2, c + 1):
        low = p / load
        high = shares[-1]
        shares.append(low + (high - low) * weights[load - 2])
    scheme = make_scheme(p, c, shares)
    assert validate_scheme(scheme) == ()


@settings(max_examples=100, deadline=None)
@given(st.fractions())
def test_rational_wire_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_extension_matches_brute_force_on_small_instances():
    rng = random.Random(2024)
    for seed in range(40):
        inst = random_sp(seed + 4500, 2 + seed % 2, scheme_family="mixed")
        profiles = oracle_feasible_profiles(inst)
        big = rng.choice(profiles)
        small_pool = oracle_feasible_profiles_of_size(inst, inst.n - 1)
        small = rng.choice(small_pool)
        path = feasible_extension(inst, big, small)
        valid = oracle_extension_paths(inst, big, small)
        assert valid, "the extension lemma promises a valid path"
        assert path in valid
        assert set(path) <= big.used_edges
        extended = inst.partial_profile(small.paths + (path,))
        assert is_feasible(inst, extended)


def oracle_feasible_profiles_of_size(instance, agents):
    from csglab.game import make_instance

    if agents == 0:
        from csglab.game import StrategyProfile

        return [StrategyProfile(())]
    smaller = make_instance(instance.graph, instance.schemes, agents, certify=False)
    return oracle_feasible_profiles(smaller)
