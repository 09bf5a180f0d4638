import random

import pytest
from hypothesis import given, settings, strategies as st

from csglab import flows
from csglab.errors import InfeasibleFlow
from csglab.flows import (
    Flow,
    ResidualArc,
    apply_augmentation,
    augmenting_path,
    decompose_unit_paths,
    max_flow,
)
from csglab.graphs import make_graph
from csglab.instances import crossed_dag, random_sp

from helpers import (
    oracle_augment,
    oracle_max_disjoint_path_count,
    oracle_max_flow,
    oracle_paths,
    oracle_residual_path,
)


def single_edge():
    return make_graph(["s", "t"], [(0, "s", "t")], "s", "t")


def test_max_flow_crossed_dag_unit_caps():
    g = crossed_dag(1, 2).graph
    caps = {e.id: 1 for e in g.edges}
    flow = max_flow(g, caps)
    # oracle: with unit capacities the max flow equals the largest number of
    # edge-disjoint paths, which brute force puts at 2
    assert oracle_max_disjoint_path_count(g) == 2
    assert flow.value == 2


def test_max_flow_parallel_edges():
    g = make_graph(["s", "t"], [(0, "s", "t"), (1, "s", "t")], "s", "t")
    assert max_flow(g, {0: 5, 1: 5}).value == 10


def test_max_flow_unreachable_sink():
    g = make_graph(["s", "t", "u"], [(0, "s", "u")], "s", "t")
    assert max_flow(g, {0: 3}).value == 0


def test_max_flow_invariant_under_relabeling():
    rng = random.Random(99)
    for seed in range(12):
        inst = random_sp(seed, 2)
        g = inst.graph
        caps = {e.id: inst.capacities[e.id] for e in g.edges}
        base = max_flow(g, caps).value

        ids = [e.id for e in g.edges]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(ids, shuffled))
        g2 = make_graph(
            g.nodes, [(mapping[e.id], e.tail, e.head) for e in g.edges], g.source, g.sink
        )
        caps2 = {mapping[eid]: c for eid, c in caps.items()}
        assert max_flow(g2, caps2).value == base


def test_augmenting_path_zero_flow_single_edge():
    g = single_edge()
    arcs = augmenting_path(g, {0: 1}, Flow({}, 0))
    assert arcs == (ResidualArc(0, True),)


def test_augmenting_path_saturated_edge_is_absent():
    g = single_edge()
    assert augmenting_path(g, {0: 1}, Flow({0: 1}, 1)) is None


def test_augmenting_path_rejects_infeasible_flow():
    g = single_edge()
    with pytest.raises(InfeasibleFlow):
        augmenting_path(g, {0: 1}, Flow({0: 2}, 2))
    diamond = make_graph(
        ["s", "u", "t"], [(0, "s", "u"), (1, "u", "t")], "s", "t"
    )
    with pytest.raises(InfeasibleFlow):
        # conservation broken at u
        augmenting_path(diamond, {0: 2, 1: 2}, Flow({0: 1, 1: 0}, 1))


def test_augmenting_path_uses_backward_arc_when_forced():
    # one unit routed across the diamond blocks both straight routes, so the
    # second unit must undo the crossing edge
    g = make_graph(
        ["s", "u", "v", "t"],
        [(0, "s", "u"), (1, "s", "v"), (2, "u", "v"), (3, "u", "t"), (4, "v", "t")],
        "s",
        "t",
    )
    caps = {i: 1 for i in range(5)}
    flow = Flow({0: 1, 2: 1, 4: 1}, 1)
    arcs = augmenting_path(g, caps, flow)
    assert arcs == (ResidualArc(1, True), ResidualArc(2, False), ResidualArc(3, True))
    values = apply_augmentation(flow.values, arcs)
    assert values == {0: 1, 1: 1, 2: 0, 4: 1, 3: 1}


def test_apply_augmentation_and_decompose():
    g = make_graph(
        ["s", "u", "v", "t"],
        [(0, "s", "u"), (1, "s", "v"), (2, "u", "v"), (3, "u", "t"), (4, "v", "t")],
        "s",
        "t",
    )
    values = {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}
    paths = decompose_unit_paths(g, values)
    assert paths == ((0, 3), (1, 4))


def test_decompose_cancels_cycles():
    g = make_graph(
        ["s", "u", "v", "t"],
        [(0, "s", "u"), (1, "u", "t"), (2, "u", "v"), (3, "v", "u")],
        "s",
        "t",
    )
    # a stray unit circulating u->v->u must not leak into the peeled paths
    values = {0: 1, 1: 1, 2: 1, 3: 1}
    paths = decompose_unit_paths(g, values)
    assert paths == ((0, 1),)


def test_max_flow_flow_is_feasible_and_conserving():
    for seed in range(8):
        inst = random_sp(seed + 100, 3)
        g = inst.graph
        caps = inst.capacities
        flow = max_flow(g, caps)
        # raises on any violation
        augmenting = augmenting_path(g, caps, flow)
        assert augmenting is None  # max flow admits no augmenting path


def test_augmenting_path_in_profile_union_network():
    # combined capacitated graph of a reference profile (2 paths) and a
    # 1-path partial profile: an augmenting path must exist and every forward
    # arc must sit on an edge the reference profile uses
    from csglab.analysis import enumerate_profiles

    for seed in range(12):
        inst = random_sp(seed + 200, 2, scheme_family="mixed")
        profiles = enumerate_profiles(inst)
        reference = profiles[seed % len(profiles)]
        partial_paths = (reference.paths[0],) if seed % 2 else (profiles[0].paths[1],)
        partial_loads: dict[int, int] = {}
        for path in partial_paths:
            for e in path:
                partial_loads[e] = partial_loads.get(e, 0) + 1

        union_caps = {
            eid: max(reference.loads.get(eid, 0), partial_loads.get(eid, 0))
            for eid in set(reference.loads) | set(partial_loads)
        }
        arcs = augmenting_path(
            inst.graph, union_caps, Flow(partial_loads, len(partial_paths))
        )
        assert arcs is not None
        for arc in arcs:
            if arc.forward:
                assert reference.loads.get(arc.edge_id, 0) > 0
            else:
                assert partial_loads.get(arc.edge_id, 0) > 0


def test_max_flow_builds_only_the_residual_arcs_it_tries(monkeypatch):
    # fig3's shape: n unit links and one wide link; every augmentation takes
    # the first unsaturated source arc, so a lazy search builds one arc each
    made = []

    class Counted(ResidualArc):
        __slots__ = ()

        def __new__(cls, *fields):
            made.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(flows, "ResidualArc", Counted)
    n = 2000
    g = make_graph(["s", "t"], [(i, "s", "t") for i in range(n + 1)], "s", "t")
    caps = {i: 1 for i in range(n)} | {n: n}
    assert max_flow(g, caps).value == 2 * n
    # listing every residual arc of the source at each of the n + 1
    # augmentations built (n + 1)(n + 2) / 2 = 2,003,001
    assert len(made) <= 2 * n + 1


def test_max_flow_reads_each_capacity_a_bounded_number_of_times():
    # fig3's shape again: searches that each step past every saturated unit
    # link at the source read about (n + 1)(n + 2) / 2 capacities in all
    reads = []

    class Counted(dict):
        def get(self, *args):
            reads.append(args[0])
            return super().get(*args)

        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    n = 2000
    g = make_graph(["s", "t"], [(i, "s", "t") for i in range(n + 1)], "s", "t")
    assert max_flow(g, Counted({i: 1 for i in range(n)} | {n: n})).value == 2 * n
    assert len(reads) <= 10 * n


@st.composite
def flow_networks(draw):
    """A digraph of 2-6 nodes with parallel arcs and cycles, shuffled edge
    ids, capacities 0-3 and a source and sink drawn among its nodes."""
    count = draw(st.integers(2, 6))
    source, sink = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))
    ends = draw(
        st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)).filter(lambda arc: arc[0] != arc[1]),
            max_size=12,
        )
    )
    ids = draw(st.permutations(range(2 * len(ends))))[: len(ends)]
    graph = make_graph(range(count), [(i, u, v) for i, (u, v) in zip(ids, ends)], source, sink)
    capacities = {i: draw(st.integers(0, 3)) for i in ids}
    return graph, capacities


@settings(max_examples=300, deadline=None)
@given(flow_networks(), st.integers(0, 4), st.data())
def test_flow_searches_match_the_list_and_sort_oracle(network, k, data):
    graph, caps = network
    assert max_flow(graph, caps) == Flow(*oracle_max_flow(graph, caps))
    # the residual search on a flow reached by k oracle augmentations, with
    # up to three unit cycles on top: the circulating units put backward
    # arcs in front of the search, where augmentations alone rarely do
    values, value = {e.id: 0 for e in graph.edges}, 0
    for _ in range(k):
        step = oracle_augment(graph, caps, values)
        if step is None:
            break
        values, value = step[0], value + step[1]
    for _ in range(data.draw(st.integers(0, 3)) if graph.edges else 0):
        edge = data.draw(st.sampled_from(graph.edges))
        returns = oracle_paths(graph, edge.head, edge.tail)
        cycle = (edge.id, *data.draw(st.sampled_from(returns))) if returns else ()
        if all(values[e] < caps[e] for e in cycle):
            for e in cycle:
                values[e] += 1
    expected = oracle_residual_path(graph, caps, values)
    assert augmenting_path(graph, caps, Flow(values, value)) == (
        None if expected is None else tuple(ResidualArc(*arc) for arc in expected)
    )
