import random

import pytest

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

from helpers import oracle_max_disjoint_path_count


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
