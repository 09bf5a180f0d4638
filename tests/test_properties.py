"""Property tests over randomly generated structures."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from csglab.analysis import compute_ratios
from csglab.errors import InfeasibleProfile, InternalAssertion, MalformedProfile
from csglab.flows import decompose_unit_paths, max_flow
from csglab.game import (
    CostSharingScheme,
    Deviation,
    StrategyProfile,
    _improving_move,
    _scaled_costs,
    agent_cost,
    best_response,
    feasible_extension,
    is_feasible,
    is_nash,
    make_instance,
    make_ordinary_scheme,
    make_threshold_scheme,
    max_cost,
    potential,
    sum_cost,
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
    first_path,
    make_graph,
)
from csglab.instances import random_asymmetric, random_sp, two_link
from csglab.rational import format_rational, parse_rational

from helpers import (
    oracle_agent_cost,
    oracle_best_response,
    oracle_extension_paths,
    oracle_feasible_profiles,
    oracle_first_improvement,
    oracle_paths,
    oracle_potential,
    oracle_social_costs,
)


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
def small_digraphs(draw, max_nodes=5, max_arcs=8):
    """Up to ``max_nodes`` nodes and ``max_arcs`` arcs in any direction: cycles
    and parallel arcs occur, and edge ids are a random permutation of the arc
    order."""
    size = draw(st.integers(min_value=2, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=size - 1)
    arcs = draw(st.lists(st.tuples(node, node).filter(lambda a: a[0] != a[1]), max_size=max_arcs))
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


@settings(max_examples=300, deadline=None)
@given(small_digraphs(max_nodes=7, max_arcs=14))
def test_first_path_is_the_first_enumerated_path(graph):
    paths = enumerate_st_paths(graph)
    found = first_path(
        graph.source, graph.sink, lambda node: [(e.id, e.head) for e in graph.outgoing[node]]
    )
    assert found == (paths[0] if paths else None)


def greedy_peel(graph, values, count):
    """The lowest-id greedy walk: from the source, always leave by the lowest
    edge id that still carries flow (a simple path on an acyclic flow)."""
    work = dict(values)
    paths = []
    for _ in range(count):
        node, path = graph.source, []
        while node != graph.sink:
            edge = min((e for e in graph.outgoing[node] if work[e.id] > 0), key=lambda e: e.id)
            work[edge.id] -= 1
            path.append(edge.id)
            node = edge.head
        paths.append(tuple(path))
    return tuple(paths)


def subgraph(graph, edges):
    return make_graph(graph.nodes, [(e.id, e.tail, e.head) for e in edges], graph.source, graph.sink)


@settings(max_examples=300, deadline=None)
@given(small_digraphs(max_nodes=6, max_arcs=12), st.data())
def test_decomposition_peels_the_flow_value_in_simple_paths(graph, data):
    simple = enumerate_st_paths(graph)
    # an arc u->v closes a cycle with every path from v back to u
    cycles = [(e.id, *back) for e in graph.edges for back in oracle_paths(graph, e.head, e.tail)]
    units = data.draw(st.lists(st.sampled_from(simple), max_size=4)) if simple else []
    loops = data.draw(st.lists(st.sampled_from(cycles), max_size=2)) if cycles else []
    values = Counter(edge_id for path in units + loops for edge_id in path)
    values = {e.id: values[e.id] for e in graph.edges}

    paths = decompose_unit_paths(graph, values)

    assert len(paths) == len(units)
    assert set(paths) <= set(simple)
    used = Counter(edge_id for path in paths for edge_id in path)
    assert all(used[edge_id] <= flow for edge_id, flow in values.items())
    carrying = [e for e in graph.edges if values[e.id] > 0]
    if not any(oracle_paths(subgraph(graph, carrying), e.head, e.tail) for e in carrying):
        assert paths == greedy_peel(graph, values, len(units))


def fixpoint_reduces_to_single_edge(graph):
    """The series/parallel reduction as first written: rebuild the arc list
    after every splice until nothing changes (quadratic, kept as the oracle)."""
    if not graph.edges:
        return False
    s, t = graph.source, graph.sink
    pairs = [(e.tail, e.head) for e in graph.edges]
    nodes = set(graph.nodes)
    changed = True
    while changed:
        changed = False
        seen = set()
        kept = []
        for pair in pairs:
            if pair in seen:
                changed = True
                continue
            seen.add(pair)
            kept.append(pair)
        pairs = kept
        indeg, outdeg = {}, {}
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
                    continue
                pairs = [p for i, p in enumerate(pairs) if i not in (ins[0], outs[0])]
                pairs.append((u, w))
                nodes.discard(v)
                changed = True
                break
    return nodes == {s, t} and pairs == [(s, t)]


def oracle_classify(graph):
    # an arc u->v closes a cycle exactly when v reaches u
    if any(oracle_paths(graph, e.head, e.tail) for e in graph.edges):
        return GraphClass.GENERAL
    if set(graph.nodes) == {graph.source, graph.sink} and graph.edges and all(
        (e.tail, e.head) == (graph.source, graph.sink) for e in graph.edges
    ):
        return GraphClass.PARALLEL_LINK
    if fixpoint_reduces_to_single_edge(graph):
        return GraphClass.SERIES_PARALLEL
    return GraphClass.DAG


def topological_order(graph):
    waiting = Counter(e.head for e in graph.edges)
    ready = [v for v in graph.nodes if not waiting[v]]
    order = []
    while ready:
        order.append(ready.pop())
        for edge in graph.outgoing[order[-1]]:
            waiting[edge.head] -= 1
            if not waiting[edge.head]:
                ready.append(edge.head)
    return order


@st.composite
def classifiable_digraphs(draw):
    """Random multigraphs with parallel arcs, stray nodes and random terminals.

    Half are built SP graphs, relabelled, that get at most one perturbation:
    an extra forward arc, a stray node or new terminals."""
    if draw(st.booleans()):
        built = build_sp_graph(draw(sp_expressions(depth=4)))
        change = draw(st.sampled_from(("none", "arc", "stray", "terminals")))
        size = len(built.nodes) + (change == "stray")
        rank = {v: i for i, v in enumerate(topological_order(built))}
        arcs = [(rank[e.tail], rank[e.head]) for e in built.edges]
        terminals = None if change == "terminals" else (0, len(built.nodes) - 1)
        extras, acyclic = (1, 1) if change == "arc" else (0, 0), True
    else:
        size = draw(st.integers(min_value=2, max_value=7))
        arcs, terminals, extras, acyclic = [], None, (0, 10), draw(st.booleans())
    node = st.integers(min_value=0, max_value=size - 1)
    extra = st.tuples(node, node).filter(lambda a: a[0] != a[1])
    if acyclic:
        extra = extra.map(sorted).map(tuple)  # every arc points to a later node
    arcs += draw(st.lists(extra, min_size=extras[0], max_size=extras[1]))
    if terminals is None:
        terminals = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    names = draw(st.permutations(range(size)))
    return make_graph(
        [names[v] for v in range(size)],
        [(i, names[u], names[v]) for i, (u, v) in enumerate(arcs)],
        names[terminals[0]],
        names[terminals[1]],
    )


@settings(max_examples=400, deadline=None)
@given(classifiable_digraphs())
def test_classify_agrees_with_the_fixpoint_reduction(graph):
    assert classify(graph) is oracle_classify(graph)


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
    scheme = CostSharingScheme(p, c, tuple(shares))
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
        assert set(path) <= big.loads.keys()
        extended = StrategyProfile(small.paths + (path,))
        assert is_feasible(inst, extended)


def oracle_feasible_profiles_of_size(instance, agents):
    from csglab.game import make_instance

    if agents == 0:
        from csglab.game import StrategyProfile

        return [StrategyProfile(())]
    smaller = make_instance(instance.graph, instance.schemes, agents, certify=False)
    return oracle_feasible_profiles(smaller)


# --- the integer cost kernel against Fraction oracles --------------------------

DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 13)  # pairwise-coprime ones among them


@st.composite
def parallel_links(draw):
    expr = EdgeLeaf()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        expr = Parallel(expr, EdgeLeaf())
    return expr


@st.composite
def table_scheme(draw, agents):
    """A valid share table built from one denominator q per edge: base cost
    a/q, then each share k/q of the way from its floor base/x up to the
    previous share. The capacity may exceed the agent count."""
    q = draw(st.sampled_from(DENOMINATORS))
    base = Fraction(draw(st.integers(min_value=0, max_value=12)), q)
    capacity = draw(st.integers(min_value=1, max_value=agents + 1))
    shares = [base]
    for load in range(2, capacity + 1):
        low = base / load
        shares.append(low + (shares[-1] - low) * Fraction(draw(st.integers(0, q)), q))
    return CostSharingScheme(base, capacity, tuple(shares))


@settings(max_examples=60, deadline=None)
@given(st.one_of(parallel_links(), sp_expressions()), st.integers(min_value=1, max_value=3), st.data())
def test_integer_kernel_matches_fraction_oracles(expr, agents, data):
    graph = build_sp_graph(expr)
    schemes = {e.id: data.draw(table_scheme(agents)) for e in graph.edges_by_id}
    inst = make_instance(graph, schemes, agents, certify=False)
    paths = enumerate_st_paths(graph)
    profiles = data.draw(
        st.lists(st.tuples(*[st.sampled_from(paths)] * agents), min_size=1, max_size=10)
    )
    for paths_chosen in profiles:
        profile = StrategyProfile(paths_chosen)
        with pytest.raises(MalformedProfile, match=f"profile has {agents + 1} paths"):
            sum_cost(inst, StrategyProfile(profile.paths + (paths[0],)))
        # the head, every agent but the last, costed with one more agent on a
        # path Q, against the materialized head + Q; an overload is a bug
        head = StrategyProfile(paths_chosen[:-1])
        for last in paths:
            materialized = StrategyProfile(head.paths + (last,))
            if not is_feasible(inst, materialized):
                with pytest.raises(InternalAssertion, match="cost kernel met edge"):
                    _scaled_costs(inst, head.loads, head.paths, last)
                continue
            costs = [oracle_agent_cost(inst, materialized, j) for j in range(agents - 1)]
            expected_head = (sum(costs) * inst.scale, max(costs, default=0) * inst.scale)
            assert _scaled_costs(inst, head.loads, head.paths, last) == expected_head
        if not is_feasible(inst, profile):
            for view in (lambda: agent_cost(inst, profile, 0), lambda: sum_cost(inst, profile)):
                with pytest.raises(InfeasibleProfile, match="loaded .* over capacity"):
                    view()
            continue
        for agent in range(agents):
            cost = agent_cost(inst, profile, agent)
            assert cost == oracle_agent_cost(inst, profile, agent)
            assert type(cost) is Fraction
        # sampled paths repeat one object; copies are equal but distinct tuples
        copied = StrategyProfile(tuple(tuple(list(path)) for path in paths_chosen))
        expected_costs = oracle_social_costs(inst, profile)
        for social in (profile, copied):
            assert (sum_cost(inst, social), max_cost(inst, social)) == expected_costs
        assert potential(inst, profile) == oracle_potential(inst, profile)
        moves = [best_response(inst, profile, agent) for agent in range(agents)]
        expected = [oracle_best_response(inst, profile, agent) for agent in range(agents)]
        assert moves == expected
        for move in moves:
            if move is not None:
                assert type(move.old_cost) is Fraction and type(move.new_cost) is Fraction
        assert is_nash(inst, profile) is all(move is None for move in expected)


# --- the equilibrium test against a per-agent brute force -----------------------


def some_of(draw, profiles, count=30):
    return draw(st.randoms(use_true_random=False)).sample(profiles, min(len(profiles), count))


@st.composite
def symmetric_sp_games(draw):
    """Shared terminals on an SP graph, with table capacities of 1 to agents + 1,
    so capacities bind."""
    graph = build_sp_graph(draw(st.one_of(parallel_links(), sp_expressions())))
    agents = draw(st.integers(min_value=2, max_value=3))
    schemes = {e.id: draw(table_scheme(agents)) for e in graph.edges_by_id}
    inst = make_instance(graph, schemes, agents, certify=False)
    return inst, some_of(draw, oracle_feasible_profiles(inst))


@st.composite
def asymmetric_dag_games(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    inst = random_asymmetric(seed, draw(st.integers(min_value=2, max_value=3)), "mixed")
    return inst, some_of(draw, oracle_feasible_profiles(inst))


@st.composite
def mixed_terminal_games(draw):
    """Three or four agents on the terminal pairs of a two-agent DAG game, as in
    [(s,t),(s,a),(s,t)], so several agents share a class.

    Each profile also comes with a copy in which one agent takes the path of
    an agent with other terminals. ``is_nash`` takes any profile, and that is
    the only way two agents with different terminals hold the same path.
    """
    base = random_asymmetric(draw(st.integers(min_value=0, max_value=10**6)), 2)
    terminals = draw(st.lists(st.sampled_from(base.terminals), min_size=3, max_size=4))
    schemes = {e.id: draw(table_scheme(len(terminals))) for e in base.graph.edges_by_id}
    inst = make_instance(base.graph, schemes, terminals, certify=False)
    profiles = some_of(draw, oracle_feasible_profiles(inst))
    strangers = [(i, j) for i, a in enumerate(terminals) for j, b in enumerate(terminals) if a != b]
    for profile in list(profiles) if strangers else []:
        giver, taker = draw(st.sampled_from(strangers))
        crossed = profile.replace(taker, profile.paths[giver])
        if is_feasible(inst, crossed):
            profiles.append(crossed)
    return inst, profiles


def shared_path_game():
    """Agent 0 (s->t) is content on the direct edge; agent 1 (s->a) holds the
    same path, pays 1 there and would pay 1/2 on its own edge s->a."""
    graph = make_graph(["s", "a", "t"], [(0, "s", "a"), (1, "a", "t"), (2, "s", "t")], "s", "t")
    schemes = {
        0: make_ordinary_scheme(Fraction(1, 2), 1),
        1: make_ordinary_scheme(1, 1),
        2: make_ordinary_scheme(2, 2),
    }
    inst = make_instance(graph, schemes, [("s", "t"), ("s", "a")])
    return inst, [StrategyProfile(((2,), (2,)))]


@settings(max_examples=150, deadline=None)
@given(st.one_of(symmetric_sp_games(), asymmetric_dag_games(), mixed_terminal_games()))
@example(shared_path_game())
def test_is_nash_matches_a_per_agent_brute_force(game):
    inst, profiles = game
    for profile in profiles:
        moves = [oracle_best_response(inst, profile, agent) for agent in range(inst.n)]
        assert is_nash(inst, profile) is all(move is None for move in moves)
        # each agent's cheapest move, which explains a refusal
        assert [best_response(inst, profile, agent) for agent in range(inst.n)] == moves
        # the first strictly cheaper path in path order, with both costs
        for agent in range(inst.n):
            move = _improving_move(inst, profile.loads, profile.paths[agent], agent, "first_improving")
            if move is not None:
                path, old, new = move
                scale = inst.scale
                move = Deviation(agent, profile.paths[agent], path, Fraction(old, scale), Fraction(new, scale))
            assert move == oracle_first_improvement(inst, profile, agent)


# --- orbit analysis against is_nash on every orbit --------------------------------


@st.composite
def threshold_or_table(draw, agents):
    """A random table or a threshold table, with capacity 1..agents + 1."""
    if draw(st.booleans()):
        return draw(table_scheme(agents))
    capacity = draw(st.integers(min_value=1, max_value=agents + 1))
    base = draw(st.integers(min_value=0, max_value=12))
    return make_threshold_scheme(base, capacity, draw(st.integers(min_value=1, max_value=capacity)))


@st.composite
def symmetric_orbit_games(draw):
    graph = build_sp_graph(draw(st.one_of(parallel_links(), sp_expressions())))
    agents = draw(st.integers(min_value=0, max_value=3))
    schemes = {e.id: draw(threshold_or_table(agents)) for e in graph.edges_by_id}
    return make_instance(graph, schemes, agents, certify=False)


@st.composite
def asymmetric_orbit_games(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_asymmetric(seed, draw(st.integers(min_value=1, max_value=3)), "mixed")


@st.composite
def split_class_games(draw):
    """The last agent shares its terminal pair with agent 0 but not with the
    agent before it, as in [(s,t),(s,a),(s,t)]."""
    base = random_asymmetric(draw(st.integers(min_value=0, max_value=10**6)), 2)
    first, other = base.terminals
    middle = draw(st.lists(st.sampled_from(base.terminals), max_size=1))
    terminals = [first, *middle, other, first]
    schemes = {e.id: draw(threshold_or_table(len(terminals))) for e in base.graph.edges_by_id}
    return make_instance(base.graph, schemes, terminals, certify=False)


def one_link_game(agents):
    graph = make_graph(["s", "t"], [(0, "s", "t")], "s", "t")
    return make_instance(graph, {0: make_ordinary_scheme(2, 1)}, agents)


@settings(max_examples=150, deadline=None)
@given(st.one_of(symmetric_orbit_games(), asymmetric_orbit_games(), split_class_games()))
@example(one_link_game(0))
@example(one_link_game(1))
@example(two_link(3))
def test_orbit_analysis_matches_is_nash_on_every_orbit(inst):
    profiles = oracle_feasible_profiles(inst)
    assume(profiles)
    orbits: dict = {}  # first ordered member and size of each orbit, in order
    for profile in profiles:
        key = tuple(sorted(zip(map(repr, inst.terminals), profile.paths)))
        first, size = orbits.get(key, (profile, 0))
        orbits[key] = (first, size + 1)
    expected = [
        (p, size, *oracle_social_costs(inst, p), potential(inst, p))
        for p, size in orbits.values()
        if is_nash(inst, p)
    ]

    report = compute_ratios(inst)
    got = [(e.profile, e.multiplicity, e.sum_cost, e.max_cost, e.potential) for e in report.equilibria.entries]
    assert got == expected
    assert report.equilibria.total_count == sum(size for _, size, *_ in expected)
    for optimum, which in ((report.opt_sc, 0), (report.opt_mc, 1)):
        # min keeps the first of equals
        best = min(profiles, key=lambda p: oracle_social_costs(inst, p)[which])
        assert optimum == (best, oracle_social_costs(inst, best)[which])
