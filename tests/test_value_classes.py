"""The public contract of the immutable value classes that are not
NamedTuples: fields set once, value equality and hash (identity for
``GameInstance``), checked defaults, cached properties stored on the
instance, and a ``Name(field=value, ...)`` repr."""

from fractions import Fraction

import pytest

from csglab.dynamics import DeviationPolicy
from csglab.errors import ParameterViolation
from csglab.game import StrategyProfile
from csglab.graphs import EdgeLeaf, Parallel, Series, make_graph
from csglab.instances import InstanceRecipe, two_link


def graph():
    return make_graph(["s", "a", "t"], [(0, "s", "a"), (1, "a", "t"), (2, "s", "t")], "s", "t")


# (build, fields the repr shows); build() gives a new value equal to the last
VALUES = {
    "Graph": (graph, ("nodes", "edges", "source", "sink")),
    "EdgeLeaf": (EdgeLeaf, ()),
    "Series": (lambda: Series(EdgeLeaf(), Parallel(EdgeLeaf(), EdgeLeaf())), ("first", "second")),
    "Parallel": (lambda: Parallel(EdgeLeaf(), Series(EdgeLeaf(), EdgeLeaf())), ("first", "second")),
    "StrategyProfile": (lambda: StrategyProfile(((0, 1), (2,))), ("paths",)),
    "DeviationPolicy": (lambda: DeviationPolicy("random", "first_improving", 3), ("ordering", "rule", "seed")),
    "InstanceRecipe": (lambda: InstanceRecipe("fig3", {"n": 4, "eps": Fraction(1, 100)}), ("kind", "params")),
}
INSTANCE = two_link(2)
SAMPLES = [build() for build, _ in VALUES.values()] + [INSTANCE]
REPR_FIELDS = [fields for _, fields in VALUES.values()] + [("graph", "schemes", "terminals", "cap")]
NAMES = [type(value).__name__ for value in SAMPLES]


@pytest.mark.parametrize("value, fields", zip(SAMPLES, REPR_FIELDS), ids=NAMES)
def test_attributes_cannot_be_assigned_or_deleted(value, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, "changed")
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        setattr(value, "extra", "added")
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("value, fields", zip(SAMPLES, REPR_FIELDS), ids=NAMES)
def test_repr_names_the_fields(value, fields):
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{type(value).__name__}({shown})"


@pytest.mark.parametrize("name", [name for name in VALUES if name != "InstanceRecipe"])
def test_value_equality_and_hash(name):
    build, _ = VALUES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a != tuple(getattr(a, field) for field in VALUES[name][1])


def test_fields_decide_equality():
    assert EdgeLeaf() != Series(EdgeLeaf(), EdgeLeaf())  # Series against Parallel: test_records
    assert StrategyProfile(((0,),)) != StrategyProfile(((1,),))
    assert make_graph(["s", "t"], [(0, "s", "t")], "s", "t") != make_graph(["s", "t"], [(1, "s", "t")], "s", "t")
    assert DeviationPolicy() == DeviationPolicy("round_robin", "best", 0) != DeviationPolicy(seed=1)


def test_recipe_equality_and_hash_cover_kind_and_params():
    recipe = InstanceRecipe("two-link", {"n": 3})
    assert recipe == InstanceRecipe("two-link", {"n": 3})
    assert recipe != InstanceRecipe("two-link", {"n": 4}) and recipe != InstanceRecipe("fig3", {"n": 3})
    assert InstanceRecipe.__hash__ is None  # params is a dict, so a recipe declares no hash
    with pytest.raises(TypeError, match="unhashable type: 'InstanceRecipe'"):
        hash(recipe)


def test_recipe_params_default_to_a_fresh_dict():
    a, b = InstanceRecipe("custom"), InstanceRecipe("custom")
    assert a.params == {} and a.params is not b.params


def test_game_instance_equality_is_identity():
    other = two_link(2)
    assert INSTANCE == INSTANCE and INSTANCE != other
    assert hash(INSTANCE) == object.__hash__(INSTANCE)


def test_each_game_instance_caches_its_own_paths():
    other = two_link(2)
    paths = INSTANCE.agent_paths(0)
    assert INSTANCE.agent_paths(1) is paths  # one terminal pair, one enumeration
    assert other.agent_paths(0) == paths and other.agent_paths(0) is not paths


def test_deviation_policy_checks_ordering_and_rule():
    with pytest.raises(ParameterViolation, match="ordering"):
        DeviationPolicy("sideways")
    with pytest.raises(ParameterViolation, match="rule"):
        DeviationPolicy("random", "fastest")
    assert DeviationPolicy().ordering == "round_robin" and DeviationPolicy().seed == 0


CACHED = [
    (graph, ("edge_map", "outgoing", "incoming", "incident")),
    (lambda: StrategyProfile(((0, 1), (2,), (0, 1))), ("loads",)),
    (lambda: two_link(3), ("symmetric", "capacities", "scale", "scaled_shares", "scaled_prefix")),
]


@pytest.mark.parametrize("build, names", CACHED, ids=["Graph", "StrategyProfile", "GameInstance"])
def test_cached_properties_are_computed_once_and_stored(build, names):
    value = build()
    for name in names:
        first = getattr(value, name)
        assert vars(value)[name] is first and getattr(value, name) is first
