import json
from fractions import Fraction

import pytest

from csglab import analysis, game, io
from csglab.analysis import RatioValue, compute_ratios
from csglab.dynamics import run_dynamics
from csglab.errors import InstanceFormatError, ParameterViolation, SchemeViolation
from csglab.instances import crossed_dag, overhead_parallel, random_asymmetric, random_sp, two_link
from csglab.io import (
    canonical_json,
    instance_from_document,
    instance_to_document,
    profile_from_document,
    profile_to_lists,
    report_to_document,
    trace_to_document,
)


def round_trip(instance):
    doc = instance_to_document(instance)
    text = canonical_json(doc)
    parsed = json.loads(text)
    rebuilt = instance_from_document(parsed)
    assert rebuilt.graph == instance.graph
    assert rebuilt.schemes == instance.schemes
    assert rebuilt.terminals == instance.terminals
    # emitting again reproduces the same bytes
    assert canonical_json(instance_to_document(rebuilt)) == text


def test_round_trip_constructed_families():
    round_trip(crossed_dag(1, 2))
    round_trip(overhead_parallel(4, Fraction(1, 100)))
    round_trip(two_link(5))


def test_round_trip_random_families():
    for seed in range(8):
        round_trip(random_sp(seed, 2 + seed % 2, scheme_family="mixed"))
        round_trip(random_asymmetric(seed, 2 + seed % 2))


def test_wide_edge_serializes_as_table():
    doc = instance_to_document(overhead_parallel(4, Fraction(1, 100)))
    by_id = {e["id"]: e for e in doc["edges"]}
    assert by_id[0]["scheme"] == "ordinary"
    assert by_id[4]["scheme"] == {"table": ["101/100", "101/100", "101/100", "101/400"]}
    assert by_id[4]["cost"] == "101/100"


def test_asymmetric_agents_serialization():
    inst = random_asymmetric(3, 2)
    doc = instance_to_document(inst)
    assert isinstance(doc["agents"], list)
    assert all(set(a) == {"source", "sink"} for a in doc["agents"])


def test_malformed_documents_rejected():
    good = instance_to_document(two_link(2))

    bad = json.loads(canonical_json(good))
    bad["edges"][0]["cost"] = "1/0"
    with pytest.raises(ParameterViolation):
        instance_from_document(bad)

    bad = json.loads(canonical_json(good))
    del bad["nodes"]
    with pytest.raises(InstanceFormatError):
        instance_from_document(bad)

    bad = json.loads(canonical_json(good))
    bad["version"] = 99
    with pytest.raises(InstanceFormatError):
        instance_from_document(bad)

    bad = json.loads(canonical_json(good))
    bad["edges"][0]["scheme"] = {"table": ["1/1", "2/1"]}  # increasing share table
    with pytest.raises(SchemeViolation):
        instance_from_document(bad)


def test_profile_documents():
    inst = crossed_dag(1, 2)
    profile = inst.profile(((0, 2, 6), (1, 5)))
    lists = profile_to_lists(profile)
    assert lists == [[0, 2, 6], [1, 5]]
    assert profile_from_document(lists, inst) == profile
    assert profile_from_document({"paths": lists}, inst) == profile
    with pytest.raises(InstanceFormatError):
        profile_from_document({"paths": "nope"}, inst)


def test_report_document_shape_and_stability():
    inst = two_link(5)
    report = compute_ratios(inst)
    doc1 = report_to_document(report, criterion="both", wall_time_s=1.23)
    doc2 = report_to_document(report, criterion="both", wall_time_s=9.87)
    assert doc1["ratios"]["poa_sc"] == {"exact": "5/1", "decimal": 5.0}
    assert doc1["graph_class"] == "parallel-link"
    assert doc1["all_bounds_hold"] is True
    tags = [b["tag"] for b in doc1["bounds"]]
    assert "Thm5:PoA_sc<=n" in tags and "Thm10:PoS_mc<=n" in tags
    # deterministic sections agree even when the volatile block differs
    d1 = dict(doc1)
    d2 = dict(doc2)
    assert d1.pop("volatile") != d2.pop("volatile")
    assert canonical_json(d1) == canonical_json(d2)


def test_an_infinite_ratio_fails_its_bound_and_reads_inf():
    # no report in the tests reaches this: their one game with a zero optimum and
    # a costly equilibrium has a cycle, so it is general and gets no anarchy bound
    witness = game.StrategyProfile(((0,), (1,)))
    check = analysis._check("Thm5:PoA_sc<=n", "anarchy", Fraction(2), RatioValue(None, degenerate=True), witness)
    assert check.measured is None and not check.holds and check.witness == witness
    block = io._bound_block(check)
    assert (block["measured"], block["holds"], block["witness"]) == ("inf", False, [[0], [1]])


def test_report_criterion_filter():
    report = compute_ratios(two_link(3))
    doc = report_to_document(report, criterion="sc")
    assert "poa_mc" not in doc["ratios"]
    assert "max_cost" not in doc["optima"]
    assert all("_mc" not in b["tag"] for b in doc["bounds"])


def test_trace_document():
    inst = overhead_parallel(3, Fraction(1, 100))
    packed = inst.profile(((3,), (3,), (3,)))
    trace = run_dynamics(inst, packed)
    doc = trace_to_document(trace, inst)
    assert doc["step_count"] == trace.step_count == len(doc["steps"])
    assert doc["terminal"]["sum_cost"] == "7/3"  # n - 1 + 1/n at n = 3
    potentials = [step["potential_after"] for step in doc["steps"]]
    assert len(potentials) == len(set(potentials))


def test_each_share_table_is_validated_once(monkeypatch):
    checked = []
    validate = game.validate_scheme
    monkeypatch.setattr(game, "validate_scheme", lambda scheme: checked.append(scheme) or validate(scheme))
    built = [overhead_parallel(4, Fraction(1, 100))]
    built += [random_asymmetric(seed, 3, scheme_family="mixed") for seed in range(4)]
    built += [random_sp(seed, 3, scheme_family="mixed") for seed in range(4)]
    edges = sum(len(instance.graph.edges) for instance in built)
    assert len(checked) == edges
    checked.clear()
    for instance in built:
        instance_from_document(instance_to_document(instance))
    assert len(checked) == edges
