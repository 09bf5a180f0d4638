"""Every malformed instance document ends in exit 2 with an error message:
no traceback and no silent coercion of a non-integer field."""

import json
from time import perf_counter

import pytest

from csglab.cli import main
from csglab.errors import InstanceFormatError
from csglab.instances import two_link
from csglab.io import canonical_json, instance_from_document, instance_to_document


def analyze(tmp_path, capsys, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", str(path)])
    return code, capsys.readouterr().err


def two_link_document() -> dict:
    return json.loads(canonical_json(instance_to_document(two_link(2))))


@pytest.mark.parametrize("doc", [[1, 2], "two-link", 3, None])
def test_analyze_rejects_a_document_that_is_not_an_object(tmp_path, capsys, doc):
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert "must be a JSON object" in err


def test_fractional_capacity_is_rejected(tmp_path, capsys):
    doc = two_link_document()
    doc["edges"][0]["capacity"] = 2.7
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert "capacity must be a JSON integer, got 2.7" in err


def test_fractional_edge_id_is_rejected(tmp_path, capsys):
    doc = two_link_document()
    doc["edges"][0]["id"] = 0.5
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert "edge id must be a JSON integer, got 0.5" in err


def test_boolean_agent_count_is_rejected(tmp_path, capsys):
    doc = two_link_document()
    doc["agents"] = True
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert "agent count must be a JSON integer, got True" in err


@pytest.mark.parametrize(
    "field, value",
    [("capacity", 2.0), ("capacity", "2"), ("capacity", True), ("id", "0"), ("id", False)],
)
def test_edge_integers_are_not_coerced(field, value):
    doc = two_link_document()
    doc["edges"][0][field] = value
    with pytest.raises(InstanceFormatError, match="must be a JSON integer"):
        instance_from_document(doc)


@pytest.mark.parametrize("cost", ["1e999999999", "0.1", 0.1, True])
def test_cost_outside_the_rational_grammar_is_rejected_at_once(tmp_path, capsys, cost):
    doc = two_link_document()
    doc["edges"][0]["cost"] = cost
    started = perf_counter()
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert "not a valid rational" in err
    assert perf_counter() - started < 1


def test_table_entry_outside_the_rational_grammar_is_rejected(tmp_path, capsys):
    doc = two_link_document()
    doc["edges"][0]["scheme"] = {"table": ["1", "1e-1"]}
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert "not a valid rational: '1e-1'" in err


def test_cost_beyond_the_float_range_reports_a_null_decimal(tmp_path, capsys):
    doc = two_link_document()
    huge = "1" + "0" * 400
    for edge in doc["edges"]:
        edge["cost"] = huge
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["optima"]["sum_cost"]["value"] == {"exact": f"{huge}/1", "decimal": None}
    assert report["ratios"]["poa_sc"] == {"exact": "1/1", "decimal": 1.0}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("nodes", "st", "nodes must be a JSON array, got str"),
        ("nodes", {"s": 0, "t": 1}, "nodes must be a JSON array, got dict"),
        ("edges", {"0": {}}, "edges must be a JSON array, got dict"),
        ("agents", {"source": "s", "sink": "t"}, "agents must be a JSON array, got dict"),
        ("agents", "st", "agents must be a JSON array, got str"),
    ],
)
def test_strings_and_objects_are_not_read_as_arrays(tmp_path, capsys, field, value, message):
    doc = two_link_document()
    doc[field] = value
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert message in err


def test_share_table_must_be_an_array(tmp_path, capsys):
    doc = two_link_document()
    doc["edges"][0]["scheme"] = {"table": "21"}
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert "edge 0: table must be a JSON array, got str" in err


@pytest.mark.parametrize("recipe, kind", [("x", "str"), ([["kind", 1]], "list")])
def test_recipe_must_be_an_object(tmp_path, capsys, recipe, kind):
    doc = two_link_document()
    doc["recipe"] = recipe
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert f"recipe must be a JSON object, got {kind}" in err


@pytest.mark.parametrize("bad", [1.0, None, True, [0]])
@pytest.mark.parametrize("where", ["nodes", "source", "tail", "head", "agent"])
def test_node_ids_are_strings_or_integers(tmp_path, capsys, where, bad):
    doc = {
        "version": 1,
        "agents": [{"source": 0, "sink": 1}],
        "nodes": [0, 1],
        "source": 0,
        "sink": 1,
        "edges": [{"id": 0, "tail": 0, "head": 1, "cost": "1", "capacity": 1}],
    }
    if where == "nodes":
        doc["nodes"] = [0, bad]
    elif where == "source":
        doc["source"] = bad
    elif where == "agent":
        doc["agents"][0]["sink"] = bad
    else:
        doc["edges"][0][where] = bad
    code, err = analyze(tmp_path, capsys, doc)
    assert code == 2
    assert f"must be a JSON string or integer, got {bad!r}" in err


def edit_edge(**fields):
    def edit(doc):
        doc["edges"][0].update(fields)

    return edit


def unreachable_agent(doc):
    doc["agents"] = [{"source": "t", "sink": "s"}]


def no_agents(doc):
    doc["agents"] = 0


def negative_agents(doc):
    doc["agents"] = -1


def agent_off_the_graph(doc):
    doc["agents"] = [{"source": "s", "sink": "u"}]


def back_edge(doc):
    doc["edges"].append({"id": 2, "tail": "t", "head": "s", "cost": "1", "capacity": 1})


def loop_through_a(doc):
    doc["nodes"].append("a")
    doc["edges"] += [
        {"id": 2, "tail": "t", "head": "a", "cost": "1", "capacity": 1},
        {"id": 3, "tail": "a", "head": "t", "cost": "1", "capacity": 1},
    ]


@pytest.mark.parametrize(
    "edit, argv, start, message",
    [
        pytest.param(
            edit_edge(scheme={"table": ["1"]}), ["analyze"], None,
            "table has 1 entries for capacity 2", id="short-table",
        ),
        pytest.param(
            edit_edge(cost="-2", scheme={"table": ["-2", "-2"]}), ["analyze"], None,
            "base cost -2 is negative", id="negative-table-cost",
        ),
        pytest.param(
            edit_edge(cost="-2"), ["analyze"], None,
            "base cost must be >= 0", id="negative-ordinary-cost",
        ),
        pytest.param(
            edit_edge(scheme=5), ["analyze"], None, "edge 0: unknown scheme form 5", id="scheme-number",
        ),
        pytest.param(negative_agents, ["analyze"], None, "agent count must be >= 0", id="negative-agents"),
        pytest.param(
            agent_off_the_graph, ["analyze"], None, "agent 0 terminals not in graph", id="terminal-off-graph",
        ),
        pytest.param(
            unreachable_agent, ["analyze"], None,
            "no feasible strategy profile exists", id="unreachable-sink",
        ),
        pytest.param(None, ["analyze", "--cap", "0"], None, "cap must be >= 1", id="zero-cap"),
        # a game with no agents enumerates no path, so only the instance checks its cap
        *(
            pytest.param(
                no_agents, [command, "--cap", cap], None, "cap must be >= 1", id=f"{command}-no-agents-cap{cap}",
            )
            for command in ("analyze", "dynamics")
            for cap in ("0", "-5")
        ),
        pytest.param(None, ["dynamics"], [[], [0]], "empty path", id="empty-start-path"),
        pytest.param(
            back_edge, ["dynamics"], [[0, 2, 0], [0]], "path revisits node 's'", id="start-path-revisits",
        ),
        # the path reaches the sink, leaves it and comes back, so only the end-of-path check sees the revisit
        pytest.param(
            loop_through_a, ["dynamics"], [[0, 2, 3], [0]], "path revisits node 't'", id="start-path-revisits-sink",
        ),
        pytest.param(
            edit_edge(capacity=1), ["dynamics"], [[0], [0]], "edge 0 loaded 2 over capacity 1", id="overloaded-start",
        ),
    ],
)
def test_contract_exits(tmp_path, capsys, edit, argv, start, message):
    doc = two_link_document()
    if edit is not None:
        edit(doc)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    command, *options = argv
    if start is not None:
        profile = tmp_path / "start.json"
        profile.write_text(json.dumps(start))
        options += ["--start", str(profile)]
    code = main([command, str(path), *options])
    assert code == 2
    assert message in capsys.readouterr().err
