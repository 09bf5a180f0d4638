"""Every malformed instance document ends in exit 2 with an error message:
no traceback and no silent coercion of a non-integer field."""

import json

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
