"""``canonical_json`` writes exactly what ``json.dumps(indent=2, sort_keys=True)``
writes, plus a newline.

The comparison is on the text itself. The digest tests re-parse each report
and dump it again with json before hashing, so a whitespace slip in the
writer would pass them.
"""

import json
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import csglab.analysis
import csglab.dynamics
import csglab.io
from csglab.dynamics import run_dynamics
from csglab.instances import overhead_parallel, random_asymmetric
from csglab.io import canonical_json, instance_to_document, trace_to_document

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


strings = st.text() | st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "é☃", "😀", "\ud800"])
integers = st.integers() | st.sampled_from([0, -1, -(2**64) - 1, 2**64, 2**64 + 1, 10**40])
floats = st.floats() | st.sampled_from([0.0, -0.0, 1e16, 1e-7, float("inf"), float("-inf"), float("nan")])
scalars = strings | integers | floats | st.booleans() | st.none()
int_lists = st.lists(integers, max_size=4)
json_trees = st.recursive(
    scalars | int_lists | st.lists(int_lists, max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(strings, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=600, deadline=None)
@given(json_trees)
def test_writes_what_json_dumps_writes(value):
    assert canonical_json(value) == dumps(value)


@pytest.mark.parametrize("workload", ["sym-sp", "asym-dag"])
def test_every_seed0_report_is_written_as_json_dumps_writes_it(workload):
    reports = []
    program = SimpleNamespace(
        io=SimpleNamespace(**{**vars(csglab.io), "canonical_json": reports.append}),
        analysis=csglab.analysis,
        dynamics=csglab.dynamics,
    )
    ops = workloads.WORKLOADS[workload](0)
    for op in ops:
        run.analyze(program, op)
    assert len(reports) == len(ops)
    for report in reports:
        assert canonical_json(report) == dumps(report)


def test_trace_and_instance_documents():
    instance = overhead_parallel(4, Fraction(1, 100))
    trace = run_dynamics(instance, instance.profile([(4,)] * 4))
    assert trace.steps
    asymmetric = random_asymmetric(7, 3, "mixed")
    for doc in (
        trace_to_document(trace, instance),
        instance_to_document(asymmetric, recipe={"kind": "random-asymmetric", "seed": 7, "n": 3}),
    ):
        assert canonical_json(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: [1]}}, {"a": 1, 2: 3}, [{(1, 2): True}]])
def test_a_key_that_is_not_a_string_raises_type_error(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)


@pytest.mark.parametrize("value", [Fraction(1, 2), {"a": [object()]}, [{1, 2}], b"bytes"])
def test_a_value_json_cannot_write_raises_type_error(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_a_cycle_raises_value_error_as_in_json():
    loop = [1]
    loop.append({"back": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        json.dumps(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_json(loop)
    shared = [1, 2]
    assert canonical_json([[shared], {"a": [shared]}]) == dumps([[shared], {"a": [shared]}])


def test_deep_nesting_is_written_without_recursion():
    depth = 5000
    value = []
    for _ in range(depth):
        value = [value]
    text = canonical_json(value)
    # line by line, to hold no second copy of the 50 MB text
    opening = ("  " * i + "[\n" for i in range(depth))
    closing = ("  " * i + "]\n" for i in reversed(range(depth)))
    at = 0
    for line in chain(opening, ["  " * depth + "[]\n"], closing):
        assert text.startswith(line, at)
        at += len(line)
    assert at == len(text)
