"""The public contract of the value records: immutable NamedTuples with
field defaults, ``_replace`` and a ``Name(field=value, ...)`` repr."""

from fractions import Fraction

import pytest

from csglab.analysis import AnalysisReport, BoundCheck, EquilibriumSet, EquilibriumSummary, RatioValue
from csglab.dynamics import ConstructiveResult, DynamicsStep, DynamicsTrace, RebuildRound
from csglab.flows import Flow, ResidualArc
from csglab.game import CostSharingScheme, Deviation, SchemeProblem
from csglab.graphs import Edge, EdgeLeaf, Parallel, Series
from csglab.verification import CheckRow, SuiteResult

RECORDS = [
    EquilibriumSummary,
    EquilibriumSet,
    RatioValue,
    BoundCheck,
    AnalysisReport,
    DynamicsStep,
    DynamicsTrace,
    RebuildRound,
    ConstructiveResult,
    Flow,
    ResidualArc,
    SchemeProblem,
    CostSharingScheme,
    Deviation,
    Edge,
    CheckRow,
    SuiteResult,
]


def sample(record):
    return record(*(f"v{i}" for i in range(len(record._fields))))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_fields_cannot_be_assigned(record):
    value = sample(record)
    with pytest.raises(AttributeError):
        setattr(value, record._fields[0], "changed")
    assert getattr(value, record._fields[0]) == "v0"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_replace_returns_a_new_record(record):
    value = sample(record)
    field = record._fields[-1]
    changed = value._replace(**{field: "changed"})
    assert type(changed) is record and changed is not value
    assert getattr(changed, field) == "changed"
    assert getattr(value, field) == f"v{len(record._fields) - 1}"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_repr_names_every_field(record):
    fields = ", ".join(f"{name}='v{i}'" for i, name in enumerate(record._fields))
    assert repr(sample(record)) == f"{record.__name__}({fields})"


def test_trailing_defaults():
    assert RatioValue(Fraction(2)).degenerate is False
    assert BoundCheck("Thm5:PoA_sc<=n", "anarchy", Fraction(2), Fraction(1), True).witness is None


def test_scheme_problem_index_is_the_field():
    assert SchemeProblem("2", 3, "below the floor").index == 3


def test_series_and_parallel_stay_distinct():
    a, b = EdgeLeaf(), EdgeLeaf()
    assert Series(a, b) != Parallel(a, b)
    assert Series(a, b) == Series(a, b)
