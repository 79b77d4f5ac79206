"""The public value types: immutable named tuples; those that check their fields do so
however they are built."""

import math

import pytest

from hwrbench import aggregate, datasets, games, metrics, protocol, report, reproduce
from hwrbench.aggregate import AggregateRow, MetricColumn
from hwrbench.datasets import Dataset, RunRecord
from hwrbench.errors import ValidationError
from hwrbench.games import BaselineRecord
from hwrbench.metrics import CapMode, MetricKind, MetricValue
from hwrbench.protocol import (
    ConformanceVerdict,
    EpisodeSummary,
    RunLedger,
    StepEvent,
    TrainingScore,
    Violation,
)
from hwrbench.report import CellMetrics, EvaluationReport, PlotSeries, TableLayout
from hwrbench.reproduce import Inconsistency, ReproductionResult, TableStats

HNS = MetricValue(1.5, MetricKind.HNS)

# One valid instance of every public value type.
VALUES = [
    BaselineRecord("pong", -20.7, 14.6, 21.0),
    HNS,
    RunRecord("A", "pong", 1.0, 100),
    Dataset("d", (RunRecord("A", "pong", 1.0, 100),)),
    MetricColumn("A", MetricKind.HNS, {"pong": HNS}),
    AggregateRow(1.5, 1.5, 1, 0.015, 0.015),
    CellMetrics(1.0, {MetricKind.HNS: 1.5}),
    EvaluationReport(CapMode.SPEC_FLOOR, "", (), {}, {}, {}, {}, {}),
    TableLayout(MetricKind.HNS, ("A",)),
    PlotSeries("s", ((1.0, 2.0),), ("A",)),
    Inconsistency("t", "A", "pong", "value", "1.00", "2.00"),
    TableStats("t", 2, 1),
    ReproductionResult(None, {}, [], [], {}, {}),
    StepEvent(1.0, 3, False, 4),
    EpisodeSummary(1.0, 4, "game_over"),
    Violation("budget_exceeded", "detail"),
    ConformanceVerdict(True, ()),
    RunLedger((), 0),
    TrainingScore([1.0], 1.0),
]


def test_every_public_value_type_is_listed():
    modules = (aggregate, datasets, games, metrics, protocol, report, reproduce)
    found = {obj for module in modules for obj in vars(module).values()
             if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")}
    assert found == {type(v) for v in VALUES}


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_refuses_attribute_assignment(value):
    name = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == tuple(value)
    assert list(value._asdict()) == list(value._fields)


def test_plain_types_keep_their_defaults():
    # Checked where their data enters (load_dataset, ledger_from_log, _series).
    assert RunLedger((), 0).averaging_k == 1
    assert PlotSeries("s", (), ()).flagged == ()


# (type, valid fields in order, the fields that break it, the error)
CHECKED = [
    (MetricValue, {"value": 1.5, "kind": MetricKind.HNS, "cap_mode": None},
     {"value": math.nan}, "non-finite hns value"),
    (MetricValue, {"value": 1.5, "kind": MetricKind.SABER, "cap_mode": CapMode.SPEC_FLOOR},
     {"value": 2.5}, "saber value above cap"),
    (MetricValue, {"value": 1.5, "kind": MetricKind.SABER, "cap_mode": CapMode.SPEC_FLOOR},
     {"cap_mode": None}, "saber value requires a cap_mode"),
    (MetricColumn, {"algorithm": "A", "kind": MetricKind.HNS, "entries": {"pong": HNS}},
     {"entries": {"nope": HNS}}, "unknown game 'nope'"),
    (MetricColumn, {"algorithm": "A", "kind": MetricKind.HNS, "entries": {"pong": HNS}},
     {"kind": MetricKind.HWRNS}, "hns entry in a hwrns column"),
    (StepEvent, {"reward": 1.0, "lives": 3, "game_over": False, "env_frames": 4},
     {"env_frames": 0}, "env_frames must be >= 1"),
    (StepEvent, {"reward": 1.0, "lives": 3, "game_over": False, "env_frames": 4},
     {"lives": -1}, "lives must be nonnegative"),
]


@pytest.mark.parametrize("cls, fields, bad, match", CHECKED,
                         ids=[f"{c.__name__}-{next(iter(b))}" for c, _, b, _ in CHECKED])
def test_checks_run_however_the_value_is_built(cls, fields, bad, match):
    assert tuple(cls(*fields.values())) == tuple(cls(**fields)) == tuple(fields.values())
    broken = {**fields, **bad}
    with pytest.raises(ValidationError, match=match):
        cls(*broken.values())
    with pytest.raises(ValidationError, match=match):
        cls(**broken)
    with pytest.raises(ValidationError, match=match):
        cls(**fields)._replace(**bad)
