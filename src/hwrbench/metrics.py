"""Pure scoring kernel: normalizations, caps, breakthrough test, game time.

``cell_ratios`` is the float kernel every verb calls. ``hns``, ``hwrns``,
``chns`` and ``saber`` are the checked library API: the same rules,
returning ``MetricValue``s. Every function is a pure function of its
arguments. Values are ratios (1.0 means 100%); percent strings are the
presentation layer's job.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from hwrbench.errors import ValidationError
from hwrbench.games import BaselineRecord

# 108000 frames per half hour of play at 60 fps; a day is 48 half hours.
FRAMES_PER_DAY = 108000 * 2 * 24


class MetricKind(str, Enum):
    HNS = "hns"
    CHNS = "chns"
    HWRNS = "hwrns"
    SABER = "saber"


# The normalized metrics, in table and report order.
METRIC_KINDS = tuple(MetricKind)


class CapMode(str, Enum):
    """How SABER treats values outside [0, 2].

    SPEC_FLOOR clamps to [0, 2]. TABLE_COMPAT applies only the upper cap,
    letting negative scores through; it exists to reproduce reference
    tables that print negative capped cells.
    """

    SPEC_FLOOR = "spec-floor"
    TABLE_COMPAT = "table-compat"


class MetricValue(namedtuple("MetricValue", "value kind cap_mode")):
    """A normalized score ratio tagged with its kind and cap mode."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` checks too

    def __new__(cls, value: float, kind: MetricKind, cap_mode: CapMode | None = None):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite {kind.value} value: {value}")
        if kind is MetricKind.CHNS and not 0.0 <= value <= 1.0:
            raise ValidationError(f"chns value outside [0, 1]: {value}")
        if kind is MetricKind.SABER:
            if cap_mode is None:
                raise ValidationError("saber value requires a cap_mode")
            if value > 2.0:
                raise ValidationError(f"saber value above cap: {value}")
            if cap_mode is CapMode.SPEC_FLOOR and value < 0.0:
                raise ValidationError(f"spec-floor saber value below 0: {value}")
        return tuple.__new__(cls, (value, kind, cap_mode))


def normalize(raw: float, base: float, reference: float) -> float:
    """(raw - base) / (reference - base), uncapped.

    May be negative or exceed 1. A degenerate pair (reference == base)
    is an error, never an infinity.
    """
    denom = reference - base
    if denom == 0.0:
        raise ValidationError(f"degenerate normalization: reference == base == {base}")
    return (raw - base) / denom


def hns(raw: float, baseline: BaselineRecord) -> MetricValue:
    """Human-average-normalized score: 0 at random play, 1 at human average."""
    return MetricValue(
        normalize(raw, baseline.random, baseline.human_average), MetricKind.HNS)


def hwrns(raw: float, baseline: BaselineRecord) -> MetricValue:
    """World-record-normalized score: 0 at random play, 1 at the record."""
    return MetricValue(
        normalize(raw, baseline.random, baseline.human_world_record), MetricKind.HWRNS)


def chns(value: MetricValue) -> MetricValue:
    """Clamp an HNS value to [0, 1]. Idempotent."""
    if value.kind not in (MetricKind.HNS, MetricKind.CHNS):
        raise ValidationError(f"chns expects an hns value, got {value.kind.value}")
    return MetricValue(min(max(value.value, 0.0), 1.0), MetricKind.CHNS)


def saber(value: MetricValue, mode: CapMode) -> MetricValue:
    """Cap an HWRNS value at 2, flooring at 0 only in SPEC_FLOOR mode. Idempotent."""
    if value.kind not in (MetricKind.HWRNS, MetricKind.SABER):
        raise ValidationError(f"saber expects an hwrns value, got {value.kind.value}")
    capped = min(value.value, 2.0)
    if mode is CapMode.SPEC_FLOOR:
        capped = max(capped, 0.0)
    return MetricValue(capped, MetricKind.SABER, cap_mode=mode)


def cell_ratios(raw: float, baseline: BaselineRecord, cap_mode: CapMode,
                where: str) -> tuple[float, float, float, float]:
    """HNS, CHNS, HWRNS and SABER of one raw score, in ``METRIC_KINDS`` order.

    A ratio whose percent (what a table prints) is not finite raises
    ValidationError naming ``where``; below that, a column of 57 cells sums finitely.
    """
    h = normalize(raw, baseline.random, baseline.human_average)
    w = normalize(raw, baseline.random, baseline.human_world_record)
    if not (math.isfinite(h * 100.0) and math.isfinite(w * 100.0)):
        what = "normalized score overflows" if math.isfinite(raw) else "non-finite score"
        raise ValidationError(f"{where}: {what}")
    s = min(w, 2.0)
    return h, min(max(h, 0.0), 1.0), w, max(s, 0.0) if cap_mode is CapMode.SPEC_FLOOR else s


def hwrb_indicator(hwrns_ratio: float) -> bool:
    """True when the world record is matched or beaten (HWRNS >= 1, inclusive)."""
    return hwrns_ratio >= 1.0


def game_time_days(frames: float) -> float:
    """Days of real-time play represented by an environment-frame count."""
    if frames < 0:
        raise ValidationError(f"frames must be nonnegative: {frames}")
    return frames / FRAMES_PER_DAY


def learning_efficiency(metric_ratio: float, frames: int) -> float:
    """Metric ratio per training frame (mean HNS 873.97% enters as 8.7397)."""
    if frames <= 0:
        raise ValidationError(f"frames must be positive: {frames}")
    return metric_ratio / frames
