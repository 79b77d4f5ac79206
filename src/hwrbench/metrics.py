"""Pure scoring kernel: normalizations, caps, breakthrough test, game time.

Every function here is a deterministic function of its arguments with no
shared state. Values are dimensionless ratios (1.0 means 100%); turning
them into percent strings is the presentation layer's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
METRIC_KINDS = (MetricKind.HNS, MetricKind.CHNS, MetricKind.HWRNS, MetricKind.SABER)


class CapMode(str, Enum):
    """How SABER treats values outside [0, 2].

    SPEC_FLOOR clamps to [0, 2]. TABLE_COMPAT applies only the upper cap,
    letting negative scores through; it exists to reproduce reference
    tables that print negative capped cells.
    """

    SPEC_FLOOR = "spec-floor"
    TABLE_COMPAT = "table-compat"


@dataclass(frozen=True)
class MetricValue:
    """A normalized score ratio tagged with its kind and cap mode."""

    value: float
    kind: MetricKind
    cap_mode: CapMode | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValidationError(f"non-finite {self.kind.value} value: {self.value}")
        if self.kind is MetricKind.CHNS and not 0.0 <= self.value <= 1.0:
            raise ValidationError(f"chns value outside [0, 1]: {self.value}")
        if self.kind is MetricKind.SABER:
            if self.cap_mode is None:
                raise ValidationError("saber value requires a cap_mode")
            if self.value > 2.0:
                raise ValidationError(f"saber value above cap: {self.value}")
            if self.cap_mode is CapMode.SPEC_FLOOR and self.value < 0.0:
                raise ValidationError(f"spec-floor saber value below 0: {self.value}")


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


def hwrb_indicator(value: MetricValue) -> bool:
    """True when the world record is matched or beaten (HWRNS >= 1, inclusive)."""
    if value.kind is not MetricKind.HWRNS:
        raise ValidationError(
            f"breakthrough test expects an hwrns value, got {value.kind.value}")
    return value.value >= 1.0


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
