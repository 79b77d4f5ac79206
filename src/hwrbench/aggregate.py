"""Column aggregation: mean/median rows, breakthrough counts, leaders.

A MetricColumn holds one algorithm's values for one metric kind across
the 57 games; games absent from the mapping are N/A in the source data
and are excluded from every statistic, with coverage reported alongside.
The statistics themselves work on plain float lists (``summarize``,
``leaders``), which is what the evaluation core passes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from hwrbench.errors import ValidationError
from hwrbench.games import CANONICAL_GAMES, _CANONICAL_SET
from hwrbench.metrics import (
    EfficiencyValue,
    MetricKind,
    MetricValue,
    learning_efficiency,
)


@dataclass(frozen=True)
class MetricColumn:
    """One algorithm's per-game values for a single metric kind."""

    algorithm: str
    kind: MetricKind
    entries: dict[str, MetricValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for game, value in self.entries.items():
            if game not in _CANONICAL_SET:
                raise ValidationError(f"{self.algorithm}: unknown game {game!r}")
            if value.kind is not self.kind:
                raise ValidationError(
                    f"{self.algorithm}/{game}: {value.kind.value} entry in a "
                    f"{self.kind.value} column")
        modes = {v.cap_mode for v in self.entries.values()}
        if len(modes) > 1:
            raise ValidationError(f"{self.algorithm}: mixed cap modes {modes}")

    @property
    def values(self) -> list[float]:
        return [self.entries[g].value for g in CANONICAL_GAMES if g in self.entries]


@dataclass(frozen=True)
class AggregateRow:
    """The summary row printed under a score table column."""

    mean: float
    median: float
    coverage: int
    efficiency_mean: EfficiencyValue
    efficiency_median: EfficiencyValue
    hwrb_count: int | None = None  # hwrns columns only


def fmean(values) -> float:
    """Arithmetic mean, as ``statistics.fmean`` computes it: fsum over count."""
    return math.fsum(values) / len(values)


def median(values) -> float:
    """Middle order statistic; even counts take the midpoint of the two middles."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def breakthroughs(values) -> int:
    """Number of HWRNS values at or beyond the world record (>= 1, inclusive)."""
    return sum(1 for v in values if v >= 1.0)


def leaders(scores: dict[str, float]) -> list[str]:
    """All names attaining the maximum score, sorted."""
    best = max(scores.values())
    return sorted(a for a, v in scores.items() if v == best)


def summarize(values, frames: int, kind: MetricKind) -> AggregateRow:
    """The aggregate row of one column's present values (nonempty)."""
    mean, middle = fmean(values), median(values)
    return AggregateRow(
        mean=mean,
        median=middle,
        coverage=len(values),
        efficiency_mean=learning_efficiency(mean, frames),
        efficiency_median=learning_efficiency(middle, frames),
        hwrb_count=breakthroughs(values) if kind is MetricKind.HWRNS else None,
    )


def _present(column: MetricColumn) -> list[float]:
    values = column.values
    if not values:
        raise ValidationError(f"{column.algorithm}: empty column")
    return values


def mean_metric(column: MetricColumn) -> tuple[float, int]:
    """Arithmetic mean over present entries, with the coverage count."""
    values = _present(column)
    return fmean(values), len(values)


def median_metric(column: MetricColumn) -> float:
    """Middle order statistic over present entries."""
    return median(_present(column))


def hwrb_count(column: MetricColumn) -> int:
    """Number of present games at or beyond the world record."""
    if column.kind is not MetricKind.HWRNS:
        raise ValidationError(
            f"breakthrough count requires an hwrns column, got {column.kind.value}")
    return breakthroughs(column.values)


def per_game_leader(columns: list[MetricColumn], game: str) -> list[str]:
    """All algorithms attaining the game's maximum value, sorted by name."""
    kinds = {c.kind for c in columns}
    if len(kinds) > 1:
        raise ValidationError(f"leader comparison across metric kinds: {kinds}")
    present = {c.algorithm: c.entries[game].value for c in columns if game in c.entries}
    if not present:
        raise ValidationError(f"{game}: absent from every column")
    return leaders(present)


def aggregate(column: MetricColumn, frames: int) -> AggregateRow:
    """Mean, median, coverage, efficiencies, and (for hwrns) the HWRB count."""
    return summarize(_present(column), frames, column.kind)
