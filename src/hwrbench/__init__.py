"""Human-world-record benchmark evaluation for Atari game scores.

Normalizes raw game scores against random, human-average, and
human-world-record baselines, aggregates them into leaderboard rows,
checks episode logs against the benchmark protocol, and reproduces the
bundled reference score tables.
"""

from hwrbench.errors import (
    BenchmarkError,
    DatasetError,
    MalformedLogError,
    UnknownGameError,
    ValidationError,
)
from hwrbench.games import BaselineRecord, BaselineRegistry, canonical_game
from hwrbench.metrics import (
    CapMode,
    EfficiencyValue,
    MetricKind,
    MetricValue,
    chns,
    game_time_days,
    hns,
    hwrb_indicator,
    hwrns,
    learning_efficiency,
    normalize,
    saber,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineRecord",
    "BaselineRegistry",
    "BenchmarkError",
    "CapMode",
    "DatasetError",
    "EfficiencyValue",
    "MalformedLogError",
    "MetricKind",
    "MetricValue",
    "UnknownGameError",
    "ValidationError",
    "canonical_game",
    "chns",
    "game_time_days",
    "hns",
    "hwrb_indicator",
    "hwrns",
    "learning_efficiency",
    "normalize",
    "saber",
]
