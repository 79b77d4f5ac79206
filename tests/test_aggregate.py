import random
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwrbench.aggregate import (
    MetricColumn,
    aggregate,
    fmean,
    hwrb_count,
    mean_metric,
    median,
    median_metric,
    per_game_leader,
)
from hwrbench.errors import ValidationError
from hwrbench.games import CANONICAL_GAMES
from hwrbench.metrics import MetricKind, MetricValue


def column(values: dict[str, float], kind=MetricKind.HNS, algorithm="algo"):
    return MetricColumn(
        algorithm, kind,
        {g: MetricValue(v, kind) for g, v in values.items()})


def hwrns_column(values: dict[str, float], algorithm="algo"):
    return column(values, MetricKind.HWRNS, algorithm)


class TestMean:
    def test_absent_entries_excluded(self):
        mean, coverage = mean_metric(column({"alien": 1.0, "pong": 3.0}))
        assert (mean, coverage) == (2.0, 2)

    def test_single_entry_identity(self):
        assert mean_metric(column({"alien": 5.0})) == (5.0, 1)

    def test_empty_column_rejected(self):
        with pytest.raises(ValidationError):
            mean_metric(column({}))


class TestMedian:
    def test_even_count_midpoint(self):
        games = CANONICAL_GAMES[:4]
        col = column(dict(zip(games, [1.0, 2.0, 3.0, 4.0])))
        assert median_metric(col) == 2.5

    def test_single_entry_identity(self):
        assert median_metric(column({"alien": 5.0})) == 5.0

    def test_within_value_bounds(self):
        col = column({"alien": 1.0, "pong": 9.0, "boxing": 4.0})
        med = median_metric(col)
        mean, _ = mean_metric(col)
        assert min(col.values) <= med <= max(col.values)
        assert min(col.values) <= mean <= max(col.values)


class TestHwrbCount:
    def test_inclusive_boundary(self):
        col = hwrns_column({"alien": 0.5, "pong": 1.0, "boxing": 1.5})
        assert hwrb_count(col) == 2

    def test_requires_hwrns_kind(self):
        with pytest.raises(ValidationError):
            hwrb_count(column({"alien": 1.0}, MetricKind.HNS))

    def test_monotone_in_any_single_entry(self):
        base = {"alien": 0.5, "pong": 0.99, "boxing": 1.2}
        before = hwrb_count(hwrns_column(base))
        for game in base:
            bumped = dict(base)
            bumped[game] = bumped[game] + 1.0
            assert hwrb_count(hwrns_column(bumped)) >= before


class TestLeaders:
    def test_ties_return_all(self):
        cols = [hwrns_column({"alien": 1.0}, "A"),
                hwrns_column({"alien": 1.0}, "B"),
                hwrns_column({"alien": 0.5}, "C")]
        assert per_game_leader(cols, "alien") == ["A", "B"]

    def test_boxing_tie_between_laser_and_gdi(self):
        cols = [column({"boxing": 8.2917}, algorithm="Rainbow"),
                column({"boxing": 8.325}, algorithm="LASER"),
                column({"boxing": 8.325}, algorithm="GDI-H3")]
        assert per_game_leader(cols, "boxing") == ["GDI-H3", "LASER"]

    def test_single_column(self):
        assert per_game_leader([column({"pong": 1.0}, algorithm="A")], "pong") == ["A"]

    def test_absent_everywhere_rejected(self):
        with pytest.raises(ValidationError):
            per_game_leader([column({"pong": 1.0})], "alien")

    def test_invariant_under_increasing_transform(self):
        raws = {"A": 120.0, "B": 450.0, "C": 450.0}
        raw_cols = [column({"alien": v}, MetricKind.RAW, a) for a, v in raws.items()]
        # per-game normalization is strictly increasing affine
        norm_cols = [column({"alien": (v - 227.8) / 6900.0}, MetricKind.HNS, a)
                     for a, v in raws.items()]
        assert (per_game_leader(raw_cols, "alien")
                == per_game_leader(norm_cols, "alien") == ["B", "C"])


class TestAggregate:
    def test_rainbow_shaped_row(self):
        games = CANONICAL_GAMES[:3]
        col = column(dict(zip(games, [8.0, 9.0, 10.0])))
        row = aggregate(col, 200_000_000)
        assert row.mean == 9.0
        assert row.median == 9.0
        assert row.coverage == 3
        assert row.efficiency_mean.value == pytest.approx(4.5e-8)
        assert row.efficiency_median.value == pytest.approx(4.5e-8)
        assert row.hwrb_count is None

    def test_hwrns_row_counts_breakthroughs(self):
        col = hwrns_column({"alien": 1.26, "pong": 0.4})
        row = aggregate(col, 100_000_000_000)
        assert row.hwrb_count == 1
        assert row.efficiency_mean.value == pytest.approx(0.83 / 1e11)

    def test_empty_column_rejected(self):
        with pytest.raises(ValidationError):
            aggregate(column({}), 1)


class TestColumnValidation:
    def test_unknown_game_rejected(self):
        with pytest.raises(ValidationError):
            column({"not a game": 1.0})

    def test_mixed_kind_rejected(self):
        with pytest.raises(ValidationError):
            MetricColumn("a", MetricKind.HNS,
                         {"alien": MetricValue(1.0, MetricKind.HWRNS)})


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=1, max_size=57))
def test_permutation_invariance(values):
    games = list(CANONICAL_GAMES[:len(values)])
    col = column(dict(zip(games, values)))
    shuffled = column(dict(zip(reversed(games), values)))
    assert mean_metric(col)[0] == pytest.approx(mean_metric(shuffled)[0])
    assert median_metric(col) == pytest.approx(median_metric(shuffled))


def test_bruteforce_oracle_equivalence_small_columns():
    # sort/scan oracle over 1000 random columns of size <= 12
    rng = random.Random(20210814)
    for _ in range(1000):
        size = rng.randint(1, 12)
        games = rng.sample(CANONICAL_GAMES, size)
        values = [round(rng.uniform(-2, 3), 6) for _ in range(size)]
        col = hwrns_column(dict(zip(games, values)))

        ordered = sorted(values)
        n = len(ordered)
        if n % 2:
            oracle_median = ordered[n // 2]
        else:
            oracle_median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
        oracle_count = sum(1 for v in values if v >= 1.0)

        assert median_metric(col) == pytest.approx(oracle_median)
        assert hwrb_count(col) == oracle_count
        assert mean_metric(col)[0] == pytest.approx(statistics.fmean(values))


@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60))
def test_float_helpers_match_statistics(values):
    assert repr(fmean(values)) == repr(statistics.fmean(values))
    assert repr(median(values)) == repr(statistics.median(values))
