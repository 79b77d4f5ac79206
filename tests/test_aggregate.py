import random
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwrbench.aggregate import MetricColumn, aggregate, breakthroughs, fmean, leaders, median
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
        col = column({"alien": 1.0, "pong": 3.0})
        assert (fmean(col.values), len(col.values)) == (2.0, 2)

    def test_single_entry_identity(self):
        assert fmean([5.0]) == 5.0

    def test_empty_column_rejected(self):
        # An empty column has no mean; it is never read as 0.
        with pytest.raises(ZeroDivisionError):
            fmean([])


class TestMedian:
    def test_even_count_midpoint(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_single_entry_identity(self):
        assert median([5.0]) == 5.0

    def test_within_value_bounds(self):
        values = [1.0, 9.0, 4.0]
        assert min(values) <= median(values) <= max(values)
        assert min(values) <= fmean(values) <= max(values)


class TestHwrbCount:
    def test_inclusive_boundary(self):
        assert breakthroughs([0.5, 1.0, 1.5]) == 2

    def test_monotone_in_any_single_entry(self):
        base = [0.5, 0.99, 1.2]
        before = breakthroughs(base)
        for i in range(len(base)):
            bumped = list(base)
            bumped[i] += 1.0
            assert breakthroughs(bumped) >= before


class TestLeaders:
    def test_ties_return_all(self):
        assert leaders({"A": 1.0, "B": 1.0, "C": 0.5}) == ["A", "B"]

    def test_boxing_tie_between_laser_and_gdi(self):
        scores = {"Rainbow": 8.2917, "LASER": 8.325, "GDI-H3": 8.325}
        assert leaders(scores) == ["GDI-H3", "LASER"]

    def test_single_column(self):
        assert leaders({"A": 1.0}) == ["A"]

    def test_absent_everywhere_rejected(self):
        # A game no algorithm reports has no leader set, not an empty one.
        with pytest.raises(ValueError):
            leaders({})

    def test_invariant_under_increasing_transform(self):
        raws = {"A": 120.0, "B": 450.0, "C": 450.0}
        # per-game normalization is strictly increasing affine
        normalized = {a: (v - 227.8) / 6900.0 for a, v in raws.items()}
        assert leaders(raws) == leaders(normalized) == ["B", "C"]


class TestAggregate:
    def test_rainbow_shaped_row(self):
        games = CANONICAL_GAMES[:3]
        col = column(dict(zip(games, [8.0, 9.0, 10.0])))
        row = aggregate(col, 200_000_000)
        assert row.mean == 9.0
        assert row.median == 9.0
        assert row.coverage == 3
        assert row.efficiency_mean == pytest.approx(4.5e-8)
        assert row.efficiency_median == pytest.approx(4.5e-8)
        assert row.hwrb_count is None

    def test_hwrns_row_counts_breakthroughs(self):
        col = hwrns_column({"alien": 1.26, "pong": 0.4})
        row = aggregate(col, 100_000_000_000)
        assert row.hwrb_count == 1
        assert row.efficiency_mean == pytest.approx(0.83 / 1e11)

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
    row = aggregate(column(dict(zip(games, values))), 1)
    shuffled = aggregate(column(dict(zip(reversed(games), values))), 1)
    assert row.mean == pytest.approx(shuffled.mean)
    assert row.median == pytest.approx(shuffled.median)


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

        row = aggregate(col, 1)
        assert row.median == pytest.approx(oracle_median)
        assert row.hwrb_count == oracle_count
        assert row.mean == pytest.approx(statistics.fmean(values))


@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60))
def test_float_helpers_match_statistics(values):
    assert repr(fmean(values)) == repr(statistics.fmean(values))
    assert repr(median(values)) == repr(statistics.median(values))
