import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwrbench.errors import ValidationError
from hwrbench.games import BaselineRecord, BaselineRegistry
from hwrbench.metrics import (
    FRAMES_PER_DAY,
    CapMode,
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

ALIEN = BaselineRecord("alien", 227.8, 7127.8, 251916)
BOXING = BaselineRecord("boxing", 0.1, 12.1, 100)
SEAQUEST = BaselineRecord("seaquest", 68.4, 42054.7, 999999)
SKIING = BaselineRecord("skiing", -17098, -4336.9, -3272)
MONTEZUMA = BaselineRecord("montezuma revenge", 0, 4753.3, 1219200)

finite_scores = st.floats(min_value=-1e6, max_value=1e7,
                          allow_nan=False, allow_infinity=False)


class TestNormalize:
    def test_alien_hns_ratio(self):
        assert normalize(9491.7, 227.8, 7127.8) == pytest.approx(1.3426, abs=5e-5)

    def test_anchor_at_base(self):
        assert normalize(227.8, 227.8, 7127.8) == 0.0

    def test_boxing_ratio(self):
        assert normalize(100, 0.1, 12.1) == pytest.approx(8.3250, abs=5e-5)

    def test_degenerate_denominator_raises(self):
        with pytest.raises(ValidationError):
            normalize(1.0, 5.0, 5.0)


class TestHns:
    def test_gdi_seaquest(self):
        assert hns(1_000_000, SEAQUEST).value == pytest.approx(23.8157, abs=5e-5)

    def test_human_average_anchor_is_exact(self):
        assert hns(42054.7, SEAQUEST).value == 1.0

    def test_muzero_montezuma_zero(self):
        assert hns(0, MONTEZUMA).value == 0.0


class TestHwrns:
    def test_rainbow_alien(self):
        assert hwrns(9491.7, ALIEN).value == pytest.approx(0.0368, abs=5e-5)

    def test_record_anchor_is_exact(self):
        assert hwrns(251916, ALIEN).value == 1.0

    def test_r2d2_skiing_negative(self):
        assert hwrns(-29970.32, SKIING).value == pytest.approx(-0.9310, abs=5e-5)


class TestCaps:
    def test_chns_clamps(self):
        assert chns(MetricValue(1.3426, MetricKind.HNS)).value == 1.0
        assert chns(MetricValue(-0.05, MetricKind.HNS)).value == 0.0
        assert chns(MetricValue(0.63, MetricKind.HNS)).value == 0.63

    def test_chns_requires_hns(self):
        with pytest.raises(ValidationError):
            chns(MetricValue(0.5, MetricKind.HWRNS))

    def test_saber_impala_star_gunner_upper_cap(self):
        hw = hwrns(200625, BaselineRecord("star gunner", 664, 10250, 77400))
        assert hw.value == pytest.approx(2.6058, abs=5e-5)
        assert saber(hw, CapMode.SPEC_FLOOR).value == 2.0
        assert saber(hw, CapMode.TABLE_COMPAT).value == 2.0

    def test_saber_floor_differs_by_mode(self):
        hw = MetricValue(-0.9310, MetricKind.HWRNS)
        assert saber(hw, CapMode.SPEC_FLOOR).value == 0.0
        assert saber(hw, CapMode.TABLE_COMPAT).value == -0.9310

    def test_saber_requires_hwrns(self):
        with pytest.raises(ValidationError):
            saber(MetricValue(0.5, MetricKind.HNS), CapMode.SPEC_FLOOR)

    @given(finite_scores.map(lambda v: v / 1e4))
    def test_cap_idempotence(self, ratio):
        h = MetricValue(ratio, MetricKind.HNS)
        once = chns(h)
        assert chns(once) == once
        w = MetricValue(ratio, MetricKind.HWRNS)
        for mode in CapMode:
            capped = saber(w, mode)
            assert saber(capped, mode) == capped

    @given(finite_scores.map(lambda v: v / 1e4))
    def test_cap_ranges_and_ordering(self, ratio):
        w = MetricValue(ratio, MetricKind.HWRNS)
        floor = saber(w, CapMode.SPEC_FLOOR)
        compat = saber(w, CapMode.TABLE_COMPAT)
        assert 0.0 <= floor.value <= 2.0
        assert compat.value <= 2.0
        if ratio >= 0:
            assert floor.value == compat.value
        h = chns(MetricValue(ratio, MetricKind.HNS))
        assert 0.0 <= h.value <= 1.0


class TestHwrb:
    @pytest.mark.parametrize("value,expected", [
        (1.0, True),      # inclusive boundary
        (0.9999, False),
        (1.5, True),
    ])
    def test_boundary(self, value, expected):
        assert hwrb_indicator(MetricValue(value, MetricKind.HWRNS)) is expected

    def test_gdi_boxing_breakthrough(self):
        assert hwrb_indicator(hwrns(100, BOXING)) is True

    @given(finite_scores.map(lambda v: v / 1e4))
    def test_matches_bruteforce_definition(self, ratio):
        value = MetricValue(ratio, MetricKind.HWRNS)
        assert hwrb_indicator(value) == (ratio >= 1.0)


class TestGameTime:
    def test_frames_per_day_constant(self):
        assert FRAMES_PER_DAY == 108000 * 2 * 24 == 5_184_000

    def test_200m_frames(self):
        assert game_time_days(200_000_000) == pytest.approx(38.580, abs=5e-4)

    def test_zero(self):
        assert game_time_days(0) == 0.0

    def test_100b_frames_formula_value(self):
        # The formula gives 19290.1 days for 100B frames; prose elsewhere
        # rounds differently, the formula is authoritative here.
        assert game_time_days(100_000_000_000) == pytest.approx(19290.12, abs=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            game_time_days(-1)

    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**12))
    def test_linear(self, a, b):
        assert game_time_days(a + b) == pytest.approx(
            game_time_days(a) + game_time_days(b), rel=1e-12)


class TestLearningEfficiency:
    def test_rainbow_mean_hns(self):
        assert learning_efficiency(8.7397, 200_000_000) == pytest.approx(4.37e-8, rel=1e-3)

    def test_rainbow_mean_hwrns(self):
        assert learning_efficiency(0.2839, 200_000_000) == pytest.approx(1.42e-9, rel=1e-3)

    def test_zero_ratio(self):
        assert learning_efficiency(0.0, 5) == 0.0

    def test_zero_frames_rejected(self):
        with pytest.raises(ValidationError):
            learning_efficiency(1.0, 0)


@pytest.fixture(scope="module")
def registry():
    return BaselineRegistry.load()


class TestInvariants:
    def test_anchor_identities_all_games(self, registry):
        for rec in registry:
            assert hns(rec.random, rec).value == 0.0
            assert hns(rec.human_average, rec).value == 1.0
            assert hwrns(rec.random, rec).value == 0.0
            assert hwrns(rec.human_world_record, rec).value == 1.0

    @given(finite_scores,
           st.floats(min_value=1e-3, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_monotonicity(self, lo, gap):
        hi = lo + gap
        assert hns(lo, ALIEN).value < hns(hi, ALIEN).value
        assert hwrns(lo, ALIEN).value < hwrns(hi, ALIEN).value

    def test_values_never_nan(self):
        with pytest.raises(ValidationError):
            MetricValue(math.nan, MetricKind.HNS)
        with pytest.raises(ValidationError):
            MetricValue(math.inf, MetricKind.HWRNS)

    def test_chns_range_enforced_at_construction(self):
        with pytest.raises(ValidationError):
            MetricValue(1.5, MetricKind.CHNS)
        with pytest.raises(ValidationError):
            MetricValue(-0.5, MetricKind.SABER, CapMode.SPEC_FLOOR)
        # table-compat has no lower bound
        MetricValue(-0.5, MetricKind.SABER, CapMode.TABLE_COMPAT)
