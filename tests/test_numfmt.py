"""``round_half_up`` against the ``Decimal`` rounding it replaced."""

import math
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hwrbench.numfmt import format_percent, round_half_up


def decimal_round_half_up(value: float) -> float:
    """The reference: quantize the ``repr`` digits to two places with ``ROUND_HALF_UP``."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), ROUND_HALF_UP))


# Decimal's 28-digit context bounds the reference: up to 21 integer digits here.
plain = st.floats(-1e21, 1e21, allow_nan=False)
ties = st.builds(lambda n, d: (10 * n + 5) / 10 ** (d + 1), st.integers(-10**9, 10**9),
                 st.integers(0, 7))  # 0.125, 2.675, -0.005, ...
tiny = st.floats(1e-12, 1e-4, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v]))


@given(st.one_of(plain, ties, tiny, st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e20])))
@example(0.125)
@example(2.675)
@example(-0.005)
@example(-0.001)
@example(1.5e-05)
@example(-9.5e-05)
@example(9.999999999999999e-05)
@example(123456789012345.67)
def test_matches_decimal_quantize(value):
    assert repr(round_half_up(value)) == repr(decimal_round_half_up(value))


@pytest.mark.parametrize("value", [math.inf, -math.inf, 1e26, -1e300])
def test_non_finite_and_huge_values_are_unchanged(value):
    assert round_half_up(value) == value


def test_nan_is_unchanged():
    assert math.isnan(round_half_up(math.nan))


@pytest.mark.parametrize("ratio, text", [
    (1.3426, "134.26"), (0.02675, "2.68"), (-0.00005, "-0.01"), (-0.00001, "-0.00"),
    (0.0, "0.00"), (1e-9, "0.00"), (2.0, "200.00"),
])
def test_format_percent(ratio, text):
    assert format_percent(ratio) == text
