"""``round_half_up`` against the ``Decimal`` rounding it replaced, the
percent memo against the formula it remembers, and ``json_text`` against
``json.dumps``."""

import json
import math
import re
from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Decimal
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hwrbench import numfmt
from hwrbench.numfmt import (
    format_number,
    format_percent,
    json_text,
    parse_frames,
    round_half_up,
)


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


def percent_formula(ratio: float) -> str:
    return f"{round_half_up(ratio * 100.0):.2f}"


def number_formula(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def outcome(function, value):
    """The text ``function`` gives for ``value``, or the type and words it raises."""
    try:
        return function(value)
    except Exception as exc:  # noqa: BLE001 - raised and expected alike are compared
        return type(exc), str(exc)


@contextmanager
def empty_memos():
    with patch.dict(numfmt._PERCENTS, clear=True):
        yield


EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 1e15, -1e15, 1e16, -1e16, 1e300, 0.02675, -0.00005]
floats = st.one_of(st.floats(), st.sampled_from(EDGES),
                   st.floats(min_value=1e16).flatmap(lambda v: st.sampled_from([v, -v])),
                   st.floats(-1e-300, 1e-300))  # subnormals among them
# A small pool, drawn from in any order and with repeats.
streams = st.lists(floats, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40))


@given(streams)
@example([0.0, -0.0, 0.0])
@example([-0.0, 0.0, -0.0])
@example([math.nan, math.nan, 1.0, 1.0])
@example([1e15, 1e16, 1e15, 1e16])
@example([1e15, 10 ** 15, 1e15])  # equal and hashed alike, yet only the float prints '.0'
def test_memoised_text_equals_the_formula(values):
    with empty_memos():
        for value in values:
            assert outcome(format_percent, value) == outcome(percent_formula, value)
            assert outcome(format_number, value) == outcome(number_formula, value)
            text = format_percent(value)
            assert repr(float(text)) == repr(round_half_up(value * 100.0))


def test_memo_stops_growing_at_its_cap():
    values = [i / 7 for i in range(1, numfmt.MEMO_VALUES + 100)]
    with empty_memos():
        for value in values + values:
            assert format_percent(value) == percent_formula(value)
        assert len(numfmt._PERCENTS) == numfmt.MEMO_VALUES


@pytest.mark.parametrize("text, message", [
    ("0", "frames must be positive: 0"), ("-0", "frames must be positive: 0"),
    ("-5", "frames must be positive: -5"), ("0e3", "frames must be positive: 0"),
    ("0.5", "frame count must be integral: '0.5'"),  # integrality is checked first
])
def test_parse_frames_rejects_a_count_below_1(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_frames(text)


# Leaves of every kind ``json.dumps`` writes: strings of any code point
# (surrogates, control characters, '"', '\\' and DEL among them), and
# floats that print apart from ``repr``.
json_leaves = st.one_of(
    st.text(st.characters(codec=None, exclude_categories=())),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x7F)),
    st.sampled_from(['"', "\\", "\x7f", "\ud800", "\udfff", "\x00", "\u2028", "é"]),
    st.integers(), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]),
)
json_values = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), inner, max_size=4),
), max_leaves=30)


@given(json_values, st.booleans())
@example([0.0, -0.0, 0.0, {"-0.0": -0.0}], False)
@example([1e15, 10 ** 15, True, 1.0, 1], True)  # equal and hashed alike, yet printed apart
def test_json_text_writes_what_json_dumps_writes(value, sort_keys):
    assert json_text(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", [{"a": frozenset()}], {"a": bytearray()}],
                         ids=["set", "bytes", "nested-set", "nested-bytearray"])
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        json_text(value)
