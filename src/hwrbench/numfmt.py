"""Number formatting shared by the registry, renderers, and the CLI.

Scores are kept as floats internally; the text forms below are the
canonical serializations (integral values print without a decimal point,
percents print with two half-up-rounded decimals, efficiencies in
two-digit scientific notation).
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal


def round_half_up(value: float, decimals: int = 2) -> float:
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(quantum, ROUND_HALF_UP))


def format_number(value: float) -> str:
    """Shortest faithful text for a score: no trailing '.0' on integers."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def format_percent(ratio: float, decimals: int = 2) -> str:
    """Render a dimensionless ratio as a percent string (1.3426 -> '134.26')."""
    return f"{round_half_up(ratio * 100.0, decimals):.{decimals}f}"


def format_efficiency(value: float) -> str:
    """Scientific notation with three significant figures ('4.37E-08')."""
    return f"{value:.2E}"


def parse_frames(text: str) -> int:
    """Parse a frame count; accepts scientific notation but requires an integral value."""
    value = float(text)
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"frame count must be integral: {text!r}")
    return int(value)
