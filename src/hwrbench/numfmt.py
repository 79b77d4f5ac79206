"""Number formatting shared by the registry, renderers, and the CLI.

Scores are kept as floats internally; the text forms below are the
canonical serializations (integral values print without a decimal point,
percents print with two half-up-rounded decimals, efficiencies in
two-digit scientific notation).

``format_percent`` remembers the text of each distinct ratio, up to
``MEMO_VALUES`` values per process, so a table that prints the same
ratio many times rounds it once. A zero ratio is never remembered:
``0.0 == -0.0``, yet they print as ``0.00`` and ``-0.00``.

``json_text`` and ``json_string`` write every JSON document and string the
package prints or saves, as ``json.dumps`` writes them, without importing
``json`` unless a string needs escaping.
"""

from __future__ import annotations

import math

MEMO_VALUES = 4096  # distinct values formatted once per process; a miss formats in full

_PERCENTS: dict[float, str] = {}


def round_half_up(value: float) -> float:
    """Round the digits ``repr`` prints to two places, half away from zero (2.675 -> 2.68).

    Keeps the sign (-0.001 -> -0.0). Non-finite values, and values of 1e16
    or more, which are integral, come back unchanged.
    """
    text = repr(value)
    if "e" in text or "n" in text:  # exponent form, inf or nan
        if "n" in text or "+" in text:
            return value
        return math.copysign(0.0, value)  # below 1e-4, so it rounds to zero
    point = text.index(".")
    cut = point + 3
    if len(text) <= cut:
        return value
    if text[cut] < "5":  # the kept digits are the result
        return float(text[:cut])
    negative = text[0] == "-"
    rounded = (int(text[negative:point] + text[point + 1:cut]) + 1) / 100
    return -rounded if negative else rounded


def format_number(value: float) -> str:
    """Shortest faithful text for a score: no trailing '.0' on integers."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def format_percent(ratio: float) -> str:
    """Render a dimensionless ratio as a percent string (1.3426 -> '134.26')."""
    text = _PERCENTS.get(ratio)
    if text is None:
        text = f"{round_half_up(ratio * 100.0):.2f}"
        if ratio and len(_PERCENTS) < MEMO_VALUES:
            _PERCENTS[ratio] = text
    return text


def format_efficiency(value: float) -> str:
    """Scientific notation with three significant figures ('4.37E-08')."""
    return f"{value:.2E}"


def scale_label_for(frames: int) -> str:
    """Compact training-scale label: 200000000 -> '200M'."""
    for unit, width in (("B", 10 ** 9), ("M", 10 ** 6), ("K", 10 ** 3)):
        if frames >= width and frames % width == 0:
            return f"{frames // width}{unit}"
        if frames >= width:
            return f"{frames / width:g}{unit}"
    return str(frames)


def parse_frames(text: str) -> int:
    """Parse a frame count; accepts scientific notation but requires a positive integral value."""
    value = float(text)
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"frame count must be integral: {text!r}")
    if value < 1:
        raise ValueError(f"frames must be positive: {int(value)}")
    return int(value)


def json_string(text: str) -> str:
    """``text`` as a JSON string, escaped as ``json.dumps`` escapes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def json_text(value, sort_keys: bool = False) -> str:
    """What ``json.dumps(value, indent=2, sort_keys=sort_keys)`` writes.

    Dict keys must be str. A value of any type but dict, list, tuple, str,
    int, float and None is a TypeError.
    """
    return _json(value, sort_keys, "\n")


def _json(value, sort_keys: bool, pad: str) -> str:
    """``value`` as JSON; ``pad`` starts each line of its closing bracket."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, str):
        return json_string(value)
    if isinstance(value, int):
        return "true" if value is True else "false" if value is False else int.__repr__(value)
    if value is None:
        return "null"
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items = [_json(item, sort_keys, inner) for item in value]
        brackets = "[]"
    elif isinstance(value, dict):
        items = [json_string(key) + ": " + _json(item, sort_keys, inner)
                 for key, item in (sorted(value.items()) if sort_keys else value.items())]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]
