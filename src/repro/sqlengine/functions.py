"""Scalar SQL functions for the native engine.

Implements the SQLite-compatible subset that generated TQA queries use.
Aggregates live in :mod:`repro.table.ops`; this module is scalar-only.
"""

from __future__ import annotations

import decimal
import math

from repro.errors import SQLRuntimeError
from repro.table.schema import is_missing

__all__ = ["SCALAR_FUNCTIONS", "call_scalar", "is_aggregate_name",
           "TOTAL_TEXT_FUNCTIONS", "NUMERIC_SAFE_FUNCTIONS"]

#: Names the engine treats as aggregates (dispatched by the executor).
_AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max",
                              "total", "group_concat"})


def is_aggregate_name(name: str) -> bool:
    return name.lower() in _AGGREGATE_NAMES


def _require(args, count, name):
    if len(args) not in (count if isinstance(count, tuple) else (count,)):
        raise SQLRuntimeError(
            f"{name}() expects {count} argument(s), got {len(args)}")


def _fn_abs(args):
    _require(args, 1, "abs")
    value = args[0]
    if is_missing(value):
        return None
    return abs(_as_number(value, "abs"))


def _as_number(value, context):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    try:
        text = str(value).strip().replace(",", "")
        return int(text) if text.lstrip("+-").isdigit() else float(text)
    except ValueError:
        raise SQLRuntimeError(
            f"{context}: cannot use {value!r} as a number") from None


def _as_text(value):
    if is_missing(value):
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _fn_lower(args):
    _require(args, 1, "lower")
    text = _as_text(args[0])
    return None if text is None else text.lower()


def _fn_upper(args):
    _require(args, 1, "upper")
    text = _as_text(args[0])
    return None if text is None else text.upper()


def _fn_length(args):
    _require(args, 1, "length")
    text = _as_text(args[0])
    return None if text is None else len(text)


def _fn_substr(args):
    _require(args, (2, 3), "substr")
    text = _as_text(args[0])
    if text is None or is_missing(args[1]):
        return None
    start = int(_as_number(args[1], "substr"))
    length = None
    if len(args) == 3:
        if is_missing(args[2]):
            return None
        length = int(_as_number(args[2], "substr"))
    # SQLite semantics: 1-based; 0 behaves like 1; negative counts from end.
    if start > 0:
        begin = start - 1
    elif start == 0:
        begin = 0
    else:
        begin = max(len(text) + start, 0)
    if length is None:
        return text[begin:]
    if length < 0:
        return ""
    return text[begin:begin + length]


def _fn_replace(args):
    _require(args, 3, "replace")
    text, old, new = (_as_text(arg) for arg in args)
    if text is None or old is None or new is None:
        return None
    if old == "":
        return text
    return text.replace(old, new)


def _fn_trim(args):
    _require(args, (1, 2), "trim")
    text = _as_text(args[0])
    if text is None:
        return None
    chars = _as_text(args[1]) if len(args) == 2 else None
    return text.strip(chars)


def _fn_ltrim(args):
    _require(args, (1, 2), "ltrim")
    text = _as_text(args[0])
    if text is None:
        return None
    chars = _as_text(args[1]) if len(args) == 2 else None
    return text.lstrip(chars)


def _fn_rtrim(args):
    _require(args, (1, 2), "rtrim")
    text = _as_text(args[0])
    if text is None:
        return None
    chars = _as_text(args[1]) if len(args) == 2 else None
    return text.rstrip(chars)


def _fn_round(args):
    """SQLite's ``round(X[, Y])``: half away from zero, Y clamped to 0..30.

    With ``Y = 0`` SQLite computes ``(int)(X ± 0.5)``; otherwise it
    prints ``X`` to ``Y`` decimals with its own ``printf``: add half a
    unit in the last place plus a ``3e-16 * X`` nudge (when ``Y`` is
    small next to the magnitude of ``X``), then truncate to at most 16
    significant digits.  That is why ``round(1.005, 2)`` is 1.01 here,
    as in SQLite, where Python's ``round`` gives 1.0.  A NULL ``Y``
    yields NULL.
    """
    _require(args, (1, 2), "round")
    if is_missing(args[0]):
        return None
    digits = 0
    if len(args) == 2:
        if is_missing(args[1]):
            return None
        digits = max(0, min(30, int(_as_number(args[1], "round"))))
    value = float(_as_number(args[0], "round"))
    if not -_NO_FRACTION <= value <= _NO_FRACTION:
        return value
    if digits == 0:
        return float(int(value + (-0.5 if value < 0 else 0.5)))
    magnitude = abs(value)
    with decimal.localcontext() as context:
        context.prec = 100
        rounder = decimal.Decimal(5).scaleb(-digits - 1)
        if digits + math.trunc((math.frexp(magnitude)[1] - 1) / 3) < 15:
            rounder += decimal.Decimal(magnitude) * _PRINTF_NUDGE
        total = decimal.Decimal(magnitude) + rounder
        kept = min(digits, 15 - total.adjusted())
        result = float(total.quantize(decimal.Decimal(1).scaleb(-kept),
                                      rounding=decimal.ROUND_DOWN))
    return -result if value < 0 else result


#: Doubles beyond 2**52 have no fractional part: round() returns them as is.
_NO_FRACTION = 4503599627370496.0
#: SQLite's printf nudge toward the next decimal up (``rounder += X*3e-16``).
_PRINTF_NUDGE = decimal.Decimal("3e-16")


def _fn_coalesce(args):
    for value in args:
        if not is_missing(value):
            return value
    return None


def _fn_nullif(args):
    _require(args, 2, "nullif")
    return None if args[0] == args[1] else args[0]


def _fn_instr(args):
    _require(args, 2, "instr")
    haystack, needle = _as_text(args[0]), _as_text(args[1])
    if haystack is None or needle is None:
        return None
    return haystack.find(needle) + 1


def _fn_ifnull(args):
    _require(args, 2, "ifnull")
    return args[1] if is_missing(args[0]) else args[0]


def _fn_sqrt(args):
    _require(args, 1, "sqrt")
    if is_missing(args[0]):
        return None
    number = float(_as_number(args[0], "sqrt"))
    if number < 0:
        raise SQLRuntimeError("sqrt of a negative number")
    return math.sqrt(number)


def _fn_floor(args):
    _require(args, 1, "floor")
    if is_missing(args[0]):
        return None
    return math.floor(_as_number(args[0], "floor"))


def _fn_ceil(args):
    _require(args, 1, "ceil")
    if is_missing(args[0]):
        return None
    return math.ceil(_as_number(args[0], "ceil"))


SCALAR_FUNCTIONS = {
    "abs": _fn_abs,
    "lower": _fn_lower,
    "upper": _fn_upper,
    "length": _fn_length,
    "substr": _fn_substr,
    "substring": _fn_substr,
    "replace": _fn_replace,
    "trim": _fn_trim,
    "ltrim": _fn_ltrim,
    "rtrim": _fn_rtrim,
    "round": _fn_round,
    "coalesce": _fn_coalesce,
    "nullif": _fn_nullif,
    "ifnull": _fn_ifnull,
    "instr": _fn_instr,
    "sqrt": _fn_sqrt,
    "floor": _fn_floor,
    "ceil": _fn_ceil,
    "ceiling": _fn_ceil,
}


#: Functions that can never raise once called with an in-range number of
#: arguments of *any* value: they view arguments through :func:`_as_text`
#: (which is total) or plain equality.  Values are ``(min, max)`` arity.
#: The planner's totality analysis (:mod:`repro.sqlengine.planner`) uses
#: this to license eager column-at-a-time evaluation and plan rewrites.
TOTAL_TEXT_FUNCTIONS: dict[str, tuple[int, int]] = {
    "lower": (1, 1),
    "upper": (1, 1),
    "length": (1, 1),
    "replace": (3, 3),
    "trim": (1, 2),
    "ltrim": (1, 2),
    "rtrim": (1, 2),
    "coalesce": (0, 255),
    "nullif": (2, 2),
    "ifnull": (2, 2),
    "instr": (2, 2),
}

#: Functions total when every argument is provably numeric-or-NULL
#: (``_as_number`` cannot fail): abs/round/floor/ceil.  ``sqrt`` is
#: deliberately absent — it raises on negative input.
NUMERIC_SAFE_FUNCTIONS: dict[str, tuple[int, int]] = {
    "abs": (1, 1),
    "round": (1, 2),
    "floor": (1, 1),
    "ceil": (1, 1),
    "ceiling": (1, 1),
}


def call_scalar(name: str, args: list) -> object:
    """Invoke a scalar function by (case-insensitive) name."""
    try:
        fn = SCALAR_FUNCTIONS[name.lower()]
    except KeyError:
        raise SQLRuntimeError(f"unknown function {name!r}") from None
    return fn(args)
