"""Literal readers shared by the CLI and the text and JSON formats: exact
rationals, and the integer, list and boolean fields of JSON objects.  They live
apart from the polynomial kernel, so a verb that reads only these loads no
ratpoly."""

from __future__ import annotations

import re
from fractions import Fraction

from . import MAX_INT_DIGITS


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def json_int(v) -> int:
    """A JSON integer field; floats, strings and booleans are refused."""
    if type(v) is not int:
        raise ValueError(f"JSON field {v!r} is not an integer")
    return v


def json_list(v, field: str) -> list:
    """A JSON array field, named in the refusal: a string or object is not iterated."""
    if type(v) is not list:
        raise ValueError(f"JSON field {field!r} is not a list: {v!r}")
    return v


def json_bool(v) -> bool:
    """A JSON boolean field; numbers and strings are refused."""
    if type(v) is not bool:
        raise ValueError(f"JSON field {v!r} is not a boolean")
    return v


# each alternative matches in one way, so a failed match takes linear time
_RATIONAL_RE = re.compile(r"[+-]?(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?(\d+))?)")


def parse_rational(text: str) -> Fraction:
    """An integer, p/q, or a decimal with an optional exponent: 3, -2/7, 0.25,
    1e-3.  Fraction builds 10^|e| before any cap can apply, so an exponent past
    MAX_INT_DIGITS is refused first; p/0 is refused as a bad literal."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad rational literal {text!r}")
    exponent = (m[1] or "").lstrip("0")
    if len(exponent) > len(str(MAX_INT_DIGITS)) or int(exponent or 0) > MAX_INT_DIGITS:
        raise ValueError(f"refusing a decimal exponent past {MAX_INT_DIGITS}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad rational literal {text!r}: zero denominator") from None
