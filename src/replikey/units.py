"""Unit and output conventions shared across the toolkit.

Transfer sizes use decimal units (1 MB = 10**6 bytes, 1 GB = 10**9 bytes),
matching how USB key capacities are marketed.  Device capacities in
genealogy records are counted in 1 KiB blocks.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

MB = 10**6
GB = 10**9
KIB = 1024


MAX_DIGITS = 4300  # CPython's limit on reading an int from text, as JSON ints hit
# What Python 3.10 to 3.13 all read alike with Fraction, in ASCII only; no 0 denominator.
_NUMBER = re.compile(
    r"\s*[-+]?(?:\d+/0*[1-9]\d*|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE](?P<exp>[-+]?\d+))?)\s*", re.ASCII
)


def _exact(name: str, value) -> Fraction:
    """``value``, a rate, ratio or time from outside, as an exact Fraction:
    a Fraction, an int (a bool is not one), a finite float read through
    its repr (0.8 is 4/5) or a ``_NUMBER`` string whose digits plus
    exponent come to less than MAX_DIGITS, so that its numerator and
    denominator fit in MAX_DIGITS.  Anything else is a ValueError naming the field."""
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return Fraction(value)
    text = repr(value) if isinstance(value, float) else value
    match = _NUMBER.fullmatch(text) if isinstance(text, str) else None
    if match:
        # the exponent's digits count too, so int() never reads MAX_DIGITS of them
        size = sum(c.isdigit() for c in text)
        if size < MAX_DIGITS and size + abs(int(match["exp"] or 0)) < MAX_DIGITS:
            return Fraction(text)
    raise ValueError(f"{name}: not an exact number: {value!r}")


def sig6(x) -> float:
    """Round a rational to 6 significant digits, as a float."""
    return float(f"{float(x):.6g}")


def _check_int(name: str, value) -> None:
    """A ValueError naming the field unless ``value`` is an int (a bool
    is not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name}: expected an integer, got {value!r}")


def _expect(name: str, value, kind: type, what: str):
    """``value`` if it is a ``kind``, else a ValueError naming the field."""
    if not isinstance(value, kind):
        raise ValueError(f"{name}: expected {what}")
    return value


def _read_field(where: str, read, value):
    """``read(value)``; a ValueError it raises names the field ``where``."""
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _load_json(text: str) -> dict:
    """``json.loads`` of a document that must be a JSON object; one nested
    too deeply for the decoder is a ValueError rather than a
    RecursionError."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return doc


def _json_text(doc) -> str:
    """The toolkit's JSON output form: indented, keys sorted, one
    trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
