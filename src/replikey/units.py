"""Unit and output conventions shared across the toolkit.

Transfer sizes use decimal units (1 MB = 10**6 bytes, 1 GB = 10**9 bytes),
matching how USB key capacities are marketed.  Device capacities in
genealogy records are counted in 1 KiB blocks.
"""

from __future__ import annotations

import json
from fractions import Fraction

MB = 10**6
GB = 10**9
KIB = 1024


def as_fraction(x) -> Fraction:
    """Coerce a rate or ratio to an exact Fraction.

    Floats are read through their decimal repr, so ``as_fraction(0.8)``
    is exactly 4/5 rather than the nearest binary double.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


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
