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


def _json_text(doc) -> str:
    """The toolkit's JSON output form: indented, keys sorted, one
    trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
