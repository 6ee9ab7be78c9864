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
    raise ValueError(f"{name}: not an exact number: {_shown(value)}")


def sig6(x) -> float:
    """Round a rational to 6 significant digits, as a float."""
    return float(f"{float(x):.6g}")


_WHAT = {
    int: "an integer", str: "a string", bool: "true or false", dict: "an object", list: "a list"
}
_TOO_BIG = 10 ** (MAX_DIGITS - 1)  # the least integer of MAX_DIGITS digits
_OVERSIZE = object()  # a JSON integer of MAX_DIGITS digits or more, which no field accepts


def _shown(value, form=repr) -> str:
    """``value`` for a diagnostic: ``form(value)`` cut to 80 characters; a
    longer integer by its digit count, even one too long for CPython to print."""
    if value is _OVERSIZE or isinstance(value, int) and not -_TOO_BIG < value < _TOO_BIG:
        return f"an integer of {MAX_DIGITS} digits or more"
    text = form(value)
    if len(text) > 80 and isinstance(value, int):
        return f"a {len(text.lstrip('-'))}-digit integer"
    return text if len(text) <= 80 else text[:77] + "..."


def _expect(name: str, value, kind: type):
    """``value`` if it is a ``kind``, else a ValueError naming the field.
    An int is never a bool, and has fewer than MAX_DIGITS digits."""
    ok = isinstance(value, kind)
    if kind is int:
        ok = ok and type(value) is not bool and -_TOO_BIG < value < _TOO_BIG
    if not ok:
        what = _WHAT.get(kind) or f"a {kind.__name__}"
        raise ValueError(f"{name}: expected {what}, got {_shown(value)}")
    return value


def _count(name: str, value, least: int = 0) -> int:
    """``value`` if it is a size, capacity or tally: an int (no bool) of
    fewer than MAX_DIGITS digits, at least ``least``; else a ValueError."""
    if type(value) is int and least <= value < _TOO_BIG:  # the common case, one call
        return value
    if _expect(name, value, int) < least:
        raise ValueError(f"{name}: expected at least {least}, got {_shown(value)}")
    return value


def _int_text(text: str) -> int:
    """The integer ``text`` writes in fewer than MAX_DIGITS ASCII digits after an optional
    minus (no "+", "_", space or other script's digit, as ``int`` takes); else a ValueError."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit() and len(digits) < MAX_DIGITS):
        what = f"an integer in fewer than {MAX_DIGITS} ASCII digits"
        raise ValueError(f"expected {what}, got {_shown(text)}")
    return int(text)


def _object(where: str, doc, required=(), optional=()) -> dict:
    """``doc`` if it is a JSON object holding each ``required`` field and
    no field that is neither required nor ``optional``, else a ValueError
    naming ``where`` (empty for a whole document, whose fields go bare)."""
    _expect(where, doc, dict)
    prefix = f"{where}: " if where else ""
    for name in doc:
        if name not in required and name not in optional:
            raise ValueError(f"{prefix}unknown field {_shown(name)}")
    for name in required:
        if name not in doc:
            raise ValueError(f"{prefix}missing field {name!r}")
    return doc


def _at(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises names ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _parsed(read, name: str, value):
    """``read`` of the JSON string ``value``; a non-string or ValueError names ``name``."""
    return _at(name, read, _expect(name, value, str))


def _json_int(digits: str):
    """A JSON integer: an int, or ``_OVERSIZE`` from MAX_DIGITS digits on."""
    return int(digits) if len(digits.lstrip("-")) < MAX_DIGITS else _OVERSIZE


def _load_json(text: str) -> dict:
    """``json.loads`` of a document that must be a JSON object; one nested
    too deeply for the decoder is a ValueError rather than a
    RecursionError."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return doc


class _Escaped(list):
    """A JSON string's body as escaped pieces, which ``_json_pieces`` keeps."""


def _escape(text: str) -> str:
    """The body of ``text`` as a JSON string, escaped as ``json.dumps`` does."""
    return json.encoder.encode_basestring_ascii(text)[1:-1]


def _json_pieces(doc) -> list:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` for string keys,
    byte for byte, as a list of str pieces that holds ``_Escaped`` strings'
    pieces as they are; a writer writes them, and never needs them joined."""
    out: list = []

    def write(value, newline: str) -> None:  # newline: line break and indent of its level
        if type(value) is int:  # the commonest value, without a json.dumps call
            out.append(int.__repr__(value))
        elif isinstance(value, _Escaped):
            out.extend(('"', *value, '"'))
        elif not value or not isinstance(value, (dict, list, tuple)):
            out.append(json.dumps(value))
        else:
            inner = newline + "  "
            is_dict = isinstance(value, dict)
            separator = ("{" if is_dict else "[") + inner
            for item in sorted(value.items()) if is_dict else value:
                out.append(separator)
                if is_dict:
                    out.extend((json.encoder.encode_basestring_ascii(item[0]), ": "))
                    item = item[1]
                write(item, inner)
                separator = "," + inner
            out.extend((newline, "}" if is_dict else "]"))

    write(doc, "\n")
    out.append("\n")
    return out
