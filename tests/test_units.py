"""The readers of outside values: the exact-number reader, one grammar
and one size limit for every rate, ratio and time, the same on every
supported Python version; and the JSON object reader, one rule and one
wording for every field of every object in an input file.  Also the
count rule, one rule for every size, capacity and tally a type holds,
and the JSON writer, which writes what ``json.dumps`` writes."""

import datetime
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from replikey import genealogy as gen
from replikey import integrity as integ
from replikey import replicator as rep
from replikey import spreadsim as sim
from replikey.units import (
    MAX_DIGITS,
    _Escaped,
    _count,
    _escape,
    _exact,
    _expect,
    _int_text,
    _json_pieces,
    _load_json,
    _object,
    _shown,
)

_ASCII_SPACE = " \t\n\r\f\v"


def _ascii_digits(text: str) -> bool:
    return all(c in "0123456789" for c in text)


def _unsigned(text: str) -> str:
    return text[1:] if text[:1] in ("+", "-") else text


def _expected(text: str):
    """``Fraction(text)`` when ``text`` is in the grammar and within the
    size limit, else None.

    The grammar: optional ASCII whitespace around a signed quotient of two
    digit strings, or around a signed decimal (digits on at least one side
    of an optional point) with an optional signed exponent."""
    body = _unsigned(text.strip(_ASCII_SPACE))
    num, slash, den = body.partition("/")
    if slash:
        ok, exponent = num and den and _ascii_digits(num + den), ""
    else:
        mantissa, marker, exponent = body.replace("E", "e").partition("e")
        whole, _, frac = mantissa.partition(".")
        ok = (
            (whole or frac)
            and _ascii_digits(whole + frac)
            and (not marker or _unsigned(exponent) and _ascii_digits(_unsigned(exponent)))
        )
    if not ok:
        return None
    size = sum(c in "0123456789" for c in body)
    if size >= MAX_DIGITS or size + abs(int(exponent or 0)) >= MAX_DIGITS:
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return None


# Strings near the grammar, with exponents far beyond the size limit.
_near_numbers = st.from_regex(
    r"\A ?[-+]?[0-9_\u0663]{0,4}(\.[0-9]{0,3})?([eE][-+]?[0-9]{1,10})?( ?/ ?[0-9]{1,3})? ?\Z"
)


@settings(max_examples=400, deadline=None)
@given(st.text(" +-.eE/_0123456789\u0663", max_size=32) | _near_numbers)
def test_reader_reads_the_grammar_and_refuses_the_rest(text):
    expected = _expected(text)
    if expected is None:
        with pytest.raises(ValueError, match=r"\Arate: not an exact number: "):
            _exact("rate", text)
        return
    got = _exact("rate", text)
    assert type(got) is Fraction and got == expected
    assert abs(got.numerator) < 10**MAX_DIGITS and got.denominator < 10**MAX_DIGITS


# Each row reads alike on Python 3.10 to 3.13; the refused strings are
# ones that some of those versions accept, or expand for hours.
@pytest.mark.parametrize(
    "value, expected",
    [
        ("4.5", Fraction(9, 2)),
        (" -3/6\n", Fraction(-1, 2)),
        ("+.5", Fraction(1, 2)),
        ("5.", Fraction(5)),
        ("2.5E-3", Fraction(1, 400)),
        ("1e4294", Fraction(10**4294)),
        ("-1e-4294", Fraction(-1, 10**4294)),
        (0.8, Fraction(4, 5)),
        (7, Fraction(7)),
        ("1e4295", None),
        ("1e999999999", None),
        ("1/0", None),
        ("9 / 2", None),
        ("1_0", None),
        ("\u0663", None),
        ("\u30001", None),
        ("1e", None),
        (".", None),
        ("inf", None),
        (float("inf"), None),
        (True, None),
        (None, None),
    ],
)
def test_reader_table(value, expected):
    if expected is None:
        with pytest.raises(ValueError) as exc:
            _exact("time_s", value)
        assert str(exc.value) == f"time_s: not an exact number: {value!r}"
    else:
        assert _exact("time_s", value) == expected


# ---------------------------------------------------------------------------
# the JSON object reader

_OVERSIZE = f"an integer of {MAX_DIGITS} digits or more"


@pytest.mark.parametrize(
    "value, kind, shown",
    [
        (True, int, "True"),
        (2.0, int, "2.0"),
        ("4", int, "'4'"),
        (None, int, "None"),
        pytest.param(10 ** (MAX_DIGITS - 1), int, _OVERSIZE, id="oversize"),
        pytest.param(-(10 ** (MAX_DIGITS - 1)), int, _OVERSIZE, id="negative-oversize"),
        (1, bool, "1"),
        ("false", bool, "'false'"),
        (5, str, "5"),
        ([1], dict, "[1]"),
        ({"sdb": {}}, list, "{'sdb': {}}"),
        ("x" * 100, list, "'" + "x" * 76 + "..."),
        pytest.param(list(range(10**5)), dict, repr(list(range(30)))[:77] + "...", id="long"),
    ],
)
def test_expect_refuses_with_one_wording(value, kind, shown):
    what = {int: "an integer", bool: "true or false", str: "a string", dict: "an object"}
    with pytest.raises(ValueError) as exc:
        _expect("devices[0].x", value, kind)
    assert str(exc.value) == f"devices[0].x: expected {what.get(kind, 'a list')}, got {shown}"
    assert len(shown) <= 80


@pytest.mark.parametrize(
    "value, kind",
    [
        (0, int),
        pytest.param(-(10 ** (MAX_DIGITS - 1)) + 1, int, id="longest"),
        (False, bool),
        ("", str),
        ({}, dict),
        ([], list),
    ],
)
def test_expect_accepts(value, kind):
    assert _expect("x", value, kind) is value


@pytest.mark.parametrize(
    "where, doc, problem",
    [
        ("", {"a": 1, "b": 2}, "unknown field 'b'"),
        ("", {"a": 1, "Seeds": 3}, "unknown field 'Seeds'"),
        ("", {}, "missing field 'a'"),
        ("releases[0]", {"a": 1, "note": 1}, "releases[0]: unknown field 'note'"),
        ("releases[0]", {"c": None}, "releases[0]: missing field 'a'"),
        ("devices[1]", ["a"], "devices[1]: expected an object, got ['a']"),
    ],
)
def test_object_refuses_with_its_path(where, doc, problem):
    with pytest.raises(ValueError) as exc:
        _object(where, doc, ("a",), ("c",))
    assert str(exc.value) == problem


def test_object_accepts_required_and_optional_fields():
    doc = {"a": 1, "c": 2}
    assert _object("x", doc, ("a",), ("c",)) is doc
    assert _object("x", {"a": 1}, ("a",), ("c",)) == {"a": 1}


@pytest.mark.parametrize("sign", ["", "-"])
def test_json_integer_limit_is_the_field_check(sign):
    """A JSON integer of MAX_DIGITS digits or more reaches the field check
    unread, so it is refused there naming its field; one digit fewer is
    read as it is."""
    below = sign + "9" * (MAX_DIGITS - 1)
    assert _load_json(f'{{"n": {below}}}')["n"] == int(below)
    for digits in (MAX_DIGITS, MAX_DIGITS + 1, 10 * MAX_DIGITS):
        doc = _load_json(f'{{"n": [{sign}{"9" * digits}]}}')
        with pytest.raises(ValueError) as exc:
            _expect("n", doc["n"][0], int)
        assert str(exc.value) == f"n: expected an integer, got {_OVERSIZE}"
        for kind in (str, bool, dict, list):
            with pytest.raises(ValueError):
                _expect("n", doc["n"][0], kind)
        with pytest.raises(ValueError) as exc:
            _exact("time_s", doc["n"][0])
        assert str(exc.value) == f"time_s: not an exact number: {_OVERSIZE}"


def test_shown_describes_a_long_integer_by_its_digits():
    assert _shown(10**80) == "a 81-digit integer"
    assert _shown(-(10**4000)) == "a 4001-digit integer"
    assert _shown(10**79) == str(10**79)
    assert _shown(10 ** (MAX_DIGITS - 1)) == _OVERSIZE
    assert _shown(Fraction(1, 10**100), str) == "1/1" + "0" * 74 + "..."


# ---------------------------------------------------------------------------
# the count rule


@pytest.mark.parametrize(
    "value, least, problem",
    [
        (0, 1, "expected at least 1, got 0"),
        (-1, 0, "expected at least 0, got -1"),
        pytest.param(-(10**100), 0, "expected at least 0, got a 101-digit integer", id="long"),
        (True, 0, "expected an integer, got True"),
        (8.0, 1, "expected an integer, got 8.0"),
        ("8", 1, "expected an integer, got '8'"),
        pytest.param(10 ** (MAX_DIGITS - 1), 1, "expected an integer, got " + _OVERSIZE, id="big"),
    ],
)
def test_count_refuses_with_one_wording(value, least, problem):
    with pytest.raises(ValueError) as exc:
        _count("capacity_kib", value, least)
    assert str(exc.value) == f"capacity_kib: {problem}"


@pytest.mark.parametrize("value, least", [(0, 0), (1, 1), (10 ** (MAX_DIGITS - 1) - 1, 1)])
def test_count_accepts(value, least):
    assert _count("n", value, least) is value


@settings(max_examples=400)
@given(st.text(" +-_.0123456789\u0663\u0665\u00b2", max_size=8) | st.integers().map(str))
def test_integer_text_is_ascii_digits_after_an_optional_minus(text):
    """The text grammar of a count: what ``int`` reads, less a plus sign,
    underscores, surrounding spaces and other scripts' digits."""
    if text.removeprefix("-") and _ascii_digits(text.removeprefix("-")):
        assert _int_text(text) == int(text)
    else:
        with pytest.raises(ValueError, match=r"\Aexpected an integer in fewer than 4300 ASCII "):
            _int_text(text)


@pytest.mark.parametrize("sign", ["", "-"])
def test_integer_text_stops_below_the_digit_limit(sign):
    assert _int_text(sign + "9" * (MAX_DIGITS - 1)) == int(sign + "9" * (MAX_DIGITS - 1))
    with pytest.raises(ValueError, match=r"\Aexpected an integer in fewer than 4300 ASCII "):
        _int_text(sign + "9" * MAX_DIGITS)


_T0 = datetime.datetime(2013, 2, 17, 13, 1, 38, tzinfo=datetime.timezone.utc)
_HEADER = gen.ProvenanceHeader("Demo", datetime.date(2013, 1, 1), "C", "stable", "amd64")
# Each type or function holding a count, called with valid arguments plus
# the ones a case sets.
_HOLDERS = {
    "GenealogyEvent": lambda **kw: gen.GenealogyEvent(
        **{"kind": gen.EventKind.BIRTH, "timestamp": _T0, "locale": "C", "capacity": 4, **kw}
    ),
    "FileEntry": lambda **kw: rep.FileEntry(
        **{"size_bytes": 0, "file_class": rep.FileClass.SYSTEM, **kw}
    ),
    "ImageManifest": lambda **kw: rep.ImageManifest(
        **{"version": _HEADER, "whitelist": {"/a"}, "image_bytes": 1, **kw}
    ),
    "KeyState": lambda **kw: rep.KeyState(
        **{
            "version": _HEADER,
            "files": {"/a": rep.FileEntry(1, rep.FileClass.SYSTEM)},
            "image_bytes": 1,
            "genealogy": gen.Genealogy(),
            "capacity_kib": 1,
            "boot_path": "/a",
            **kw,
        }
    ),
    "VirtualDevice": lambda **kw: rep.VirtualDevice(
        **{"id": "a", "bus": rep.Bus.USB, "capacity_kib": 1, **kw}
    ),
    "ClonePlan": lambda **kw: rep.ClonePlan(
        **{
            "mode": rep.CloneMode.FRESH,
            "source": "a",
            "target": "b",
            "copy_set": (),
            "preserve_set": (),
            "bytes_total": 0,
            "duration_s": Fraction(0),
            **kw,
        }
    ),
    "SimConfig": lambda **kw: sim.SimConfig(**{"n_participants": 4, "image_bytes": 1, **kw}),
    "rounds_closed_form": lambda **kw: sim.rounds_closed_form(**{"n": 4, **kw}),
    "TrustSimConfig": lambda **kw: integ.TrustSimConfig(
        **{
            "population": 4,
            "tampered_initial": 0,
            "meetings": 0,
            "protocol": integ.Protocol.NEWEST_BOOTS,
            **kw,
        }
    ),
}
# (holder, field, least): every count the library holds
_COUNTS = [
    ("GenealogyEvent", "capacity", 1),
    ("GenealogyEvent", "batch_count", 1),
    ("FileEntry", "size_bytes", 0),
    ("ImageManifest", "image_bytes", 1),
    ("KeyState", "capacity_kib", 1),
    ("KeyState", "image_bytes", 1),
    ("VirtualDevice", "capacity_kib", 1),
    ("ClonePlan", "bytes_total", 0),
    ("SimConfig", "n_participants", 1),
    ("SimConfig", "seeds", 1),
    ("SimConfig", "ports_per_host", 1),
    ("SimConfig", "image_bytes", 1),
    ("SimConfig", "capacity_kib", 1),
    ("rounds_closed_form", "n", 1),
    ("rounds_closed_form", "seeds", 1),
    ("rounds_closed_form", "ports", 1),
    ("TrustSimConfig", "population", 1),
    ("TrustSimConfig", "tampered_initial", 0),
    ("TrustSimConfig", "meetings", 0),
]


@pytest.mark.parametrize("holder, field, least", _COUNTS)
def test_every_count_is_held_to_the_count_rule(holder, field, least):
    """A count that is no int, or is below its least value, is a
    ValueError naming the field, never a TypeError; the least value
    itself is accepted."""
    make = _HOLDERS[holder]
    make(**{field: least})
    for value in ("8", 8.0, True, None, least - 1):
        with pytest.raises(ValueError) as exc:
            make(**{field: value})
        assert str(exc.value) in (
            f"{field}: expected an integer, got {value!r}",
            f"{field}: expected at least {least}, got {value!r}",
        )


# ---------------------------------------------------------------------------
# the JSON writer

# text with what JSON escapes: quotes, backslashes, control and non-ASCII
# characters, and characters outside the Basic Multilingual Plane
_text = st.text(st.characters() | st.sampled_from('"\\\t\x00\x7fé'))
_scalar = (
    _text
    | st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** (MAX_DIGITS - 1)) + 1, max_value=10 ** (MAX_DIGITS - 1) - 1)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, float("inf"), float("-inf"), float("nan")])
)
_documents = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_writer_is_json_dumps_byte_for_byte(doc):
    assert "".join(_json_pieces(doc)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@given(st.dictionaries(_text, _text, max_size=4), st.lists(_text, max_size=4))
def test_writer_inserts_escaped_strings_as_they_are(doc, pieces):
    """An escaped string, in whatever pieces, is written as json.dumps
    writes the string whole."""
    escaped = {key: _Escaped(list(map(_escape, [value, *pieces]))) for key, value in doc.items()}
    whole = {key: "".join([value, *pieces]) for key, value in doc.items()}
    want = json.dumps({"x": [whole]}, indent=2, sort_keys=True) + "\n"
    assert "".join(_json_pieces({"x": [escaped]})) == want


def test_writer_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError):
        _json_pieces({"x": {1, 2}})
