"""The exact-number reader: one grammar and one size limit for every
rate, ratio and time read from outside, the same on every supported
Python version."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from replikey.units import MAX_DIGITS, _exact

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
