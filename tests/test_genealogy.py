"""Tests for the genealogy log format: parsing, canonical serialization,
record operations, and lineage statistics."""

import ast
import dataclasses
import datetime
import importlib.util
import json
import random
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from replikey import genealogy as gen
from replikey.cli import dispatch
from replikey.genealogy import (
    EventKind,
    Genealogy,
    GenealogyEvent,
    GenealogyParseError,
    GenealogyWarning,
    LineageStats,
    ProvenanceHeader,
    UpgradeEvent,
    child_genealogy,
    lint,
    own_spawn_count,
    parse,
    record_birth,
    record_spawn,
    record_upgrade,
    serialize,
    stats,
)

from replikey.units import _Escaped, _escape, _shown

DATA = Path(__file__).parent / "data"
UTC = datetime.timezone.utc


def ts(text: str) -> datetime.datetime:
    return datetime.datetime.fromisoformat(text)


def birth(when: str, locale="fr_FR.UTF-8", capacity=4023296, batch=1) -> GenealogyEvent:
    return GenealogyEvent(EventKind.BIRTH, ts(when), locale, capacity, batch)


def spawn(when: str, locale="fr_FR.UTF-8", capacity=4023296, batch=1) -> GenealogyEvent:
    return GenealogyEvent(EventKind.SPAWN, ts(when), locale, capacity, batch)


@pytest.fixture(scope="module")
def sample_text() -> str:
    return (DATA / "sample_genealogy.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def sample(sample_text) -> Genealogy:
    with warnings.catch_warnings():
        warnings.simplefilter("error", GenealogyWarning)
        return parse(sample_text)


# ---------------------------------------------------------------------------
# the reference log


def test_sample_counts(sample):
    st_ = stats(sample)
    assert st_.birth_count == 6
    assert st_.spawn_count == 12
    assert st_.upgrade_count == 3
    assert st_.provenance_count == 3
    assert st_.max_embedding_depth == 1


def test_sample_attribution(sample):
    """Three upgrades stay on the host record; donor blocks get 3, 1, and
    2 events respectively, leaving the host 3 births and 9 spawns."""
    host_events = [e for e in sample.events if isinstance(e, GenealogyEvent)]
    upgrades = [e for e in sample.events if isinstance(e, UpgradeEvent)]
    assert len(upgrades) == 3
    assert sum(1 for e in host_events if e.kind is EventKind.BIRTH) == 3
    assert sum(1 for e in host_events if e.kind is EventKind.SPAWN) == 9
    assert [len(u.donor.events) for u in upgrades] == [3, 1, 2]


def test_sample_donor_provenance_flags(sample):
    upgrades = [e for e in sample.events if isinstance(e, UpgradeEvent)]
    assert [u.donor_has_provenance for u in upgrades] == [True, False, True]
    # the middle donor still has a parsed descriptor, it just was not
    # written with a "p" tag on its "u" line
    assert all(u.donor.provenance is not None for u in upgrades)


def test_sample_header(sample):
    head = sample.provenance
    assert head is not None
    assert head.label == "Sage 5.6 Debian Live beta4"
    assert head.build_date == datetime.date(2013, 1, 25)
    assert head.locale == "en_US.UTF-8"
    assert head.suite == "wheezy"
    assert head.arch == "686-pae"


def test_sample_first_and_last(sample):
    st_ = stats(sample)
    assert st_.first_event == ts("2013-02-17 13:01:38+00:00")
    assert st_.last_event == ts("2013-06-17 07:15:42+00:00")


def test_sample_parses_without_warnings(sample_text):
    with warnings.catch_warnings():
        warnings.simplefilter("error", GenealogyWarning)
        parse(sample_text)


def test_sample_serialize_fixed_point(sample_text):
    g = parse(sample_text)
    canon = serialize(g)
    assert parse(canon) == g
    assert serialize(parse(canon)) == canon


def test_sample_rebirth_pairs_with_donor_spawn(sample):
    """Each upgrade's following rebirth carries the same timestamp as the
    donor's closing spawn (the donor clones itself onto the host)."""
    events = list(sample.events)
    first_upgrade = next(i for i, e in enumerate(events) if isinstance(e, UpgradeEvent))
    donor = events[first_upgrade].donor
    rebirth = events[first_upgrade + 1]
    assert rebirth.kind is EventKind.BIRTH
    assert donor.events[-1].kind is EventKind.SPAWN
    assert rebirth.timestamp == donor.events[-1].timestamp


# ---------------------------------------------------------------------------
# parsing, small cases


def test_parse_empty_string():
    g = parse("")
    assert g.provenance is None
    assert g.events == ()


def test_parse_blank_lines_only():
    assert parse("\n   \n\n") == Genealogy()


def test_parse_single_line_unpadded_batch():
    g = parse("i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1")
    assert len(g.events) == 1
    ev = g.events[0]
    assert ev.kind is EventKind.BIRTH
    assert ev.capacity == 4023296
    assert ev.batch_count == 1
    assert ev.locale == "fr_FR.UTF-8"


def test_parse_accepts_bytes():
    g = parse(b"i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1")
    assert len(g.events) == 1


def test_parse_bad_utf8():
    with pytest.raises(GenealogyParseError):
        parse(b"i 2013\xff")


def test_parse_crlf_tolerated():
    g = parse("i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\r\n")
    assert len(g.events) == 1


def test_parse_malformed_timestamp_names_line():
    text = (
        "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
        "s 2013-02-17T13:15:19Z - fr_FR.UTF-8 - 4023296 - 1\n"
    )
    with pytest.raises(GenealogyParseError) as exc:
        parse(text)
    assert exc.value.lineno == 2
    assert "timestamp" in str(exc.value)


def test_parse_unknown_tag_names_line():
    with pytest.raises(GenealogyParseError) as exc:
        parse("x 2013-02-17 13:01:38+00:00 - fr - 1 - 1\n")
    assert exc.value.lineno == 1
    assert "tag" in str(exc.value)


def test_parse_bare_upgrade_rejected():
    """A "u" line with no descriptor and no indented donor events leaves
    nothing to attribute the upgrade to."""
    text = (
        "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
        "u\n"
        "i 2013-02-18 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
    )
    with pytest.raises(GenealogyParseError) as exc:
        parse(text)
    assert exc.value.lineno == 2


def test_parse_tab_indent_rejected():
    with pytest.raises(GenealogyParseError):
        parse("\ti 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n")


def test_parse_provenance_after_events_rejected():
    text = (
        "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
        "p Sage 5.6 2013-01-25 en_US.UTF-8 - wheezy - 686-pae\n"
    )
    with pytest.raises(GenealogyParseError) as exc:
        parse(text)
    assert exc.value.lineno == 2


def test_parse_double_provenance_rejected():
    text = (
        "p Sage 5.6 2013-01-25 en_US.UTF-8 - wheezy - 686-pae\n"
        "p Sage 5.6 2013-01-25 en_US.UTF-8 - wheezy - 686-pae\n"
    )
    with pytest.raises(GenealogyParseError) as exc:
        parse(text)
    assert exc.value.lineno == 2


def test_parse_bad_integer_field():
    with pytest.raises(GenealogyParseError):
        parse("i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - huge - 1\n")


def test_parse_wrong_field_count():
    with pytest.raises(GenealogyParseError):
        parse("i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296\n")


def test_donor_block_level_set_by_first_deeper_line():
    """Lines between the "u" indent and the donor level return to the
    host, even when they sit deeper than the "u" line itself."""
    text = (
        "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
        "u p Sage 5.8 2013-04-06 fr_FR.UTF-8 - wheezy - 686-pae\n"
        "      i 2013-04-07 08:44:13+00:00 - fr_FR.UTF-8 - 7692288 - 1\n"
        "      s 2013-04-07 11:58:04+00:00 - fr_FR.UTF-8 - 7692288 - 1\n"
        "   i 2013-04-07 11:58:04+00:00 - fr_FR.UTF-8 - 7692288 - 1\n"
    )
    g = parse(text)
    kinds = [type(e).__name__ for e in g.events]
    assert kinds == ["GenealogyEvent", "UpgradeEvent", "GenealogyEvent"]
    assert len(g.events[1].donor.events) == 2


def test_descriptor_only_upgrade():
    text = (
        "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
        "u Sage 5.8 2013-04-26 en_US.UTF-8 - wheezy - 686-pae\n"
        "i 2013-04-27 10:00:00+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
    )
    g = parse(text)
    up = g.events[1]
    assert isinstance(up, UpgradeEvent)
    assert up.donor.events == ()
    assert up.donor.provenance.label == "Sage 5.8"
    assert up.donor_has_provenance is False


@pytest.mark.parametrize("label", ["p", "p X"])
def test_unflagged_donor_label_read_as_flag_refused(label):
    """'u p ...' marks a flagged donor, so an unflagged donor whose
    label is "p" or starts with "p " has no text form."""
    header = ProvenanceHeader(label, datetime.date(2013, 4, 26), "en_US.UTF-8", "wheezy", "686-pae")
    donor = Genealogy(provenance=header)
    with pytest.raises(ValueError, match="unflagged donor label"):
        UpgradeEvent(donor=donor, donor_has_provenance=False)
    with pytest.raises(GenealogyParseError) as exc:
        parse(f"u\n  p {header.descriptor()}\n")
    assert exc.value.lineno == 1
    flagged = Genealogy(events=(UpgradeEvent(donor=donor),))
    assert parse(serialize(flagged)) == flagged


def test_nested_upgrade_depth_two():
    donor_inner = Genealogy(events=(birth("2013-01-01 00:00:00+00:00"),))
    donor_outer = record_upgrade(
        Genealogy(events=(birth("2013-01-02 00:00:00+00:00"),)),
        donor_inner,
        birth("2013-01-03 00:00:00+00:00"),
    )
    host = record_upgrade(
        Genealogy(events=(birth("2013-01-04 00:00:00+00:00"),)),
        donor_outer,
        birth("2013-01-05 00:00:00+00:00"),
    )
    assert stats(host).max_embedding_depth == 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GenealogyWarning)
        assert parse(serialize(host)) == host


# ---------------------------------------------------------------------------
# warnings


def test_out_of_order_timestamps_warn():
    text = (
        "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
        "s 2013-02-16 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
    )
    with pytest.warns(GenealogyWarning):
        parse(text)


def test_order_not_checked_across_upgrade_boundary():
    """The donor's clock and the host's clock are unrelated; only events
    within one contiguous run are compared."""
    text = (
        "s 2013-05-01 00:00:00+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
        "u Sage 5.8 2013-04-26 en_US.UTF-8 - wheezy - 686-pae\n"
        "  i 2013-01-01 00:00:00+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
        "i 2013-04-01 00:00:00+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", GenealogyWarning)
        parse(text)


def test_equal_timestamps_do_not_warn():
    g = Genealogy(
        events=(
            spawn("2013-04-07 11:58:04+00:00"),
            spawn("2013-04-07 11:58:04+00:00"),
        )
    )
    assert lint(g) == []


def test_multiple_births_before_upgrade_warn():
    g = Genealogy(
        events=(
            birth("2013-01-01 00:00:00+00:00"),
            spawn("2013-01-02 00:00:00+00:00"),
            birth("2013-01-03 00:00:00+00:00"),
        )
    )
    upgraded = record_upgrade(
        g,
        Genealogy(events=(birth("2013-02-01 00:00:00+00:00"),)),
        birth("2013-02-02 00:00:00+00:00"),
    )
    assert lint(g) == []  # plain clone chain, nothing to flag
    assert any("births" in m for m in lint(upgraded))


def test_rebirth_at_donor_spawn_time_no_warning():
    donor = Genealogy(
        events=(
            birth("2013-04-07 08:44:13+00:00", capacity=7692288),
            spawn("2013-04-07 11:58:04+00:00", capacity=7692288),
        )
    )
    host = record_upgrade(
        Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),)),
        donor,
        birth("2013-04-07 11:58:04+00:00", capacity=7692288),
    )
    assert lint(host) == []


# ---------------------------------------------------------------------------
# serialization layout


def test_serialize_empty():
    assert serialize(Genealogy()) == ""


def test_serialize_one_birth_layout():
    g = Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),))
    assert serialize(g) == "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 -          1\n"


def test_serialize_batch_column_width():
    g = Genealogy(events=(birth("2013-02-17 13:01:38+00:00", batch=1234567890),))
    line = serialize(g).rstrip("\n")
    assert line.endswith("- 1234567890")
    g2 = Genealogy(events=(birth("2013-02-17 13:01:38+00:00", batch=42),))
    assert serialize(g2).rstrip("\n").endswith("-         42")


def test_serialize_donor_indent_and_inline_descriptor():
    donor = Genealogy(
        provenance=ProvenanceHeader(
            "Sage 5.8", datetime.date(2013, 4, 6), "fr_FR.UTF-8", "wheezy", "686-pae"
        ),
        events=(birth("2013-04-07 08:44:13+00:00", capacity=7692288),),
    )
    host = record_upgrade(
        Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),)),
        donor,
        birth("2013-04-08 00:00:00+00:00", capacity=7692288),
    )
    lines = serialize(host).splitlines()
    assert lines[1] == "u p Sage 5.8 2013-04-06 fr_FR.UTF-8 - wheezy - 686-pae"
    assert lines[2].startswith("  i 2013-04-07")
    assert lines[3].startswith("i 2013-04-08")


def test_serialize_preserves_nonzero_utc_offset():
    g = Genealogy(events=(birth("2013-02-17 13:01:38+02:00"),))
    assert "13:01:38+02:00" in serialize(g)
    assert parse(serialize(g)) == g


def test_parse_keeps_each_utc_offset_as_written():
    """One instant at two UTC offsets is two events: equal by ==, which
    compares instants, but written back each with its own offset, on
    the top level and in donor blocks alike."""
    pad = " - C - 4023296 -          1\n"
    early, late = f"2013-01-01 12:00:00+00:00{pad}", f"2013-01-01 13:00:00+01:00{pad}"
    text = f"u\n  i {early}u\n  i {late}i {early}s {late}i {late}"
    with warnings.catch_warnings():
        warnings.simplefilter("error", GenealogyWarning)
        g = parse(text)
    assert serialize(g) == text
    assert g.events[2] == g.events[4]
    # of equal instants, stats reports the first written
    s = stats(g)
    assert s.first_event.isoformat(" ") == s.last_event.isoformat(" ") == early[:25]


def test_equal_donor_blocks_keep_their_own_p_flag():
    desc = "Demo Live 1.0 2013-01-01 en_US.UTF-8 - stable - amd64"
    block = "  i 2013-02-17 13:01:38+00:00 - C - 4023296 -          1\n"
    text = f"u p {desc}\n{block}u {desc}\n{block}u p {desc}\n{block}"
    g = parse(text)
    assert serialize(g) == text
    assert g.events[0] is g.events[2] and g.events[1] is not g.events[0]
    assert g.events[0].donor.events[0] is g.events[1].donor.events[0]


def test_repeated_event_line_does_not_hide_a_later_error():
    good = "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1\n"
    for bad, reason in (
        ("i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 0 - 1\n", "capacity: expected at least 1"),
        ("\t" + good, "tab in indentation"),
        ("p Sage 5.6 2013-01-25 en_US.UTF-8 - wheezy - 686-pae\n", "provenance header"),
    ):
        with pytest.raises(GenealogyParseError) as exc:
            parse(good + "u\n  " + good + good + bad)
        assert exc.value.lineno == 5
        assert exc.value.reason.startswith(reason)


@pytest.mark.parametrize(
    "late", ["\ti 2013-02-17 13:01:38+00:00 - C - 1 - 1", "x junk", "  i\t2013-02-17"]
)
@pytest.mark.parametrize(
    "first, reason",
    [
        ("p one - two - three", "malformed provenance descriptor: descriptor head too short"),
        ("i 2013-02-17 13:01:38+00:00 - C - 0 - 1", "capacity: expected at least 1, got 0"),
        ("u p", "provenance descriptor expected after 'u p'"),
    ],
)
def test_parse_reports_the_first_malformed_line_in_reading_order(first, reason, late):
    """Each line is checked as it is read: a fault on line 1 is reported
    before a tab or an unknown tag on line 3."""
    good = "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1"
    with pytest.raises(GenealogyParseError) as exc:
        parse(f"{first}\n{good}\n{late}\n")
    assert (exc.value.lineno, exc.value.reason[: len(reason)]) == (1, reason)
    with pytest.raises(GenealogyParseError) as exc:
        parse(f"{good}\n{good}\n{late}\n{first}\n")
    assert exc.value.lineno == 3


def test_an_empty_donor_block_is_found_on_reading_the_line_after_it():
    """A "u" line with no descriptor and no block below it is refused, at
    its own line, once the next line shows that no block follows; a
    malformed next line is reported first."""
    good = "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - 4023296 - 1"
    with pytest.raises(GenealogyParseError) as exc:
        parse(f"{good}\nu\n{good}\n")
    assert (exc.value.lineno, exc.value.reason) == (
        2, "upgrade with no donor events and no descriptor"
    )
    with pytest.raises(GenealogyParseError) as exc:
        parse(f"{good}\nu\nx junk\n")
    assert (exc.value.lineno, exc.value.reason) == (3, "unknown line tag 'x'")


@pytest.mark.parametrize(
    "capacity, batch",
    [
        ("4_023_296", "1"),
        ("+4023296", "1"),
        ("\u0664\u0660\u0662", "1"),  # Arabic-Indic digits
        ("4023296", "+1"),
        ("4023296", "1_0"),
        ("4023296", "\u00b9"),  # superscript one
        pytest.param("4023296", "9" * 4300, id="4300-digit-batch"),
    ],
)
def test_event_counts_are_ascii_digits(capacity, batch):
    """A log line's capacity and batch are read in one text grammar, the
    count flags' too: ASCII digits, not everything ``int`` reads."""
    payload = f"2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - {capacity} - {batch}"
    with pytest.raises(GenealogyParseError) as exc:
        parse(f"s {payload}\n")
    assert exc.value.reason == f"malformed integer field in {_shown(payload)}"


def test_timestamp_digits_are_ascii():
    stamp = "\u0662\u0660\u0661\u0663-02-17 13:01:38+00:00"
    with pytest.raises(GenealogyParseError) as exc:
        parse(f"i {stamp} - fr_FR.UTF-8 - 4023296 - 1\n")
    assert exc.value.reason == f"malformed timestamp {stamp!r}"


_LONG = "x" * 5000
_PAYLOAD = f"2013-02-17 13:01:38+00:00 - C - 1 - {_LONG}"


@pytest.mark.parametrize(
    "line, prefix, value",
    [
        (f"s {_PAYLOAD}", "malformed integer field in ", _PAYLOAD),
        (f"q{_LONG}", "unknown line tag ", f"q{_LONG}"),
        (f"i {_LONG} - C - 1 - 1", "malformed timestamp ", _LONG),
        (f"p {_LONG} - stable - amd64", "descriptor head too short: ", _LONG),
        (f"p Demo {_LONG} C - stable - amd64", "malformed build date: ", _LONG),
    ],
    ids=["integer", "tag", "timestamp", "descriptor-head", "build-date"],
)
def test_parse_errors_quote_a_long_value_cut_to_80_characters(line, prefix, value):
    """A diagnostic quotes at most 80 characters of a value, however long
    the line it was read from."""
    with pytest.raises(GenealogyParseError) as exc:
        parse(line + "\n")
    assert exc.value.reason.endswith(prefix + _shown(value))
    assert len(_shown(value)) == 80


# ---------------------------------------------------------------------------
# record operations


def test_record_birth_appends():
    g = record_birth(Genealogy(), birth("2013-02-17 13:01:38+00:00"))
    assert stats(g).birth_count == 1
    assert stats(g).spawn_count == 0


def test_record_birth_rejects_spawn():
    with pytest.raises(ValueError):
        record_birth(Genealogy(), spawn("2013-02-17 13:01:38+00:00"))


def test_record_spawn_rejects_birth():
    with pytest.raises(ValueError):
        record_spawn(Genealogy(), birth("2013-02-17 13:01:38+00:00"))


def test_record_spawn_block():
    """One birth plus seven spawns, the shape of the reference log's
    opening block."""
    g = Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),))
    times = [
        "2013-02-17 13:15:19+00:00",
        "2013-02-17 13:31:36+00:00",
        "2013-02-17 14:40:22+00:00",
        "2013-02-19 15:56:46+00:00",
        "2013-02-19 16:19:28+00:00",
        "2013-02-19 16:39:30+00:00",
        "2013-02-19 16:47:17+00:00",
    ]
    for t in times:
        g = record_spawn(g, spawn(t))
    assert stats(g).birth_count == 1
    assert stats(g).spawn_count == 7
    assert own_spawn_count(g) == 7


def test_record_upgrade_top_level_entry_count():
    host = Genealogy(events=tuple(spawn(f"2013-03-0{d} 10:00:00+00:00") for d in range(1, 9)))
    donor = Genealogy(
        events=(
            birth("2013-04-01 10:00:00+00:00"),
            spawn("2013-04-02 10:00:00+00:00"),
            spawn("2013-04-03 10:00:00+00:00"),
        )
    )
    out = record_upgrade(host, donor, birth("2013-04-03 10:00:00+00:00"))
    assert len(out.events) == 10
    assert isinstance(out.events[8], UpgradeEvent)
    assert out.events[9].kind is EventKind.BIRTH


def test_record_upgrade_empty_donor_allowed_in_memory():
    out = record_upgrade(Genealogy(), Genealogy(), birth("2013-04-03 10:00:00+00:00"))
    assert stats(out).upgrade_count == 1
    assert stats(out).birth_count == 1
    assert out.events[0].donor.events == ()


def test_record_upgrade_embeds_by_value():
    donor = Genealogy(events=(birth("2013-04-01 10:00:00+00:00"),))
    host = record_upgrade(Genealogy(), donor, birth("2013-04-02 10:00:00+00:00"))
    donor_after = record_spawn(donor, spawn("2013-04-05 10:00:00+00:00"))
    assert len(host.events[0].donor.events) == 1
    assert len(donor_after.events) == 2


def test_record_upgrade_rejects_spawn_rebirth():
    with pytest.raises(ValueError):
        record_upgrade(Genealogy(), Genealogy(), spawn("2013-04-03 10:00:00+00:00"))


def test_child_genealogy_shape():
    parent = Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),))
    parent = record_spawn(parent, spawn("2013-02-17 13:15:19+00:00"))
    before = parent.events
    child = child_genealogy(parent, birth("2013-02-17 13:15:19+00:00"))
    assert parent.events == before
    assert stats(child).birth_count == 2
    assert child.events[-1].kind is EventKind.BIRTH
    assert own_spawn_count(child) == 0


def test_child_of_empty_parent():
    child = child_genealogy(Genealogy(), birth("2013-02-17 13:01:38+00:00"))
    assert len(child.events) == 1


# ---------------------------------------------------------------------------
# value constraints


def test_event_requires_timezone():
    with pytest.raises(ValueError):
        GenealogyEvent(
            EventKind.BIRTH,
            datetime.datetime(2013, 2, 17, 13, 1, 38),
            "fr_FR.UTF-8",
            4023296,
        )


def test_event_rejects_subsecond():
    with pytest.raises(ValueError):
        GenealogyEvent(
            EventKind.BIRTH,
            datetime.datetime(2013, 2, 17, 13, 1, 38, 500, tzinfo=UTC),
            "fr_FR.UTF-8",
            4023296,
        )


def test_event_rejects_bad_counts():
    with pytest.raises(ValueError):
        birth("2013-02-17 13:01:38+00:00", capacity=0)
    with pytest.raises(ValueError):
        birth("2013-02-17 13:01:38+00:00", batch=0)


_RULE = "expected an offset-aware time in whole seconds at a whole-minute UTC offset"


@pytest.mark.parametrize(
    "value, shown",
    [
        (datetime.datetime(2013, 2, 17, 13, 1, 38), "2013-02-17 13:01:38"),
        (
            datetime.datetime(2013, 2, 17, 13, 1, 38, 500, tzinfo=UTC),
            "2013-02-17 13:01:38.000500+00:00",
        ),
        (ts("2013-02-17 13:01:38+00:00:30"), "2013-02-17 13:01:38+00:00:30"),
        (
            datetime.datetime(
                2013, 2, 17, 13, 1, 38,
                tzinfo=datetime.timezone(datetime.timedelta(microseconds=500)),
            ),
            "2013-02-17 13:01:38+00:00:00.000500",
        ),
        ("2013-02-17 13:01:38+00:00", "'2013-02-17 13:01:38+00:00'"),
        (datetime.date(2013, 2, 17), "datetime.date(2013, 2, 17)"),
    ],
)
def test_timestamp_rule_names_the_field_and_the_value(value, shown):
    with pytest.raises(ValueError) as exc:
        GenealogyEvent(EventKind.BIRTH, value, "fr_FR.UTF-8", 4023296)
    assert str(exc.value) == f"timestamp: {_RULE}, got {shown}"
    with pytest.raises(ValueError, match=f"^start_time: {_RULE}"):
        gen._timestamp("start_time", value)


def test_timestamp_rule_accepts_any_whole_minute_offset():
    for offset in ("-05:30", "+13:45", "-23:59"):
        text = f"2013-02-17 13:01:38{offset}"
        assert gen._timestamp("timestamp", ts(text)) == ts(text)
        assert birth(text).timestamp.isoformat(" ") == text


@pytest.mark.parametrize(
    "event", ["i", None, 5, UpgradeEvent(Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),)))]
)
def test_record_operations_refuse_a_non_event(event):
    g = Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),))
    for name, call in [
        ("event", lambda: record_birth(g, event)),
        ("event", lambda: record_spawn(g, event)),
        ("birth", lambda: child_genealogy(g, event)),
        ("rebirth", lambda: record_upgrade(g, g, event)),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be a (Birth|Spawn) event, got "):
            call()


def test_record_operations_refuse_a_non_genealogy():
    with pytest.raises(ValueError, match="^expected a Genealogy to extend, got 'x'$"):
        record_birth("x", birth("2013-02-17 13:01:38+00:00"))
    with pytest.raises(ValueError, match="^donor must be a Genealogy$"):
        record_upgrade(Genealogy(), "x", birth("2013-02-17 13:01:38+00:00"))


@pytest.mark.parametrize(
    "build, problem",
    [
        (lambda: Genealogy(provenance="x"), "provenance: expected a ProvenanceHeader, got 'x'"),
        (lambda: Genealogy(events=5), "events: expected an iterable, got 5"),
        (lambda: Genealogy(events=["x"]), "events: unexpected event type: 'x'"),
        (
            lambda: UpgradeEvent(Genealogy(events=[birth("2013-02-17 13:01:38+00:00")]), "no"),
            "donor_has_provenance: expected true or false, got 'no'",
        ),
    ],
)
def test_record_constructors_refuse_a_field_by_name(build, problem):
    """Each field of a record is checked where the record is built, so a
    record that is built is one ``serialize`` writes and ``parse`` reads back."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == problem


_T0 = datetime.datetime(2013, 2, 17, 13, 1, 38, tzinfo=UTC)


def test_8000_appends_check_only_the_events_they_add(monkeypatch):
    """An append checks the events it adds, never the record it extends:
    no ``Genealogy`` check runs, and each event is checked once, when
    built."""
    g = Genealogy(events=(GenealogyEvent(EventKind.BIRTH, _T0, "fr_FR.UTF-8", 4023296),))
    built = dict.fromkeys((Genealogy, GenealogyEvent), 0)
    for cls in built:

        def counting(self, _check=cls.__post_init__, _cls=cls):
            built[_cls] += 1
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    operations = (record_spawn, record_birth, child_genealogy, record_spawn)
    for i in range(8000):
        append = operations[i % 4]
        kind = EventKind.SPAWN if append is record_spawn else EventKind.BIRTH
        when = _T0 + datetime.timedelta(seconds=i + 1)
        g = append(g, GenealogyEvent(kind, when, "fr_FR.UTF-8", 4023296))
    assert built == {Genealogy: 0, GenealogyEvent: 8000}
    assert len(g.events) == 8001 and type(g.events) is tuple
    assert stats(g).spawn_count == 4000


@pytest.mark.parametrize("field", ["capacity", "batch_count"])
def test_long_integers_in_event_texts_stay_one_short_line(field):
    """An event line whose capacity or batch is a long negative number is
    refused by a short message naming the field."""
    long = "-" + "9" * 4000
    fields = {"capacity": "4023296", "batch_count": "1", field: long}
    text = "i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - {capacity} - {batch_count}\n"
    with pytest.raises(GenealogyParseError) as exc:
        parse(text.format(**fields))
    assert str(exc.value).startswith(f"line 1: {field}: expected at least 1, got ")
    assert str(exc.value).endswith("got a 4000-digit integer")
    assert len(str(exc.value)) < 300


def test_header_descriptor_round_trip():
    head = ProvenanceHeader(
        "Sage 5.9 Debian wheezy Live 3.0.5-1",
        datetime.date(2013, 5, 9),
        "en_US.UTF-8",
        "wheezy",
        "686-pae",
    )
    assert ProvenanceHeader.from_descriptor(head.descriptor()) == head


def test_header_rejects_separator_in_label():
    with pytest.raises(ValueError):
        ProvenanceHeader(
            "Sage - 5.9", datetime.date(2013, 5, 9), "en_US.UTF-8", "wheezy", "686-pae"
        )


def test_header_rejects_edge_dashes():
    with pytest.raises(ValueError):
        ProvenanceHeader(
            "Sage -", datetime.date(2013, 5, 9), "en_US.UTF-8", "wheezy", "686-pae"
        )
    with pytest.raises(ValueError):
        GenealogyEvent(EventKind.BIRTH, ts("2013-02-17 13:01:38+00:00"), "-", 4023296)


def test_empty_record_stats():
    assert stats(Genealogy()) == LineageStats()


# ---------------------------------------------------------------------------
# property tests

_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._",
    min_size=1,
    max_size=10,
)
_label = st.lists(_token, min_size=1, max_size=3).map(" ".join)
_offset = st.integers(min_value=-14 * 60, max_value=14 * 60).map(
    lambda m: datetime.timezone(datetime.timedelta(minutes=m))
)
_timestamp = st.datetimes(
    min_value=datetime.datetime(1990, 1, 1),
    max_value=datetime.datetime(2100, 1, 1),
    timezones=_offset,
).map(lambda d: d.replace(microsecond=0))

_header = st.builds(
    ProvenanceHeader,
    label=_label,
    build_date=st.dates(
        min_value=datetime.date(1990, 1, 1), max_value=datetime.date(2100, 1, 1)
    ),
    locale=_token,
    suite=_label,
    arch=_label,
)

_event = st.builds(
    GenealogyEvent,
    kind=st.sampled_from([EventKind.BIRTH, EventKind.SPAWN]),
    timestamp=_timestamp,
    locale=_token,
    capacity=st.integers(min_value=1, max_value=10**8),
    batch_count=st.integers(min_value=1, max_value=10**6),
)


def _records(depth: int):
    if depth == 0:
        items = _event
    else:
        donor = _records(depth - 1).filter(
            lambda g: g.provenance is not None or g.events
        )
        # an unflagged donor labelled "p" or "p ..." is refused
        unflagged_donor = donor.filter(
            lambda g: g.provenance is None or not g.provenance.descriptor().startswith("p ")
        )
        upgrade = st.builds(UpgradeEvent, donor=donor) | st.builds(
            UpgradeEvent, donor=unflagged_donor, donor_has_provenance=st.just(False)
        )
        items = _event | upgrade
    return st.builds(
        Genealogy,
        provenance=st.none() | _header,
        events=st.lists(items, max_size=6).map(tuple),
    )


_genealogies = _records(2)


def _parse_quiet(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GenealogyWarning)
        return parse(text)


@given(_genealogies)
def test_round_trip_property(g):
    assert _parse_quiet(serialize(g)) == g


_births = _event.map(lambda e: dataclasses.replace(e, kind=EventKind.BIRTH))
_spawns = _event.map(lambda e: dataclasses.replace(e, kind=EventKind.SPAWN))
_donors = _records(1).filter(lambda g: g.provenance is not None or g.events)


@st.composite
def _appended(draw):
    """A record grown from a drawn one by a drawn run of record
    operations, and the record the constructor builds from the events
    each operation adds."""
    g = expected = draw(_records(1))
    for op in draw(st.lists(st.sampled_from(("birth", "spawn", "upgrade", "child", "transfer")),
                            max_size=12)):
        if op in ("birth", "spawn", "child"):
            ev = draw(_spawns if op == "spawn" else _births)
            append = {"birth": record_birth, "spawn": record_spawn, "child": child_genealogy}[op]
            g, expected = append(g, ev), Genealogy(expected.provenance, [*expected.events, ev])
        elif op == "upgrade":
            own = (g.provenance is not None or g.events) and draw(st.booleans())
            donor, ref_donor = (g, expected) if own else (draw(_donors),) * 2
            b = draw(_births)
            g = record_upgrade(g, donor, b)
            expected = Genealogy(expected.provenance, [*expected.events, UpgradeEvent(ref_donor), b])
        else:
            tgt, ref_tgt = draw(st.sampled_from(((None, None), (g, expected)))
                                | _records(1).map(lambda t: (t, t)))
            spawn, b = draw(_spawns), draw(_births)
            src_after, new_log = gen._transfer(g, tgt, spawn, b)
            ref_src = Genealogy(expected.provenance, [*expected.events, spawn])
            if draw(st.booleans()):
                g, expected = src_after, ref_src
            elif tgt is None:
                g, expected = new_log, Genealogy(ref_src.provenance, [*ref_src.events, b])
            else:
                g = new_log
                expected = Genealogy(ref_tgt.provenance, [*ref_tgt.events, UpgradeEvent(ref_src), b])
    return g, expected


@given(_appended())
def test_appends_match_the_checked_record_property(case):
    """A record the record operations build without the constructor's
    check is the record the constructor builds from the same events:
    equal, of equal hash, and written, counted and linted alike."""
    g, expected = case
    assert type(g) is Genealogy and type(g.events) is tuple
    assert g == expected and hash(g) == hash(expected)
    assert serialize(g) == serialize(expected)
    assert stats(g) == stats(expected) and lint(g) == lint(expected)
    assert _parse_quiet(serialize(g)) == g


_any_count = (
    st.integers(min_value=-3, max_value=10**8)
    | st.integers(min_value=10**4298, max_value=10**4299 - 1)
    | st.floats(allow_nan=False)
    | st.booleans()
    | st.fractions(max_denominator=4)
    | st.text("0123456789.-", max_size=4)
    | st.none()
)


@settings(max_examples=300, deadline=None)
@given(_timestamp, _token, _any_count, _any_count)
def test_every_event_built_round_trips(timestamp, locale, capacity, batch_count):
    """An event the constructor accepts, whatever its counts were given
    as, is read back equal from its own line; the rest are a ValueError
    naming the field."""
    try:
        ev = GenealogyEvent(EventKind.SPAWN, timestamp, locale, capacity, batch_count)
    except ValueError as exc:
        assert str(exc).startswith(("capacity: expected ", "batch_count: expected "))
        return
    g = Genealogy(events=(ev,))
    assert _parse_quiet(serialize(g)) == g


@given(_genealogies)
def test_canonical_idempotence_property(g):
    canon = serialize(g)
    assert serialize(_parse_quiet(canon)) == canon


@given(_genealogies, _event)
def test_monotone_counts_property(g, ev):
    base = stats(g)
    if ev.kind is EventKind.BIRTH:
        grown = stats(record_birth(g, ev))
        assert grown.birth_count == base.birth_count + 1
        assert grown.spawn_count == base.spawn_count
    else:
        grown = stats(record_spawn(g, ev))
        assert grown.spawn_count == base.spawn_count + 1
        assert grown.birth_count == base.birth_count
    assert grown.upgrade_count == base.upgrade_count


@given(_genealogies, _genealogies, _event.filter(lambda e: e.kind is EventKind.BIRTH))
def test_upgrade_counts_property(host, donor, rebirth):
    base = stats(host)
    donor_stats = stats(donor)
    grown = stats(record_upgrade(host, donor, rebirth))
    assert grown.upgrade_count == base.upgrade_count + donor_stats.upgrade_count + 1
    assert grown.birth_count == base.birth_count + donor_stats.birth_count + 1
    assert grown.spawn_count == base.spawn_count + donor_stats.spawn_count


@given(_genealogies, _event.filter(lambda e: e.kind is EventKind.BIRTH))
def test_child_never_has_spawns_after_final_birth(parent, b):
    child = child_genealogy(parent, b)
    assert own_spawn_count(child) == 0
    assert child.events[-1] == b
    assert child.events[:-1] == parent.events


# ---------------------------------------------------------------------------
# batch serialization over shared structure


def _reference_lines(g: Genealogy, level: int, lines: list) -> None:
    """The canonical layout, spelled out field by field."""
    pad = "  " * level
    for ev in g.events:
        if isinstance(ev, UpgradeEvent):
            line = pad + "u"
            if ev.donor_has_provenance:
                line += " p"
            h = ev.donor.provenance
            if h is not None:
                line += f" {h.label} {h.build_date} {h.locale} - {h.suite} - {h.arch}"
            lines.append(line)
            _reference_lines(ev.donor, level + 1, lines)
            continue
        minutes = int(ev.timestamp.utcoffset().total_seconds()) // 60
        offset = f"{'-' if minutes < 0 else '+'}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"
        tag = "i" if ev.kind is EventKind.BIRTH else "s"
        lines.append(
            f"{pad}{tag} {ev.timestamp:%Y-%m-%d %H:%M:%S}{offset} - {ev.locale}"
            f" - {ev.capacity} - {str(ev.batch_count).rjust(10)}"
        )


def _reference_text(g: Genealogy) -> str:
    lines = []
    h = g.provenance
    if h is not None:
        lines.append(f"p {h.label} {h.build_date} {h.locale} - {h.suite} - {h.arch}")
    _reference_lines(g, 0, lines)
    return "".join(line + "\n" for line in lines)


@st.composite
def _shared_histories(draw, twins=False):
    """Records grown from each other by the record operations, drawing on
    a few event objects, so events and whole donors recur across records
    and at several nesting levels.  With ``twins``, each event also
    comes at its own instant written at another UTC offset."""
    births = draw(
        st.lists(_event.map(lambda e: dataclasses.replace(e, kind=EventKind.BIRTH)),
                 min_size=1, max_size=3)
    )
    spawns = draw(
        st.lists(_event.map(lambda e: dataclasses.replace(e, kind=EventKind.SPAWN)),
                 min_size=1, max_size=3)
    )
    if twins:
        births, spawns = (
            events + [
                dataclasses.replace(e, timestamp=e.timestamp.astimezone(draw(_offset)))
                for e in events
            ]
            for events in (births, spawns)
        )
    pool = [Genealogy(provenance=draw(st.none() | _header))]
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        op = draw(st.sampled_from(("birth", "spawn", "upgrade", "child")))
        host = draw(st.sampled_from(pool))
        b = draw(st.sampled_from(births))
        if op == "spawn":
            pool.append(record_spawn(host, draw(st.sampled_from(spawns))))
        elif op == "child":
            pool.append(child_genealogy(host, b))
        elif op == "upgrade":
            donor = draw(st.sampled_from(pool))
            if donor.provenance is None and not donor.events:
                donor = record_birth(donor, b)  # an empty donor has no text form
            pool.append(record_upgrade(host, donor, b))
        else:
            pool.append(record_birth(host, b))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@given(_shared_histories())
def test_render_matches_serialize_property(records):
    """One ``_render`` call over records that share events and donor
    blocks writes each record as ``serialize`` writes it alone, and its
    escaped pieces as that text escaped whole."""
    texts = list(map("".join, gen._render(records)))
    assert texts == [serialize(g) for g in records]
    assert texts == [_reference_text(g) for g in records]
    escaped = list(gen._render(records, escaped=True))
    assert all(type(pieces) is _Escaped for pieces in escaped)
    assert list(map("".join, escaped)) == [_escape(text) for text in texts]
    for g, text in zip(records, texts):
        assert _parse_quiet(text) == g


def _nesting_levels(text: str) -> list:
    """Each line's indentation in levels (two spaces each)."""
    return [(len(line) - len(line.lstrip(" "))) // 2 for line in text.splitlines()]


def test_serialize_5000_nested_upgrades():
    depth = 5000
    g = Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),))
    for _ in range(depth):
        g = Genealogy(events=(UpgradeEvent(donor=g),))
    inner = g.events[0].donor
    # lengths and levels only: dataclass equality recurses once per level
    for text, top in zip(map("".join, gen._render([g, inner])), (depth, depth - 1)):
        lines = text.splitlines()
        assert len(lines) == top + 1
        assert _nesting_levels(text) == list(range(top + 1))
        assert all(line.lstrip(" ") == "u" for line in lines[:-1])
        assert lines[-1].lstrip(" ").startswith("i 2013-02-17 13:01:38+00:00 - ")


# a header label that JSON escapes: a non-ASCII letter, a quote and a tab
_ESCAPED_HEADER = ProvenanceHeader(
    'Démo "Live"\t1.0', datetime.date(2013, 5, 9), "fr_FR.UTF-8", "wheezy", "i386"
)


@given(_shared_histories())
def test_escaped_render_is_json_of_serialize_property(records):
    odd = Genealogy(_ESCAPED_HEADER, records[-1].events)
    records = [*records, odd, record_upgrade(records[0], odd, birth("2013-05-10 09:00:00+02:00"))]
    texts = ['"' + "".join(pieces) + '"' for pieces in gen._render(records, escaped=True)]
    assert texts == [json.dumps(serialize(g)) for g in records]


# ---------------------------------------------------------------------------
# reference copies of the recursive walks, one Python frame per level; the
# iterative parse, stats and lint must agree with them exactly


def _reference_tokenize(text: str):
    """The tokenizer ``parse`` was first built on: the non-blank lines as
    ``(lineno, indent, tag, payload)`` tuples.  It yields them one at a
    time, so a line is refused only when the reader reaches it."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        stripped = line.lstrip(" ")
        if stripped[0] == "\t" or "\t" in line[: len(line) - len(stripped)]:
            raise GenealogyParseError(lineno, "tab in indentation")
        indent = len(line) - len(stripped)
        tag, _, payload = stripped.partition(" ")
        if tag not in ("p", "i", "s", "u"):
            raise GenealogyParseError(lineno, f"unknown line tag {_shown(tag)}")
        yield lineno, indent, tag, payload.strip()


class _Tokens:
    """``_reference_tokenize``'s tokens by index, each read when first
    asked for; None past the last."""

    def __init__(self, text: str):
        self._read = _reference_tokenize(text)
        self._seen: list = []

    def __getitem__(self, i):
        while len(self._seen) <= i:
            tok = next(self._read, None)
            if tok is None:
                return None
            self._seen.append(tok)
        return self._seen[i]


def _reference_parse_record(toks, i, base_indent, inline_prov):
    provenance = inline_prov
    events: list = []
    while toks[i] is not None and toks[i][1] >= base_indent:
        lineno, indent, tag, payload = toks[i]
        if tag == "p":
            if provenance is not None:
                raise GenealogyParseError(lineno, "provenance already given")
            if events:
                raise GenealogyParseError(lineno, "provenance header must precede events")
            provenance = gen._parse_provenance(payload, lineno, {})
            i += 1
        elif tag in ("i", "s"):
            events.append(gen._parse_event(lineno, tag, payload, {}))
            i += 1
        else:
            has_p = False
            desc_text = payload
            if desc_text == "p" or desc_text.startswith("p "):
                has_p = True
                desc_text = desc_text[1:].strip()
            if has_p and not desc_text:
                raise GenealogyParseError(lineno, "provenance descriptor expected after 'u p'")
            donor_prov = gen._parse_provenance(desc_text, lineno, {}) if desc_text else None
            if toks[i + 1] is not None and toks[i + 1][1] > indent:
                donor, i = _reference_parse_record(toks, i + 1, toks[i + 1][1], donor_prov)
            else:
                donor = Genealogy(provenance=donor_prov)
                i += 1
            if donor.provenance is None and not donor.events:
                raise GenealogyParseError(
                    lineno, "upgrade with no donor events and no descriptor"
                )
            try:
                events.append(UpgradeEvent(donor=donor, donor_has_provenance=has_p))
            except ValueError as exc:
                raise GenealogyParseError(lineno, str(exc)) from None
    return Genealogy(provenance=provenance, events=tuple(events)), i


def _reference_parse(text: str) -> Genealogy:
    toks = _Tokens(text)
    record, i = _reference_parse_record(toks, 0, 0, None)
    assert toks[i] is None
    return record


def _reference_stats(g: Genealogy) -> LineageStats:
    counts = {"i": 0, "s": 0, "u": 0, "p": 0 if g.provenance is None else 1}
    depth = 0
    stamps = []

    def visit(events, level):
        nonlocal depth
        for ev in events:
            if isinstance(ev, GenealogyEvent):
                counts[ev.kind.value] += 1
                stamps.append(ev.timestamp)
            else:
                counts["u"] += 1
                counts["p"] += bool(ev.donor_has_provenance)
                depth = max(depth, level + 1)
                visit(ev.donor.events, level + 1)

    visit(g.events, 0)
    return LineageStats(
        birth_count=counts["i"],
        spawn_count=counts["s"],
        upgrade_count=counts["u"],
        provenance_count=counts["p"],
        max_embedding_depth=depth,
        first_event=min(stamps, default=None),
        last_event=max(stamps, default=None),
    )


def _reference_lint(g: Genealogy) -> list:
    messages = []

    def visit(record, where):
        prev = None
        births_before_upgrade = 0
        seen_upgrade = False
        for idx, ev in enumerate(record.events):
            if isinstance(ev, GenealogyEvent):
                if prev is not None and ev.timestamp < prev:
                    messages.append(
                        f"{where}: event {idx} timestamp {ev.timestamp.isoformat(sep=' ')}"
                        f" precedes {prev.isoformat(sep=' ')}"
                    )
                prev = ev.timestamp
                if not seen_upgrade and ev.kind is EventKind.BIRTH:
                    births_before_upgrade += 1
            else:
                prev = None
                seen_upgrade = True
                visit(ev.donor, f"{where}/donor[{idx}]")
        if seen_upgrade and births_before_upgrade > 1:
            messages.append(f"{where}: {births_before_upgrade} births before the first upgrade")

    visit(g, "record")
    return messages


def _outcome(parser, text):
    """The record ``parser`` builds, or the line and reason it refuses."""
    try:
        return parser(text)
    except GenealogyParseError as exc:
        return ("refused", exc.lineno, exc.reason)


def _check_against_reference(text):
    """parse, serialize, stats and lint against the recursive reference
    copies, which build a fresh object per line.  Text and reprs show a
    UTC offset that == would overlook."""
    got = _outcome(_parse_quiet, text)
    want = _outcome(_reference_parse, text)
    assert got == want
    if isinstance(got, Genealogy):
        assert serialize(got) == _reference_text(want)
        assert repr(stats(got)) == repr(_reference_stats(want))
        assert lint(got) == _reference_lint(want)


@given(_shared_histories())
def test_walks_match_reference_on_shared_histories(records):
    for g in records:
        assert stats(g) == _reference_stats(g)
        assert lint(g) == _reference_lint(g)
        _check_against_reference(serialize(g))


_descriptor = _header.map(ProvenanceHeader.descriptor)
_stray_lines = st.one_of(
    st.just("u"),
    _descriptor.map(lambda d: f"u p {d}"),
    _descriptor.map(lambda d: f"u {d}"),
    _descriptor.map(lambda d: f"p {d}"),
    st.just("u p"),
    st.just("p p 2013-01-01 C - stable - amd64"),  # an unflagged donor labelled "p"
    st.just("i 2013-02-17 13:01:38+00:00 - C - 0 - 1"),
    st.just("x junk"),
    st.just("\ts 2013-02-17 13:01:38+00:00 - C - 1 - 1"),
)


def _mutate(draw, lines: list) -> str:
    """``lines`` with lines removed, repeated, swapped, re-indented or
    inserted: lenient indentation and every parse error."""
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("drop", "repeat", "swap", "indent", "insert")))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            pad = " " * draw(st.integers(0, 6))
            lines.insert(at, pad + draw(_stray_lines))
        elif op == "drop":
            del lines[at]
        elif op == "repeat":
            lines.insert(at, lines[at])
        elif op == "swap" and at + 1 < len(lines):
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
        elif op == "indent":
            body = lines[at].lstrip(" ")
            lines[at] = " " * draw(st.integers(0, 8)) + body
    return "\n".join(lines) + "\n"


@st.composite
def _mutated_texts(draw):
    source = draw(_genealogies | _shared_histories().map(lambda rs: rs[-1]))
    return _mutate(draw, serialize(source).splitlines())


@settings(max_examples=300)
@given(_mutated_texts())
def test_parse_matches_reference_on_mutated_text(text):
    _check_against_reference(text)


_separators = st.sampled_from((" - ", "  - ", " -   ", "\t-\t", " -\t"))


@st.composite
def _noisy_texts(draw):
    """Valid text for a shared history, with its donors repeated and
    equal instants written at different UTC offsets, spelled as a hand
    would: every nesting level indented by its own 1 to 4 spaces, field
    separators, the batch column and line ends varied line by line.
    Half of the texts are then mutated as above, so a refused line may
    repeat an earlier line's event."""
    widths = draw(st.lists(st.integers(1, 4), min_size=64, max_size=64))
    lines = []
    for line in serialize(draw(_shared_histories(twins=True))[-1]).splitlines():
        body = line.lstrip(" ")
        level = (len(line) - len(body)) // 2
        fields = body.split(" - ")
        if body[0] in "is":
            fields[3] = fields[3].strip() if draw(st.booleans()) else fields[3]
        body = fields[0]
        for field in fields[1:]:
            body += draw(_separators) + field
        end = draw(st.sampled_from(("", " ", "\r")))
        lines.append(" " * sum(widths[:level]) + body + end)
    if draw(st.booleans()):
        return _mutate(draw, lines)
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(_noisy_texts())
def test_parse_matches_reference_on_noisy_text(text):
    _check_against_reference(text)


# ---------------------------------------------------------------------------
# deep nesting: every walk is iterative, so depth is bounded only by memory

_DEEP = 5000
_DEEP_STATS = LineageStats(
    birth_count=1,
    spawn_count=1,
    upgrade_count=_DEEP,
    # the top record's header, plus the 2,499 odd donors below it
    provenance_count=2500,
    max_embedding_depth=_DEEP,
    first_event=ts("2013-02-17 13:01:38+00:00"),
    last_event=ts("2013-02-17 13:11:38+00:00"),
)


def _nested(depth: int, innermost: Genealogy) -> Genealogy:
    """``depth`` upgrades, each donor embedding the next down to
    ``innermost``; every other level carries a provenance header."""
    header = ProvenanceHeader(
        "Demo Live 1.0", datetime.date(2013, 1, 1), "en_US.UTF-8", "stable", "amd64"
    )
    g = innermost
    for level in range(depth):
        g = Genealogy(provenance=header if level % 2 else None, events=(UpgradeEvent(g),))
    return g


@pytest.fixture(scope="module")
def deep_text() -> str:
    innermost = (birth("2013-02-17 13:01:38+00:00"), spawn("2013-02-17 13:11:38+00:00"))
    return serialize(_nested(_DEEP, Genealogy(events=innermost)))


def test_parse_5000_nested_upgrades_round_trip(deep_text):
    with warnings.catch_warnings():
        warnings.simplefilter("error", GenealogyWarning)
        back = parse(deep_text)
    # text and counts only: dataclass equality recurses once per level
    assert serialize(back) == deep_text
    assert stats(back) == _DEEP_STATS


def test_cli_reads_5000_nested_upgrades(deep_text, tmp_path, capsys):
    path = tmp_path / "deep.log"
    path.write_text(deep_text)
    assert dispatch(["genealogy-stats", str(path)]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (
        f"births=1 spawns=1 upgrades={_DEEP}\n"
        "provenance_headers=2500\n"
        f"max_embedding_depth={_DEEP}\n"
        "first_event=2013-02-17 13:01:38+00:00\n"
        "last_event=2013-02-17 13:11:38+00:00\n",
        "",
    )
    assert dispatch(["genealogy-parse", str(path)]) == 0
    assert capsys.readouterr() == (deep_text, "")


def test_lint_5000_levels_builds_locations_only_for_messages():
    late, early = birth("2013-02-17 13:11:38+00:00"), birth("2013-02-17 13:01:38+00:00")
    g = _nested(_DEEP, Genealogy(events=(late, early)))
    tracemalloc.start()
    try:
        messages = lint(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert messages == [
        "record" + "/donor[0]" * _DEEP + ": event 1 timestamp 2013-02-17 13:01:38+00:00"
        " precedes 2013-02-17 13:11:38+00:00"
    ]
    # a location string per level would take about 150 MB
    assert peak < 20 * 2**20


def test_serialize_of_5000_nested_upgrades_copies_no_inner_text_per_level():
    """An unshared chain of donors is written straight into one text:
    rendering it takes no copy of the inner text per level."""
    g = _nested(_DEEP, Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),)))
    tracemalloc.start()
    try:
        text = serialize(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > _DEEP**2  # two spaces per level on each of the lines
    # a copy of the inner text per level would take tens of gigabytes
    assert peak < 3 * len(text)


def test_no_genealogy_function_calls_itself():
    """Every walk keeps its own stack, so nesting depth never reaches
    Python's recursion limit (the 5,000-level tests above)."""
    tree = ast.parse(Path(gen.__file__).read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # f(...), or self.f(...) / cls.f(...); super().f(...) is another f
            called = {
                node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and (
                    isinstance(node.func, ast.Name)
                    or isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                )
            }
            assert fn.name not in called, f"{fn.name} calls itself"


# ---------------------------------------------------------------------------
# shared history: cost follows distinct records, not their copies


def _distinct_objects(g: Genealogy):
    """The distinct event and donor record objects in ``g``, by identity."""
    events, records = {}, {id(g): g}
    stack = [g]
    while stack:
        for ev in stack.pop().events:
            if isinstance(ev, UpgradeEvent):
                if id(ev.donor) not in records:
                    records[id(ev.donor)] = ev.donor
                    stack.append(ev.donor)
            else:
                events[id(ev)] = ev
    return events, records


def test_stats_and_lint_on_2_to_the_24_expanded_events():
    """25 levels, each embedding the level below twice: 2**24 events
    written out, 25 distinct records."""
    g = Genealogy(events=(birth("2013-02-17 13:01:38+00:00"),))
    for _ in range(24):
        g = Genealogy(events=(UpgradeEvent(g), UpgradeEvent(g)))
    assert stats(g) == LineageStats(
        birth_count=2**24,
        upgrade_count=2**25 - 2,
        max_embedding_depth=24,
        first_event=ts("2013-02-17 13:01:38+00:00"),
        last_event=ts("2013-02-17 13:01:38+00:00"),
    )
    assert lint(g) == []


def test_parse_shares_events_and_donors_across_copies():
    """Fifty copies of one donor block, spelled five ways, parse to one
    donor record; every event line to one object per canonical line."""
    head = "p Demo Live 1.0 2013-01-01 en_US.UTF-8 - stable - amd64"
    donor = (
        "i 2013-02-17 13:01:38+00:00 - C - 4023296 - 1",
        "s 2013-02-17 13:11:38+00:00 - C - 4023296 - 2",
        "s 2013-02-17 14:11:38+01:00 - C - 4023296 - 2",
    )
    lines = ["i 2013-02-17 12:00:00+00:00 - C - 4023296 - 1"]
    for k in range(50):
        sep = ("  -  ", " - ", "\t-  ", " -\t", "   -   ")[k % 5]
        pad = " " * (1 + k % 4)
        lines.append(f"u {head}")
        lines.extend(pad + line.replace(" - ", sep) for line in donor)
        lines.append("i 2013-02-17 13:11:38+00:00 - C - 4023296 - 1")
    g = parse("\n".join(lines))
    events, records = _distinct_objects(g)
    canonical = {line.strip() for line in serialize(g).splitlines() if line.strip()[0] in "is"}
    assert len(events) == len(canonical) == 5
    assert len(records) == 2  # the top record and one shared donor
    assert len({id(ev) for ev in g.events}) == 3


@pytest.fixture(scope="module")
def generated_log() -> str:
    """A noisy log of over 36,000 lines from the benchmark's generator,
    which models the format without this package: separators, donor
    indentation, batch columns and line ends vary, blank lines fall
    between, and donor blocks recur at many depths."""
    path = Path(__file__).parents[1] / "bench" / "genlog.py"
    spec = importlib.util.spec_from_file_location("bench_genlog", path)
    genlog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(genlog)
    rng = random.Random(1)
    log = genlog.HistoryMaker(rng).history(36_000, genlog.DESCRIPTORS[0])
    text = genlog.noisy_text(log, rng, 2)
    assert text.count("\n") >= 36_000
    return text


def test_parse_builds_each_distinct_event_once(generated_log, monkeypatch):
    """An event is built once per distinct canonical line, not once per
    spelling: a new spelling is read and looked up before anything is
    built."""
    built = []
    post_init = GenealogyEvent.__post_init__
    monkeypatch.setattr(
        GenealogyEvent, "__post_init__", lambda ev: built.append(ev) or post_init(ev)
    )
    g = parse(generated_log)
    events, _ = _distinct_objects(g)
    canonical = {line.strip() for line in serialize(g).splitlines() if line.strip()[0] in "is"}
    assert len(built) == len(events) == len(canonical)
    assert len(canonical) * 100 < generated_log.count("\n")


def test_parse_peaks_below_three_times_the_text(generated_log):
    """One pass over the lines keeps no per-line token list."""
    tracemalloc.start()
    try:
        parse(generated_log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(generated_log)
