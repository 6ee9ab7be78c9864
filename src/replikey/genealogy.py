"""Genealogy logs carried by self-replicating live USB keys.

A key's genealogy is a line-oriented text record of its history: an
optional provenance header describing the built image, followed by the
events the key went through.  Line tags:

    p   provenance header ("<label> <build-date> <locale> - <suite> - <arch>")
    i   birth: the key was (re)initialised at a timestamp
    s   spawn: the key cloned itself onto another key
    u   upgrade: another key rewrote this key's system; the donor key's
        own genealogy is embedded, indented, below the "u" line

A "u" line may inline the donor's provenance descriptor, prefixed with
"p" when the donor record carried a proper header.  Event lines hold
"timestamp - locale - capacity - batch" fields, where capacity is the
device size in 1 KiB blocks and batch is the number of keys written in
one clone operation (right-aligned to a 10-character column).

Parsing is lenient about indentation: after a "u" line, the first
following deeper line fixes the donor block's level, and any shallower
line returns attribution to the containing record.  Serialization is
canonical: two spaces per nesting level, host events at the record's
own level, donor provenance inlined on the "u" line.
"""

from __future__ import annotations

import datetime
import enum
import re
import warnings
from dataclasses import dataclass, replace

from .units import _Escaped, _count, _escape, _expect, _int_text, _shown

__all__ = [
    "EventKind",
    "ProvenanceHeader",
    "GenealogyEvent",
    "UpgradeEvent",
    "Genealogy",
    "LineageStats",
    "GenealogyParseError",
    "GenealogyWarning",
    "parse",
    "serialize",
    "record_birth",
    "record_spawn",
    "record_upgrade",
    "child_genealogy",
    "stats",
    "own_spawn_count",
    "lint",
]

_TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}[+-]\d{2}:\d{2}$", re.ASCII)
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_FIELD_SEP_RE = re.compile(r"\s+-\s+")
_SEP_IN_TEXT_RE = re.compile(r"\s-\s")
_BATCH_SPEC = ">10"  # the batch count, right-aligned in a 10-character column
_INDENT = "  "


class GenealogyParseError(ValueError):
    """Raised for malformed genealogy text; carries the 1-based line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


class GenealogyWarning(UserWarning):
    """Lint-level issue in an accepted genealogy (clock drift and the like)."""


class EventKind(enum.Enum):
    BIRTH = "i"
    SPAWN = "s"


def _check_field(name: str, value: str, allow_space: bool = False) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string: {_shown(value)}")
    if value != value.strip():
        raise ValueError(f"{name} must not have surrounding whitespace: {_shown(value)}")
    if "\n" in value or "\r" in value:
        raise ValueError(f"{name} must be a single line: {_shown(value)}")
    if _SEP_IN_TEXT_RE.search(value):
        raise ValueError(f"{name} must not contain the field separator ' - ': {_shown(value)}")
    if value.startswith("-") or value.endswith("-"):
        # a leading or trailing dash would fuse with the ' - ' separators
        # around the field and change how the line splits back
        raise ValueError(f"{name} must not start or end with '-': {_shown(value)}")
    if not allow_space and len(value.split()) > 1:
        raise ValueError(f"{name} must be a single token: {_shown(value)}")


def _timestamp(name: str, value) -> datetime.datetime:
    """``value`` if it is a time a log line can hold: an offset-aware
    datetime in whole seconds at a whole-minute UTC offset, the only
    kind its text form writes.  Else a ValueError naming ``name``."""
    offset = value.utcoffset() if isinstance(value, datetime.datetime) else None
    if offset is None or value.microsecond or offset.seconds % 60 or offset.microseconds:
        shown = _shown(value, str if isinstance(value, datetime.datetime) else repr)
        what = "an offset-aware time in whole seconds at a whole-minute UTC offset"
        raise ValueError(f"{name}: expected {what}, got {shown}")
    return value


@dataclass(frozen=True)
class ProvenanceHeader:
    """Descriptor of a built key image: product label, build date, build
    locale, distribution suite, and architecture."""

    label: str
    build_date: datetime.date
    locale: str
    suite: str
    arch: str

    def __post_init__(self):
        _check_field("label", self.label, allow_space=True)
        if not isinstance(self.build_date, datetime.date) or isinstance(
            self.build_date, datetime.datetime
        ):
            raise ValueError(f"build_date must be a date: {self.build_date!r}")
        _check_field("locale", self.locale)
        _check_field("suite", self.suite, allow_space=True)
        _check_field("arch", self.arch, allow_space=True)

    def descriptor(self) -> str:
        """The single-line serialized form (without a leading tag)."""
        return (
            f"{self.label} {self.build_date.isoformat()} {self.locale}"
            f" - {self.suite} - {self.arch}"
        )

    @classmethod
    def from_descriptor(cls, text: str) -> "ProvenanceHeader":
        """Parse a descriptor line back into a header.

        Raises ValueError when the text does not have the
        "<label> <date> <locale> - <suite> - <arch>" shape.
        """
        chunks = _FIELD_SEP_RE.split(text.strip())
        if len(chunks) != 3:
            raise ValueError(f"expected 3 ' - '-separated fields, got {len(chunks)}")
        head, suite, arch = chunks
        parts = head.rsplit(None, 2)
        if len(parts) != 3:
            raise ValueError(f"descriptor head too short: {_shown(head)}")
        label, date_text, locale = parts
        if not _DATE_RE.match(date_text):
            raise ValueError(f"malformed build date: {_shown(date_text)}")
        return cls(
            label=label,
            build_date=datetime.date.fromisoformat(date_text),
            locale=locale,
            suite=suite,
            arch=arch,
        )


@dataclass(frozen=True)
class GenealogyEvent:
    """A birth ("i") or spawn ("s") with its timestamp, the locale in use,
    the device capacity in 1 KiB blocks, and the clone batch size."""

    kind: EventKind
    timestamp: datetime.datetime
    locale: str
    capacity: int
    batch_count: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, EventKind):
            raise ValueError(f"kind must be an EventKind, got {self.kind!r}")
        _timestamp("timestamp", self.timestamp)
        _check_field("locale", self.locale)
        _count("capacity", self.capacity, 1)
        _count("batch_count", self.batch_count, 1)


@dataclass(frozen=True)
class UpgradeEvent:
    """Another key installed its system over this one.  The donor's own
    genealogy at the moment of the upgrade is embedded by value;
    ``donor_has_provenance`` records whether the donor descriptor was
    written as a proper "p" header on the "u" line.

    Raises ValueError for an unflagged donor whose label is "p" or
    starts with "p ": its "u" line would read back as a flagged one."""

    donor: "Genealogy"
    donor_has_provenance: bool | None = None

    def __post_init__(self):
        if not isinstance(self.donor, Genealogy):
            raise ValueError("donor must be a Genealogy")
        provenance = self.donor.provenance
        if self.donor_has_provenance is None:
            object.__setattr__(self, "donor_has_provenance", provenance is not None)
        _expect("donor_has_provenance", self.donor_has_provenance, bool)
        if self.donor_has_provenance and provenance is None:
            raise ValueError("donor_has_provenance requires a donor provenance header")
        if not self.donor_has_provenance and provenance is not None and (
            provenance.label == "p" or provenance.label.startswith("p ")
        ):
            raise ValueError(
                "an unflagged donor label cannot be 'p' or start with 'p ': "
                f"{provenance.label!r}"
            )


@dataclass(frozen=True, slots=True)
class Genealogy:
    """An immutable genealogy record: optional provenance header plus an
    ordered run of events (births, spawns, embedded upgrades), given as
    any iterable of them.  The record operations build the records they
    return without this check, having checked the events they add."""

    provenance: ProvenanceHeader | None = None
    events: tuple = ()

    def __post_init__(self):
        if self.provenance is not None:
            _expect("provenance", self.provenance, ProvenanceHeader)
        try:
            events = tuple(self.events)
        except TypeError:
            raise ValueError(f"events: expected an iterable, got {_shown(self.events)}") from None
        for ev in events:
            if not isinstance(ev, (GenealogyEvent, UpgradeEvent)):
                raise ValueError(f"events: unexpected event type: {_shown(ev)}")
        object.__setattr__(self, "events", events)


# the slots' own setters, which build a record without its check
_set_provenance, _set_events = Genealogy.provenance.__set__, Genealogy.events.__set__


@dataclass(frozen=True)
class LineageStats:
    """Counts over a genealogy, embedded donor records included."""

    birth_count: int = 0
    spawn_count: int = 0
    upgrade_count: int = 0
    provenance_count: int = 0
    max_embedding_depth: int = 0
    first_event: datetime.datetime | None = None
    last_event: datetime.datetime | None = None


# ---------------------------------------------------------------------------
# parsing


def _parse_event(lineno: int, tag: str, payload: str, events: dict) -> GenealogyEvent:
    """The event an "i" or "s" line's payload spells: the one ``events`` files under its
    canonical line, read and looked up before anything is built, else one built and filed."""
    fields = _FIELD_SEP_RE.split(payload)
    if len(fields) != 4:
        raise GenealogyParseError(lineno, f"expected 4 event fields, got {len(fields)}")
    ts_text, locale, capacity_text, batch_text = (f.strip() for f in fields)
    if not _TIMESTAMP_RE.match(ts_text):
        raise GenealogyParseError(lineno, f"malformed timestamp {_shown(ts_text)}")
    try:
        timestamp = datetime.datetime.fromisoformat(ts_text)
    except ValueError as exc:
        raise GenealogyParseError(lineno, f"malformed timestamp {ts_text!r}: {exc}") from None
    try:
        capacity, batch = _int_text(capacity_text), _int_text(batch_text)
    except ValueError:
        raise GenealogyParseError(lineno, f"malformed integer field in {_shown(payload)}") from None
    kind = EventKind(tag)
    line = _event_line(kind, timestamp, locale, capacity, batch)
    ev = events.get(line)
    if ev is None:
        try:
            ev = events[line] = GenealogyEvent(kind, timestamp, locale, capacity, batch)
        except ValueError as exc:
            raise GenealogyParseError(lineno, str(exc)) from None
    return ev


def _parse_provenance(text: str, lineno: int, headers: dict) -> ProvenanceHeader:
    """The header a descriptor spells: the one ``headers`` files under this
    spelling or its canonical text, else one read and filed under both."""
    found = headers.get(text)
    if found is None:
        try:
            found = ProvenanceHeader.from_descriptor(text)
        except ValueError as exc:
            raise GenealogyParseError(lineno, f"malformed provenance descriptor: {exc}") from None
        found = headers[text] = headers.setdefault(found.descriptor(), found)
    return found


def _close_donor(stack: list, donors: dict) -> None:
    """Pop the innermost open donor block into an upgrade of its host.

    ``donors`` maps a block's header, flag and event ids to the upgrade
    built for it, so a block equal to one closed before reuses that
    object without building or checking it again.
    """
    _, provenance, events, lineno, has_p = stack.pop()
    key = (id(provenance), has_p, *map(id, events))
    upgrade = donors.get(key)
    if upgrade is None:
        if provenance is None and not events:
            raise GenealogyParseError(lineno, "upgrade with no donor events and no descriptor")
        donor = Genealogy(provenance=provenance, events=tuple(events))
        try:
            upgrade = donors[key] = UpgradeEvent(donor=donor, donor_has_provenance=has_p)
        except ValueError as exc:
            raise GenealogyParseError(lineno, str(exc)) from None
    stack[-1][2].append(upgrade)


def parse(text: bytes | str) -> Genealogy:
    """Parse genealogy text into a structured record.

    Accepts canonical output as well as hand-written indentation.  Raises
    GenealogyParseError (naming the line) for malformed input; emits
    GenealogyWarning for lint-level issues such as out-of-order
    timestamps.  The text is read in one pass, each line checked as it
    is reached, so of several malformed lines the first in reading order
    is reported.  Open records are kept on an explicit stack, so nesting
    depth is bounded only by memory.  Equal events and equal donor
    blocks parse to one shared object each: an event is built once per
    distinct event, a donor record once per distinct block, not once
    per copy.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GenealogyParseError(0, f"input is not valid UTF-8: {exc}") from None
    # intern tables: equal events, headers and donor blocks become one object each. An
    # event or header is filed under each spelling read and under its canonical text,
    # never under ==, which equates one instant at two UTC offsets
    event_table: dict = {}
    header_table: dict = {}
    donor_table: dict = {}
    # one frame per open record: [level, provenance, events, "u" lineno, has_p];
    # a record claims every line at least as deep as its level
    stack: list = [[0, None, [], 0, False]]
    # a "u" line opens a frame one level deeper, raised to the next line's if deeper
    opened = False  # the top frame was opened by the last line read
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        stripped = line.lstrip(" ")
        if not stripped or stripped.isspace():
            continue
        tag = stripped[0]
        if tag == "\t":
            raise GenealogyParseError(lineno, "tab in indentation")
        if tag not in "pisu" or stripped[1:2] not in ("", " "):
            shown = _shown(stripped.partition(" ")[0])
            raise GenealogyParseError(lineno, f"unknown line tag {shown}")
        indent = len(line) - len(stripped)
        if opened:
            opened = False
            stack[-1][0] = max(stack[-1][0], indent)
        while indent < stack[-1][0]:
            _close_donor(stack, donor_table)
        frame = stack[-1]
        if tag == "i" or tag == "s":
            ev = event_table.get(stripped)
            if ev is None:
                payload = stripped[2:].strip()
                ev = event_table[stripped] = _parse_event(lineno, tag, payload, event_table)
            frame[2].append(ev)
        elif tag == "p":
            if frame[1] is not None:
                raise GenealogyParseError(lineno, "provenance already given")
            if frame[2]:
                raise GenealogyParseError(lineno, "provenance header must precede events")
            frame[1] = _parse_provenance(stripped[2:].strip(), lineno, header_table)
        else:
            payload = stripped[2:].strip()
            has_p = payload == "p" or payload.startswith("p ")
            desc_text = payload[1:].strip() if has_p else payload
            if has_p and not desc_text:
                raise GenealogyParseError(lineno, "provenance descriptor expected after 'u p'")
            donor_prov = _parse_provenance(desc_text, lineno, header_table) if desc_text else None
            stack.append([indent + 1, donor_prov, [], lineno, has_p])
            opened = True
    while len(stack) > 1:
        _close_donor(stack, donor_table)
    record = Genealogy(provenance=stack[0][1], events=tuple(stack[0][2]))
    for message in lint(record):
        warnings.warn(message, GenealogyWarning, stacklevel=2)
    return record


# ---------------------------------------------------------------------------
# serialization


def _upgrade_line(ev: UpgradeEvent, indent: str) -> str:
    line = f"{indent}u"
    if ev.donor_has_provenance:
        line += " p"
    if ev.donor.provenance is not None:
        line += f" {ev.donor.provenance.descriptor()}"
    return line


def _event_line(kind: EventKind, timestamp, locale, capacity, batch_count) -> str:
    """The canonical line of an event with these fields, without indentation."""
    return (
        f"{kind._value_} {timestamp.isoformat(' ')}"
        f" - {locale} - {capacity} - {batch_count:{_BATCH_SPEC}}"
    )


def _render(records, escaped: bool = False):
    """Yield each record as text pieces: a list that joins to its
    ``serialize`` text, or with ``escaped`` an ``_Escaped`` list that
    joins to that text's body as a JSON string.  As in hash-consing, each
    line (event, level) is formatted once and each block (record, level)
    is walked once; a block written again is joined once from its first
    writing, one written once never is."""
    line, newline, kind = (_escape, "\\n", _Escaped) if escaped else (str, "\n", list)
    records = list(records)  # keeps every object alive, so ids stay unique
    # per level: id(event) -> its piece; level 0 also holds headers' "p" lines
    pieces: dict = {0: {}}
    # (id(record), level) -> first writing as (pieces, start, end), then its text
    blocks: dict = {}
    for g in records:
        out = kind()
        if (header := g.provenance) is not None:
            head = pieces[0].get(id(header)) or line(f"p {header.descriptor()}") + newline
            out.append(pieces[0].setdefault(id(header), head))
        # per open block: events left, level, pieces, key, start
        stack = [(iter(g.events), 0, out, (id(g), 0), len(out))]
        while stack:
            events, level, block, key, start = stack[-1]
            seen = pieces.setdefault(level, {})
            for ev in events:
                piece = seen.get(id(ev))
                upgrade = isinstance(ev, UpgradeEvent)
                if piece is None:
                    indent = _INDENT * level
                    text = _upgrade_line(ev, indent) if upgrade else indent + _event_line(
                        ev.kind, ev.timestamp, ev.locale, ev.capacity, ev.batch_count
                    )
                    piece = seen[id(ev)] = line(text) + newline
                block.append(piece)
                if upgrade:
                    found = blocks.get(donor := (id(ev.donor), level + 1))
                    if found is None:
                        stack.append((iter(ev.donor.events), level + 1, block, donor, len(block)))
                        break
                    if type(found) is tuple:  # written once before: join that writing
                        first, begin, end = found
                        found = blocks[donor] = "".join(first[begin:end])
                    block.append(found)
            else:
                stack.pop()
                blocks[key] = (block, start, len(block))
        yield out


def serialize(g: Genealogy) -> str:
    """Canonical text for a genealogy; ``parse(serialize(g))`` equals ``g``.

    Requires every embedded donor record to carry a descriptor or at
    least one event (a completely empty donor has no written form the
    parser accepts back).
    """
    return "".join(next(_render((g,))))


# ---------------------------------------------------------------------------
# record operations


def _append(g: Genealogy, name: str, ev, kind: EventKind, *before) -> Genealogy:
    """``g`` extended by ``before`` and then ``ev``, which must be a
    ``kind`` event, else a ValueError naming it ``name``.  ``g`` is a
    checked record and ``before`` holds checked events, so only ``ev``
    is checked: an append costs a tuple copy, not a check of every event."""
    if not isinstance(ev, GenealogyEvent) or ev.kind is not kind:
        raise ValueError(f"{name} must be a {kind.name.title()} event, got {_shown(ev)}")
    if not isinstance(g, Genealogy):
        raise ValueError(f"expected a Genealogy to extend, got {_shown(g)}")
    out = object.__new__(Genealogy)
    _set_provenance(out, g.provenance)
    _set_events(out, g.events + (*before, ev))
    return out


def record_birth(g: Genealogy, ev: GenealogyEvent) -> Genealogy:
    """Append a birth event; returns the extended record."""
    return _append(g, "event", ev, EventKind.BIRTH)


def record_spawn(g: Genealogy, ev: GenealogyEvent) -> Genealogy:
    """Append a spawn event; returns the extended record."""
    return _append(g, "event", ev, EventKind.SPAWN)


def record_upgrade(host: Genealogy, donor: Genealogy, rebirth: GenealogyEvent) -> Genealogy:
    """Record that ``donor`` installed its system over the host: the donor's
    genealogy is embedded as-is, followed by the host's rebirth."""
    return _append(host, "rebirth", rebirth, EventKind.BIRTH, UpgradeEvent(donor=donor))


def child_genealogy(parent: Genealogy, birth: GenealogyEvent) -> Genealogy:
    """The record a fresh clone starts with: the parent's full history
    plus the clone's own birth.  The parent record is not touched."""
    return _append(parent, "birth", birth, EventKind.BIRTH)


def _transfer(src: Genealogy, tgt: Genealogy | None, spawn, birth) -> tuple:
    """The log half of one key writing itself onto another: ``src``
    records ``spawn``, and the new log is a child of it born at
    ``birth`` (``tgt`` None, blank media) or ``tgt`` upgraded from it.
    Returns (src_after, new_log)."""
    src = record_spawn(src, spawn)
    if tgt is None:
        return src, child_genealogy(src, birth)
    return src, record_upgrade(tgt, src, birth)


# ---------------------------------------------------------------------------
# analysis


def _bottom_up(g: Genealogy) -> list:
    """Each distinct record object in ``g`` once, every donor before the
    records that embed it, so ``g`` comes last.  A donor shared by many
    upgrades is visited once; the walk keeps an explicit stack, so
    nesting depth is bounded only by memory."""
    order: list = []
    seen = {id(g)}
    stack = [(g, iter(g.events))]
    while stack:
        for ev in stack[-1][1]:
            if isinstance(ev, UpgradeEvent) and id(ev.donor) not in seen:
                seen.add(id(ev.donor))
                stack.append((ev.donor, iter(ev.donor.events)))
                break
        else:
            order.append(stack.pop()[0])
    return order


def stats(g: Genealogy) -> LineageStats:
    """Lineage counters over the whole record, embedded donors included.

    Provenance is counted per written "p" tag: the record's own header
    plus every upgrade whose donor descriptor was "p"-tagged on its "u"
    line.  first/last are the extreme timestamps over all events,
    embedded donors included; of equal instants, the first written.
    Each distinct donor record is counted once and its counts reused.
    """
    # per record: its stats, leaving out the record's own header
    memo: dict = {}
    for record in _bottom_up(g):
        births = spawns = upgrades = provenances = depth = 0
        first: datetime.datetime | None = None
        last: datetime.datetime | None = None
        for ev in record.events:
            if isinstance(ev, UpgradeEvent):
                sub = memo[id(ev.donor)]
                births += sub.birth_count
                spawns += sub.spawn_count
                upgrades += sub.upgrade_count + 1
                provenances += sub.provenance_count + bool(ev.donor_has_provenance)
                depth = max(depth, sub.max_embedding_depth + 1)
                low, high = sub.first_event, sub.last_event
                if low is None:
                    continue
            else:
                if ev.kind is EventKind.BIRTH:
                    births += 1
                else:
                    spawns += 1
                low = high = ev.timestamp
            if first is None or low < first:
                first = low
            if last is None or high > last:
                last = high
        memo[id(record)] = LineageStats(
            births, spawns, upgrades, provenances, depth, first, last
        )
    result = memo[id(g)]
    if g.provenance is None:
        return result
    return replace(result, provenance_count=result.provenance_count + 1)


def own_spawn_count(g: Genealogy) -> int:
    """Spawns performed by the key itself: top-level spawn events after
    its last birth (everything earlier is inherited ancestor history)."""
    count = 0
    for ev in g.events:
        if isinstance(ev, GenealogyEvent):
            if ev.kind is EventKind.BIRTH:
                count = 0
            else:
                count += 1
        else:
            count = 0  # the rebirth that follows restarts the key's own run
    return count


def lint(g: Genealogy) -> list[str]:
    """Data-quality warnings: out-of-order timestamps within a contiguous
    event run, and more than one birth before the record's first upgrade.

    The birth check only applies to records that contain an upgrade; a
    clone chain without upgrades legitimately accumulates one inherited
    birth per generation.  Each distinct donor record is checked once;
    its location ("record/donor[i]/...") is spelled out only in the
    messages it yields.
    """
    # per record, in written order: a message relative to the record, or
    # (index, findings) for an upgrade whose donor has findings
    memo: dict = {}
    for record in _bottom_up(g):
        found: list = []
        prev = None
        births = 0
        upgraded = False
        for idx, ev in enumerate(record.events):
            if isinstance(ev, UpgradeEvent):
                prev = None  # a new contiguous run starts after the upgrade
                upgraded = True
                if sub := memo[id(ev.donor)]:
                    found.append((idx, sub))
                continue
            if prev is not None and ev.timestamp < prev:
                found.append(
                    f"event {idx} timestamp {ev.timestamp.isoformat(sep=' ')}"
                    f" precedes {prev.isoformat(sep=' ')}"
                )
            prev = ev.timestamp
            if not upgraded and ev.kind is EventKind.BIRTH:
                births += 1
        if upgraded and births > 1:
            found.append(f"{births} births before the first upgrade")
        memo[id(record)] = found
    messages: list[str] = []
    # (donor index, findings) per open record, the top one's index unused
    stack = [(None, iter(memo[id(g)]))]
    while stack:
        for item in stack[-1][1]:
            if isinstance(item, str):
                where = "record" + "".join(f"/donor[{i}]" for i, _ in stack[1:])
                messages.append(f"{where}: {item}")
            else:
                stack.append((item[0], iter(item[1])))
                break
        else:
            stack.pop()
    return messages
