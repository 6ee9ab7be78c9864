"""Independent model of the genealogy text format.

The benchmark generates its genealogy inputs with this module and works
out from it, without the replikey package, what the program must print
for them.  It follows the format as replikey documents it: tags p, i, s
and u; event fields joined by " - " with the batch count right-aligned
in a 10-character column; canonical text indented two spaces per
nesting level, with the donor's descriptor inlined on its "u" line.

A record is a provenance descriptor (or None) and a list of events.  An
event is either ("i" or "s", timestamp text, epoch seconds, locale,
capacity, batch) or ("u", donor record, has_p), where has_p says the
descriptor was written as "u p <descriptor>".  Donor records may be
shared between several upgrades, which is how one donor history comes
to be repeated in a log.  Every walk uses an explicit stack, so logs
nested thousands of levels deep are handled.
"""

import datetime

BATCH_WIDTH = 10


class Record:
    __slots__ = ("provenance", "events")

    def __init__(self, provenance=None, events=None):
        self.provenance = provenance
        self.events = [] if events is None else events


class Clock:
    """Hands out strictly increasing instants, so no two distinct events
    share one and first/last event are never ties."""

    def __init__(self, rng, start=1_356_998_400):  # 2013-01-01 00:00:00 UTC
        self.rng = rng
        self.epoch = start

    def tick(self, offset_minutes):
        self.epoch += self.rng.randint(1, 90_000)
        return timestamp_text(self.epoch, offset_minutes), self.epoch


def timestamp_text(epoch, offset_minutes):
    tz = datetime.timezone(datetime.timedelta(minutes=offset_minutes))
    local = datetime.datetime.fromtimestamp(epoch, tz)
    sign = "-" if offset_minutes < 0 else "+"
    hours, minutes = divmod(abs(offset_minutes), 60)
    return f"{local:%Y-%m-%d %H:%M:%S}{sign}{hours:02d}:{minutes:02d}"


def event(tag, clock, offset_minutes, locale, capacity, batch=1):
    text, epoch = clock.tick(offset_minutes)
    return (tag, text, epoch, locale, capacity, batch)


def _walk(record):
    """Yield (level, event) in text order, donors right after their "u"."""
    stack = [(iter(record.events), 0)]
    while stack:
        events, level = stack[-1]
        ev = next(events, None)
        if ev is None:
            stack.pop()
            continue
        yield level, ev
        if ev[0] == "u":
            stack.append((iter(ev[1].events), level + 1))


def _upgrade_head(ev):
    head = "u p" if ev[2] else "u"
    if ev[1].provenance is not None:
        head += " " + ev[1].provenance
    return head


def canonical_text(record):
    """The text replikey's serializer must produce for ``record``."""
    lines = []
    if record.provenance is not None:
        lines.append("p " + record.provenance)
    for level, ev in _walk(record):
        pad = "  " * level
        if ev[0] == "u":
            lines.append(pad + _upgrade_head(ev))
        else:
            lines.append(
                f"{pad}{ev[0]} {ev[1]} - {ev[3]} - {ev[4]} - {ev[5]:>{BATCH_WIDTH}}"
            )
    return "\n".join(lines) + "\n" if lines else ""


_SEPARATORS = (" - ", " - ", " - ", "  - ", " -  ", "   -   ")


def noisy_text(record, rng, top_indent=0):
    """Valid, non-canonical text for ``record``: each donor block sits 1
    to 4 spaces deeper than its "u" line, field separators and the batch
    column vary, and a few lines end in CRLF or are followed by a blank
    line."""
    lines = []
    indent_of = [top_indent]  # indent of each open record, by level

    def emit(line):
        if rng.random() < 0.02:
            line += "\r"
        lines.append(line)
        if rng.random() < 0.01:
            lines.append(" " * rng.randint(0, 6))

    if record.provenance is not None:
        emit(" " * top_indent + "p  " + record.provenance)
    for level, ev in _walk(record):
        del indent_of[level + 1:]
        pad = " " * indent_of[level]
        if ev[0] == "u":
            emit(pad + _upgrade_head(ev) + " " * rng.randint(0, 2))
            indent_of.append(indent_of[level] + rng.randint(1, 4))
        else:
            sep = rng.choice(_SEPARATORS)
            batch = f"{ev[5]:>{BATCH_WIDTH}}" if rng.random() < 0.5 else str(ev[5])
            emit(f"{pad}{ev[0]} {ev[1]}{sep}{ev[3]}{sep}{ev[4]}{sep}{batch}")
    return "\n".join(lines) + "\n"


def stats(record):
    """Lineage counters, as replikey's genealogy-stats reports them."""
    counts = {"i": 0, "s": 0, "u": 0}
    provenance = 1 if record.provenance is not None else 0
    depth = 0
    first = last = None
    for level, ev in _walk(record):
        counts[ev[0]] += 1
        if ev[0] == "u":
            provenance += 1 if ev[2] else 0
            depth = max(depth, level + 1)
        else:
            if first is None or ev[2] < first[2]:
                first = ev
            if last is None or ev[2] > last[2]:
                last = ev
    return {
        "births": counts["i"],
        "spawns": counts["s"],
        "upgrades": counts["u"],
        "provenance_headers": provenance,
        "max_embedding_depth": depth,
        "first_event": None if first is None else first[1],
        "last_event": None if last is None else last[1],
    }


def stats_text(s):
    first = s["first_event"] or "none"
    last = s["last_event"] or "none"
    return (
        f"births={s['births']} spawns={s['spawns']} upgrades={s['upgrades']}\n"
        f"provenance_headers={s['provenance_headers']}\n"
        f"max_embedding_depth={s['max_embedding_depth']}\n"
        f"first_event={first}\n"
        f"last_event={last}\n"
    )


# ---------------------------------------------------------------------------
# generated histories

DESCRIPTORS = (
    "Sage 5.6 Debian Live beta4 2013-01-25 en_US.UTF-8 - wheezy - 686-pae",
    "Sage 5.8 Debian Live ejcim 2013-04-06 fr_FR.UTF-8 - wheezy - 686-pae",
    "Sage 5.9 Debian wheezy Live 3.0.5-1 2013-05-09 en_US.UTF-8 - wheezy - 686-pae",
    "Demo Live 1.0 2013-01-01 en_US.UTF-8 - stable - amd64",
    "Demo Live 1.1 2013-02-01 de_DE.UTF-8 - stable - amd64",
    "Demo Live 2.0 2013-06-01 es_ES.UTF-8 - testing - amd64",
)
LOCALES = ("en_US.UTF-8", "fr_FR.UTF-8", "de_DE.UTF-8", "es_ES.UTF-8")
CAPACITIES = (4_023_296, 7_692_288, 7_812_500, 15_630_336)
OFFSETS = (0, 0, 60, 120, -300)


class HistoryMaker:
    """Builds key histories that replikey accepts without lint warnings:
    timestamps rise within every record, and a record with an upgrade
    has one birth before its first upgrade."""

    def __init__(self, rng):
        self.rng = rng
        self.clock = Clock(rng)

    def _key_style(self):
        rng = self.rng
        return rng.choice(OFFSETS), rng.choice(LOCALES), rng.choice(CAPACITIES)

    def _batch(self):
        return 1 if self.rng.random() < 0.8 else self.rng.randint(2, 12)

    def _donor_event(self, donor):
        """A "u" event for ``donor``; a copy of the record is made when the
        upgrade should name a descriptor the donor lacks, or drop one."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.5:
            prov = donor.provenance or rng.choice(DESCRIPTORS)
            return ("u", Record(prov, donor.events), True)
        if roll < 0.7:
            prov = donor.provenance or rng.choice(DESCRIPTORS)
            return ("u", Record(prov, donor.events), False)
        return ("u", Record(None, donor.events), False)

    def clone_chain(self):
        """A record without upgrades: births and spawns down a chain of
        clones, each generation inheriting its parent's events."""
        rng = self.rng
        offset, locale, capacity = self._key_style()
        events = []
        for _ in range(rng.randint(1, 3)):
            events.append(event("i", self.clock, offset, locale, capacity))
            for _ in range(rng.randint(1, 4)):
                events.append(
                    event("s", self.clock, offset, locale, capacity, self._batch())
                )
        return Record(None, events)

    def upgraded(self, donors, upgrades):
        """A record that took ``upgrades`` upgrades from ``donors``."""
        rng = self.rng
        offset, locale, capacity = self._key_style()
        events = [event("i", self.clock, offset, locale, capacity)]
        for _ in range(rng.randint(0, 3)):
            events.append(event("s", self.clock, offset, locale, capacity, self._batch()))
        for _ in range(upgrades):
            if rng.random() < 0.1:
                events.append(("u", Record(rng.choice(DESCRIPTORS)), False))
            else:
                events.append(self._donor_event(rng.choice(donors)))
            events.append(event("i", self.clock, offset, locale, capacity))
            for _ in range(rng.randint(0, 2)):
                events.append(
                    event("s", self.clock, offset, locale, capacity, self._batch())
                )
        return Record(None, events)

    def pools(self, levels=4, width=6):
        """Donor histories by nesting level; each level's records embed
        records from the level below, so deep donors recur many times."""
        pools = [[self.clone_chain() for _ in range(width * 2)]]
        for _ in range(levels):
            below = pools[-1]
            pools.append(
                [self.upgraded(below, self.rng.randint(2, 4)) for _ in range(width)]
            )
        return pools

    def history(self, lines, provenance, levels=4):
        """A key's history of exactly ``lines`` lines: a birth, then
        upgrades from donor pools of ``levels`` nesting levels, each donor
        one of the three largest that still fit, then spawns to make up
        the count."""
        rng = self.rng
        offset, locale, capacity = self._key_style()
        donors = sorted(
            ((sum(1 for _ in _walk(d)), d) for pool in self.pools(levels) for d in pool),
            key=lambda pair: pair[0],
        )
        record = Record(provenance, [event("i", self.clock, offset, locale, capacity)])
        left = lines - 2 if provenance is not None else lines - 1  # header, birth
        while True:
            # an upgrade takes its "u" line, the donor's lines and a rebirth
            fitting = [pair for pair in donors if pair[0] + 2 <= left]
            if not fitting:
                break
            size, donor = rng.choice(fitting[-3:])
            record.events.append(self._donor_event(donor))
            record.events.append(event("i", self.clock, offset, locale, capacity))
            left -= size + 2
        for _ in range(left):
            record.events.append(event("s", self.clock, offset, locale, capacity, self._batch()))
        return record


def nested(depth, clock):
    """A valid record whose upgrades nest ``depth`` levels deep: each
    level is a bare "u" whose donor is the next level, then a rebirth."""
    record = Record(None, [event("i", clock, 0, "en_US.UTF-8", 7_812_500)])
    for _ in range(depth):
        record = Record(
            None,
            [("u", record, False), event("i", clock, 0, "en_US.UTF-8", 7_812_500)],
        )
    record.provenance = DESCRIPTORS[3]
    return record
