"""Discrete-round simulation of key deployments.

Two scenarios are modeled, both by one round loop.  A room deployment
starts from a handful of seeded keys and clones onto blank keys in
synchronous rounds: every seeded key writes up to ``ports_per_host``
blanks per round, every new key seeds the next round, so coverage grows
by a factor of (1 + ports) per round and full deployment takes a
logarithmic number of rounds.  A redeployment pushes released image
versions through an already-seeded population using the upgrade path
instead of fresh clones.

Rounds are synchronous: all transfers in a round start and end
together, and one round lasts the boot-and-play setup delay plus the
transfer duration.  All arithmetic on times and rates is exact
(fractions), so results are deterministic and reproducible.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial

from . import genealogy as gen
from . import replicator as rep
from .units import KIB, MB, _count, _exact, _expect, _json_pieces, _load_json, _object, _parsed
from .units import _shown, sig6

__all__ = [
    "DEFAULT_CAPACITY_KIB",
    "SimConfig",
    "SimResult",
    "rounds_closed_form",
    "run_room",
    "run_redeployment",
    "summarize",
    "time_series_rows",
    "sim_config_from_json",
    "sim_result_to_json",
]

# The simulated keys, here and in integrity's trust simulation: an 8 GB
# key holding a 2.7 GB image whose only system file is the squashfs.
_EPOCH = datetime.datetime(2013, 1, 1, 0, 0, 0, tzinfo=datetime.timezone.utc)

_DEFAULT_VERSION = gen.ProvenanceHeader(
    label="Demo Live 1.0",
    build_date=datetime.date(2013, 1, 1),
    locale="en_US.UTF-8",
    suite="stable",
    arch="amd64",
)

DEFAULT_CAPACITY_KIB = 7_812_500  # an 8 GB key in 1 KiB blocks
_IMAGE_BYTES = 2_700_000_000
_SQUASHFS = "/live/filesystem.squashfs"
# The most keys a tracked run holds, a log for each set up before the first
# round: at this limit a room or one-release redeployment run fits in about 1 GB.
_MAX_TRACKED_KEYS = 100_000
_HEADER = gen.ProvenanceHeader


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one deployment scenario.

    ``releases`` and ``horizon_s`` drive redeployment runs only;
    ``run_room`` reads neither.  Each release is (time_s, version
    header) and lands on the designated master key when the simulation
    clock reaches it, unless that is past the horizon.
    ``track_genealogies`` turns off per-key genealogy bookkeeping for
    large parameter sweeps: no keys, logs or per-key lists are built, a
    run costs O(rounds + releases), every other field of the result is
    identical, and a clock past year 9999 is refused all the same.
    A tracked run holds at most ``_MAX_TRACKED_KEYS`` (100,000) keys.

    An image larger than the key is refused here (CapacityExceeded):
    every simulated key has the same files, so one check covers every
    transfer.
    """

    n_participants: int
    seeds: int = 1
    ports_per_host: int = 1
    image_bytes: int = _IMAGE_BYTES
    bandwidth_mb_s: Fraction = Fraction(9, 2)
    setup_delay_s: Fraction = Fraction(300)
    upgrade_ratio: Fraction = rep.DEFAULT_UPGRADE_RATIO
    releases: tuple = ()
    base_version: gen.ProvenanceHeader = _DEFAULT_VERSION
    capacity_kib: int = DEFAULT_CAPACITY_KIB
    start_time: datetime.datetime = _EPOCH
    horizon_s: Fraction | None = None
    track_genealogies: bool = True

    def __post_init__(self):
        bandwidth, ratio = rep._rates(self.bandwidth_mb_s, self.upgrade_ratio)
        object.__setattr__(self, "bandwidth_mb_s", bandwidth)
        object.__setattr__(self, "setup_delay_s", _exact("setup_delay_s", self.setup_delay_s))
        object.__setattr__(self, "upgrade_ratio", ratio)
        if self.horizon_s is not None:
            object.__setattr__(self, "horizon_s", _exact("horizon_s", self.horizon_s))
        releases = tuple(
            (_exact(f"releases[{i}].time_s", t), _expect(f"releases[{i}].version", v, _HEADER))
            for i, (t, v) in enumerate(self.releases)
        )
        _expect("base_version", self.base_version, _HEADER)
        gen._timestamp("start_time", self.start_time)
        object.__setattr__(
            self, "releases", tuple(sorted(releases, key=lambda r: r[0]))
        )
        for name in ("n_participants", "seeds", "ports_per_host", "image_bytes", "capacity_kib"):
            _count(name, getattr(self, name), 1)
        _expect("track_genealogies", self.track_genealogies, bool)
        if self.track_genealogies and self.n_participants > _MAX_TRACKED_KEYS:
            raise ValueError(
                f"n_participants: {_shown(self.n_participants)} keys exceed the "
                f"{_MAX_TRACKED_KEYS} a tracked run holds; "
                "set track_genealogies: false (--count-only)"
            )
        if self.seeds > self.n_participants:
            raise ValueError("seeds must satisfy 1 <= seeds <= n_participants")
        if self.setup_delay_s < 0:
            raise ValueError("setup_delay_s must be >= 0")
        if self.horizon_s is not None and self.horizon_s < 0:
            raise ValueError("horizon_s must be >= 0")
        if self.image_bytes > self.capacity_kib * KIB:
            raise rep.CapacityExceeded(
                f"image_bytes: {_shown(self.image_bytes)} bytes exceed capacity_kib "
                f"{_shown(self.capacity_kib)} ({_shown(self.capacity_kib * KIB)} bytes)"
            )
        for t, _ in self.releases:
            if t < 0:
                raise ValueError("release times must be >= 0")


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run.

    ``per_round_seeded`` holds the covered-key count after each round;
    ``bytes_delivered`` counts fresh clone payloads only, with upgrade
    traffic reported separately in ``upgrade_bytes``."""

    n_participants: int
    ports: int
    rounds: int
    makespan_s: Fraction
    bytes_delivered: int
    amortized_mb_s: Fraction
    per_round_seeded: tuple
    per_round_bytes: tuple
    genealogies: dict
    version_coverage: dict
    upgrade_bytes: int = 0

    def __post_init__(self):
        object.__setattr__(self, "per_round_seeded", tuple(self.per_round_seeded))
        object.__setattr__(self, "per_round_bytes", tuple(self.per_round_bytes))
        seq = self.per_round_seeded
        if any(later < earlier for earlier, later in zip(seq, seq[1:])):
            raise ValueError("per_round_seeded must be non-decreasing")
        if len(seq) != self.rounds:
            raise ValueError("per_round_seeded must have one entry per round")


def rounds_closed_form(n: int, seeds: int = 1, ports: int = 1) -> int:
    """Smallest number of rounds r with seeds × (1 + ports)^r >= n.

    Every seeded key writes ``ports`` new keys per round and stays
    seeded, so coverage multiplies by (1 + ports) each round."""
    for name, value in (("n", n), ("seeds", seeds), ("ports", ports)):
        _count(name, value, 1)
    if seeds > n:
        raise ValueError("need 1 <= seeds <= n")
    rounds = 0
    reach = seeds
    while reach < n:
        reach *= 1 + ports
        rounds += 1
    return rounds


def _key_ids(n: int) -> list:
    width = max(3, len(str(n - 1))) if n > 1 else 3
    return [f"key-{i:0{width}d}" for i in range(n)]


def _new_key(
    version, born_at=_EPOCH, image_bytes=_IMAGE_BYTES, capacity=DEFAULT_CAPACITY_KIB
) -> rep.KeyState:
    """A simulated key freshly written from an image of ``version``."""
    image = rep.ImageManifest(version, frozenset({_SQUASHFS}), image_bytes)
    return rep.KeyState.from_manifest(image, capacity, born_at)


def _floor_time(config: SimConfig, elapsed: Fraction) -> datetime.datetime:
    try:
        return config.start_time + datetime.timedelta(seconds=int(elapsed))
    except OverflowError:
        raise ValueError(
            f"simulated time {_shown(int(elapsed))} s after start_time is past year 9999"
        ) from None


def _seed_log(config: SimConfig) -> gen.Genealogy:
    """The log of a seed key: a key of the base version born at the start."""
    key = _new_key(config.base_version, config.start_time, config.image_bytes, config.capacity_kib)
    return key.genealogy


def _genealogies(logs: list) -> dict:
    return dict(zip(_key_ids(len(logs)), logs))


def _round_loop(
    config: SimConfig,
    logs: list,
    held: int,
    write_bytes: int,
    releases: tuple = (),
    horizon: Fraction | None = None,
    refusal: Exception | None = None,
) -> tuple:
    """The synchronous round loop of both simulators (the telephone
    broadcast model): each round, every key holding the newest landed
    version writes ``write_bytes`` onto each of up to ``ports_per_host``
    others.

    Those keys are always a prefix 0..c-1 of the keys, ``held`` of them
    at the start, and a round writes keys c..c+new-1: key j by key
    (j - c) // ports.  Each of ``releases`` lands on key 0 once the clock
    reaches its time, restarting the prefix at one key.  Nothing lands,
    and no round ends, past ``horizon``; ``refusal``, if given, is raised
    in place of the first round.  With genealogies tracked ``logs`` (one
    per key) is updated in place; otherwise the loop costs O(rounds +
    releases).  Every key keeps the base version's locale and
    ``capacity_kib``, so a round's spawn and birth serve all its transfers.

    Returns (makespan from the first landing, per-round count of keys
    holding a landed version, or the newest one if none landed,
    per-round bytes, version coverage)."""
    n, ports = config.n_participants, config.ports_per_host
    round_len = config.setup_delay_s + Fraction(write_bytes) / (config.bandwidth_mb_s * MB)
    track = config.track_genealogies
    locale, capacity = config.base_version.locale, config.capacity_kib
    reach = [held]  # per version held, oldest first: the prefix it reached
    start = elapsed = Fraction(0)
    covered = 0
    per_round_seeded = []
    per_round_bytes = []
    while True:
        landed = len(reach) - 1
        due = None  # the next release's time, unless it is past the horizon
        if landed < len(releases) and (horizon is None or releases[landed][0] <= horizon):
            due = releases[landed][0]
        if due is not None and due <= elapsed:
            now = _floor_time(config, elapsed)
            if track:
                # the maintainer rewrites key 0: its log embeds a donor that is
                # only the release's provenance, with no spawn of a donor key
                rebirth = gen.GenealogyEvent(gen.EventKind.BIRTH, now, locale, capacity, 1)
                donor = gen.Genealogy(provenance=releases[landed][1])
                logs[0] = gen.record_upgrade(logs[0], donor, rebirth)
            if not landed:
                start = elapsed
            reach.append(1)
            continue
        c = reach[-1]
        if c < n:
            if horizon is not None and elapsed + round_len > horizon:
                break
            if refusal is not None:
                raise refusal
            new = min(n - c, c * ports)
            elapsed += round_len
            now = _floor_time(config, elapsed)
            if track:
                spawn = gen.GenealogyEvent(gen.EventKind.SPAWN, now, locale, capacity, 1)
                birth = gen.GenealogyEvent(gen.EventKind.BIRTH, now, locale, capacity, 1)
                for j in range(c, c + new):
                    src = (j - c) // ports
                    logs[src], logs[j] = gen._transfer(logs[src], logs[j], spawn, birth)
            reach[-1] = c + new
            covered = max(covered, c + new)
            per_round_seeded.append(covered)
            per_round_bytes.append(new * write_bytes)
        elif due is not None:
            elapsed = due
        else:
            break

    headers = [config.base_version] + [header for _, header in releases[: len(reach) - 1]]
    coverage = {}
    newer = 0  # keys holding a version newer than the one at hand
    for header, count in reversed(list(zip(headers, reach))):
        if count > newer:
            desc = header.descriptor()
            coverage[desc] = coverage.get(desc, 0) + count - newer
            newer = count
    return elapsed - start, tuple(per_round_seeded), tuple(per_round_bytes), coverage


def run_room(config: SimConfig) -> SimResult:
    """Simulate a room deployment: ``seeds`` ready keys, the rest of the
    participants holding blank media, synchronous clone rounds until
    everyone has a key.  Participants 0..covered-1 hold keys, and each
    round they clone onto the next blanks in order."""
    n, seeds = config.n_participants, config.seeds
    logs = [_seed_log(config)] * seeds + [None] * (n - seeds) if config.track_genealogies else []
    makespan, seeded, per_round_bytes, coverage = _round_loop(
        config, logs, seeds, config.image_bytes
    )
    bytes_delivered = (n - seeds) * config.image_bytes
    amortized = (
        Fraction(bytes_delivered) / (makespan * MB) if makespan > 0 else Fraction(0)
    )
    return SimResult(
        n_participants=n,
        ports=config.ports_per_host,
        rounds=len(seeded),
        makespan_s=makespan,
        bytes_delivered=bytes_delivered,
        amortized_mb_s=amortized,
        per_round_seeded=seeded,
        per_round_bytes=per_round_bytes,
        genealogies=_genealogies(logs),
        version_coverage=coverage,
    )


def run_redeployment(config: SimConfig) -> SimResult:
    """Push released versions through a fully-seeded population.

    At each release time the first key is upgraded out-of-band (the
    maintainer rewrites it); synchronous upgrade rounds then spread the
    newest applied version to every stale key.  A key absorbing several
    releases records one upgrade per version it actually received."""
    if not config.releases:
        raise ValueError("redeployment needs at least one release")
    n = config.n_participants
    per_upgrade_bytes = math.ceil(config.upgrade_ratio * config.image_bytes)
    # every key holds just its image, so one staging figure fits all
    staging_peak = config.image_bytes + per_upgrade_bytes
    refusal = None
    if staging_peak > config.capacity_kib * KIB:
        refusal = rep.CapacityExceeded(
            f"image_bytes: {_shown(config.image_bytes)} bytes plus upgrade_ratio "
            f"{_shown(config.upgrade_ratio, str)} of them to stage an upgrade "
            f"({_shown(staging_peak)} bytes) exceed capacity_kib {_shown(config.capacity_kib)} "
            f"({_shown(config.capacity_kib * KIB)} bytes)"
        )
    logs = [_seed_log(config)] * n if config.track_genealogies else []
    makespan, seeded, per_round_bytes, coverage = _round_loop(
        config, logs, n, per_upgrade_bytes, config.releases, config.horizon_s, refusal
    )
    return SimResult(
        n_participants=n,
        ports=config.ports_per_host,
        rounds=len(seeded),
        makespan_s=makespan,
        bytes_delivered=0,
        amortized_mb_s=Fraction(0),
        per_round_seeded=seeded,
        per_round_bytes=per_round_bytes,
        genealogies=_genealogies(logs),
        version_coverage=coverage,
        upgrade_bytes=sum(per_round_bytes),
    )


SUMMARY_COLUMNS = ("n", "ports", "rounds", "makespan_s", "amortized_mb_s")


def summarize(results) -> list:
    """One row per result, sorted by (n, ports), headed by the column
    names."""
    rows = [SUMMARY_COLUMNS]
    for result in sorted(results, key=lambda r: (r.n_participants, r.ports)):
        rows.append(
            (
                result.n_participants,
                result.ports,
                result.rounds,
                sig6(result.makespan_s),
                sig6(result.amortized_mb_s),
            )
        )
    return rows


TIME_SERIES_COLUMNS = ("round", "seeded_count", "cumulative_bytes")


def time_series_rows(result: SimResult) -> list:
    """Per-round progress rows (headed), with a running byte total."""
    rows = [TIME_SERIES_COLUMNS]
    total = 0
    for i, (seeded, round_bytes) in enumerate(
        zip(result.per_round_seeded, result.per_round_bytes), start=1
    ):
        total += round_bytes
        rows.append((i, seeded, total))
    return rows


# ---------------------------------------------------------------------------
# JSON interfaces


_descriptor = partial(_parsed, gen.ProvenanceHeader.from_descriptor)


def _releases(name: str, value) -> tuple:
    releases = []
    for index, item in enumerate(_expect(name, value, list)):
        where = f"{name}[{index}]"
        _object(where, item, ("time_s", "version"))
        releases.append((item["time_s"], _descriptor(f"{where}.version", item["version"])))
    return tuple(releases)


# The fields JSON cannot hold as they are, in the order they are read.
_READERS = {
    "base_version": _descriptor,
    "releases": _releases,
    "start_time": partial(_parsed, datetime.datetime.fromisoformat),
}
_RATES = ("bandwidth_mb_s", "setup_delay_s", "upgrade_ratio", "horizon_s")
_FIELDS = tuple(f.name for f in fields(SimConfig))


def sim_config_from_json(text: str) -> SimConfig:
    """Build a SimConfig from its JSON document form.  Fields go to
    SimConfig as read, save that a null rate keeps its default and that
    versions and ``start_time`` are parsed from their strings.  The
    document and each release are refused for a field they do not know
    or lack, so a misspelling cannot become a default."""
    doc = _object("", _load_json(text), ("n_participants",), _FIELDS)
    kwargs = {name: v for name, v in doc.items() if v is not None or name not in _RATES}
    for name, read in _READERS.items():
        if name in kwargs:
            kwargs[name] = read(name, kwargs[name])
    return SimConfig(**kwargs)


def sim_result_to_json(result: SimResult) -> str:
    """Deterministic JSON rendering of a result; rationals are printed
    with six significant digits, genealogies in their text format."""
    return "".join(_json_pieces(_result_doc(result)))


def _result_doc(result: SimResult) -> dict:
    """The document ``sim_result_to_json`` writes."""
    key_ids = sorted(result.genealogies)
    texts = gen._render([result.genealogies[key_id] for key_id in key_ids], escaped=True)
    return {
        "n_participants": result.n_participants,
        "ports": result.ports,
        "rounds": result.rounds,
        "makespan_s": sig6(result.makespan_s),
        "bytes_delivered": result.bytes_delivered,
        "amortized_mb_s": sig6(result.amortized_mb_s),
        "upgrade_bytes": result.upgrade_bytes,
        "per_round_seeded": list(result.per_round_seeded),
        "per_round_bytes": list(result.per_round_bytes),
        "version_coverage": dict(sorted(result.version_coverage.items())),
        "genealogies": dict(zip(key_ids, texts)),
    }
