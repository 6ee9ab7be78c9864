"""Discrete-round simulation of key deployments.

Two scenarios are modeled.  A room deployment starts from a handful of
seeded keys and clones onto blank keys in synchronous rounds: every
seeded key writes up to ``ports_per_host`` blanks per round, every new
key seeds the next round, so coverage grows by a factor of
(1 + ports) per round and full deployment takes a logarithmic number of
rounds.  A redeployment pushes released image versions through an
already-seeded population using the upgrade path instead of fresh
clones.

Rounds are synchronous: all transfers in a round start and end
together, and one round lasts the boot-and-play setup delay plus the
transfer duration.  All arithmetic on times and rates is exact
(fractions), so results are deterministic and reproducible.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from . import genealogy as gen
from . import replicator as rep
from .units import KIB, MB, _check_int, _expect, _json_text, _load_json, as_fraction, sig6

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


def _exact(name: str, value) -> Fraction:
    """``value`` as an exact Fraction, or a ValueError naming the field."""
    try:
        return as_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{name}: not an exact number: {value!r}") from None


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one deployment scenario.

    ``releases`` drives redeployment runs: each entry is (time_s,
    version header) and lands on the designated master key when the
    simulation clock reaches it.  ``track_genealogies`` turns off
    per-key genealogy bookkeeping for large parameter sweeps where only
    the round arithmetic matters: both simulators then skip building
    keys and logs, and every other field of the result is identical.

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
        for name in ("bandwidth_mb_s", "setup_delay_s", "upgrade_ratio"):
            object.__setattr__(self, name, _exact(name, getattr(self, name)))
        if self.horizon_s is not None:
            object.__setattr__(self, "horizon_s", _exact("horizon_s", self.horizon_s))
        releases = tuple(
            (_exact(f"releases[{i}].time_s", t), header)
            for i, (t, header) in enumerate(self.releases)
        )
        object.__setattr__(
            self, "releases", tuple(sorted(releases, key=lambda r: r[0]))
        )
        for name in ("n_participants", "seeds", "ports_per_host", "image_bytes", "capacity_kib"):
            _check_int(name, getattr(self, name))
        if not isinstance(self.track_genealogies, bool):
            raise ValueError(
                f"track_genealogies: expected true or false, got {self.track_genealogies!r}"
            )
        if self.n_participants < 1:
            raise ValueError("n_participants must be >= 1")
        if not 1 <= self.seeds <= self.n_participants:
            raise ValueError("seeds must satisfy 1 <= seeds <= n_participants")
        if self.ports_per_host < 1:
            raise ValueError("ports_per_host must be >= 1")
        if self.image_bytes <= 0 or self.bandwidth_mb_s <= 0:
            raise ValueError("image_bytes and bandwidth_mb_s must be positive")
        if self.setup_delay_s < 0:
            raise ValueError("setup_delay_s must be >= 0")
        if not 0 < self.upgrade_ratio <= 1:
            raise ValueError("upgrade_ratio must be in (0, 1]")
        if self.start_time.tzinfo is None:
            raise ValueError("start_time must be timezone-aware")
        if self.capacity_kib <= 0:
            raise ValueError("capacity_kib must be positive")
        if self.image_bytes > self.capacity_kib * KIB:
            raise rep.CapacityExceeded(
                f"image_bytes: {self.image_bytes} bytes exceed capacity_kib "
                f"{self.capacity_kib} ({self.capacity_kib * KIB} bytes)"
            )
        for t, header in self.releases:
            if t < 0:
                raise ValueError("release times must be >= 0")
            if not isinstance(header, gen.ProvenanceHeader):
                raise ValueError("release version must be a ProvenanceHeader")


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
    if not 1 <= seeds <= n:
        raise ValueError("need 1 <= seeds <= n")
    if ports < 1:
        raise ValueError("ports must be >= 1")
    rounds = 0
    reach = seeds
    while reach < n:
        reach *= 1 + ports
        rounds += 1
    return rounds


def _key_ids(n: int) -> list:
    width = max(3, len(str(n - 1))) if n > 1 else 3
    return [f"key-{i:0{width}d}" for i in range(n)]


def _manifest(version: gen.ProvenanceHeader, image_bytes: int) -> rep.ImageManifest:
    return rep.ImageManifest(
        version=version,
        whitelist=frozenset({_SQUASHFS}),
        image_bytes=image_bytes,
    )


def _floor_time(config: SimConfig, elapsed: Fraction) -> datetime.datetime:
    try:
        return config.start_time + datetime.timedelta(seconds=int(elapsed))
    except OverflowError:
        raise ValueError(
            f"simulated time {int(elapsed)} s after start_time is past year 9999"
        ) from None


def _seed_keys(config: SimConfig, count: int) -> list:
    manifest = _manifest(config.base_version, config.image_bytes)
    return [
        rep.KeyState.from_manifest(manifest, config.capacity_kib, config.start_time)
        for _ in range(count)
    ]


def _transfer_round(keys: list, sources, targets, config: SimConfig, now) -> None:
    """One synchronous round: ``targets[j]`` is written by
    ``sources[j // ports]``, a fresh clone onto blank media (None) or an
    upgrade of the key it holds.  ``keys`` is updated in place."""
    for j, target in enumerate(targets):
        source = sources[j // config.ports_per_host]
        keys[source], keys[target] = rep.apply_transfer(
            keys[source], keys[target], config.capacity_kib, now
        )


def _genealogies(keys: list) -> dict:
    return {key_id: key.genealogy for key_id, key in zip(_key_ids(len(keys)), keys)}


def run_room(config: SimConfig) -> SimResult:
    """Simulate a room deployment: ``seeds`` ready keys, the rest of the
    participants holding blank media, synchronous clone rounds until
    everyone has a key.  Participants 0..covered-1 hold keys, and each
    round they clone onto the next blanks in order."""
    n, seeds, ports = config.n_participants, config.seeds, config.ports_per_host
    clone_s = Fraction(config.image_bytes) / (config.bandwidth_mb_s * MB)
    round_len = config.setup_delay_s + clone_s
    track = config.track_genealogies
    keys = _seed_keys(config, seeds) + [None] * (n - seeds) if track else []

    elapsed = Fraction(0)
    rounds = 0
    covered = seeds
    per_round_seeded = []
    per_round_bytes = []
    while covered < n:
        new = min(n - covered, covered * ports)
        elapsed += round_len
        rounds += 1
        if track:
            now = _floor_time(config, elapsed)
            _transfer_round(keys, range(covered), range(covered, covered + new), config, now)
        covered += new
        per_round_seeded.append(covered)
        per_round_bytes.append(new * config.image_bytes)

    bytes_delivered = (n - seeds) * config.image_bytes
    makespan = elapsed
    amortized = (
        Fraction(bytes_delivered) / (makespan * MB) if makespan > 0 else Fraction(0)
    )
    return SimResult(
        n_participants=n,
        ports=ports,
        rounds=rounds,
        makespan_s=makespan,
        bytes_delivered=bytes_delivered,
        amortized_mb_s=amortized,
        per_round_seeded=tuple(per_round_seeded),
        per_round_bytes=tuple(per_round_bytes),
        genealogies=_genealogies(keys),
        version_coverage={config.base_version.descriptor(): n},
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
    ports = config.ports_per_host
    per_upgrade_bytes = math.ceil(config.upgrade_ratio * config.image_bytes)
    round_len = config.setup_delay_s + Fraction(per_upgrade_bytes) / (
        config.bandwidth_mb_s * MB
    )
    # every key holds just its image, so one staging figure fits all
    staging_peak = config.image_bytes + per_upgrade_bytes
    capacity = config.capacity_kib * KIB
    track = config.track_genealogies

    keys = _seed_keys(config, n) if track else []
    headers = [config.base_version] + [header for _, header in config.releases]
    level = [0] * n  # per key: index into headers of the version it holds

    elapsed = Fraction(0)
    rounds = 0
    per_round_seeded = []
    per_round_bytes = []
    applied = 0
    first_applied_at = None

    def within_horizon(t: Fraction) -> bool:
        return config.horizon_s is None or t <= config.horizon_s

    while True:
        # land any release that is due (and reachable at all)
        while applied < len(config.releases) and (
            config.releases[applied][0] <= elapsed
            and within_horizon(config.releases[applied][0])
        ):
            release_time, header = config.releases[applied]
            applied += 1
            level[0] = applied
            if track:
                now = _floor_time(config, max(release_time, elapsed))
                master = keys[0]
                donor = gen.Genealogy(provenance=header)
                rebirth = gen.GenealogyEvent(
                    gen.EventKind.BIRTH, now, master.locale, master.capacity_kib, 1
                )
                rebuilt = rep.KeyState.from_manifest(
                    _manifest(header, config.image_bytes),
                    master.capacity_kib,
                    now,
                    locale=master.locale,
                )
                keys[0] = replace(
                    rebuilt,
                    genealogy=gen.record_upgrade(master.genealogy, donor, rebirth),
                )
            if first_applied_at is None:
                first_applied_at = elapsed

        stale = [i for i in range(n) if level[i] < applied]
        if stale:
            if not within_horizon(elapsed + round_len):
                break
            if staging_peak > capacity:
                raise rep.CapacityExceeded(
                    f"upgrade staging needs {staging_peak} bytes on a {capacity}-byte key"
                )
            sources = [i for i in range(n) if level[i] == applied]
            targets = stale[: len(sources) * ports]
            elapsed += round_len
            rounds += 1
            if track:
                now = _floor_time(config, elapsed)
                _transfer_round(keys, sources, targets, config, now)
            for target in targets:
                level[target] = applied
            per_round_seeded.append(sum(1 for lv in level if lv > 0))
            per_round_bytes.append(len(targets) * per_upgrade_bytes)
        elif applied < len(config.releases):
            next_time = config.releases[applied][0]
            if not within_horizon(next_time):
                break
            elapsed = max(elapsed, next_time)
        else:
            break

    makespan = elapsed - first_applied_at if first_applied_at is not None else Fraction(0)
    coverage = {}
    for lv in level:
        desc = headers[lv].descriptor()
        coverage[desc] = coverage.get(desc, 0) + 1
    return SimResult(
        n_participants=n,
        ports=ports,
        rounds=rounds,
        makespan_s=makespan,
        bytes_delivered=0,
        amortized_mb_s=Fraction(0),
        per_round_seeded=tuple(per_round_seeded),
        per_round_bytes=tuple(per_round_bytes),
        genealogies=_genealogies(keys),
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


def _header(name: str, value) -> gen.ProvenanceHeader:
    if not isinstance(value, str):
        raise ValueError(f"{name}: expected a descriptor string, got {value!r}")
    return gen.ProvenanceHeader.from_descriptor(value)


def sim_config_from_json(text: str) -> SimConfig:
    """Build a SimConfig from its JSON document form.  Rates may be given
    as numbers or strings; strings are parsed exactly.  A field that is
    not a SimConfig field is refused, so a misspelling cannot fall back
    to a default."""
    doc = _load_json(text)
    known = {f.name for f in fields(SimConfig)}
    for name in doc:
        if name not in known:
            raise ValueError(f"unknown field {name!r}")
    if "n_participants" not in doc:
        raise ValueError("missing field 'n_participants'")
    kwargs = {}
    for name in (
        "n_participants",
        "seeds",
        "ports_per_host",
        "image_bytes",
        "capacity_kib",
        "track_genealogies",
    ):
        if name in doc:
            kwargs[name] = doc[name]
    for name in ("bandwidth_mb_s", "setup_delay_s", "upgrade_ratio", "horizon_s"):
        if name in doc and doc[name] is not None:
            kwargs[name] = doc[name]
    if "base_version" in doc:
        kwargs["base_version"] = _header("base_version", doc["base_version"])
    if "releases" in doc:
        releases = []
        items = _expect("releases", doc["releases"], list, "a list")
        for index, item in enumerate(items):
            _expect(f"release {index}", item, dict, "an object")
            for name in ("time_s", "version"):
                if name not in item:
                    raise ValueError(f"release {index}: missing field {name!r}")
            releases.append(
                (item["time_s"], _header(f"release {index}: version", item["version"]))
            )
        kwargs["releases"] = tuple(releases)
    if "start_time" in doc:
        if not isinstance(doc["start_time"], str):
            raise ValueError(
                f"start_time: expected a timestamp string, got {doc['start_time']!r}"
            )
        kwargs["start_time"] = datetime.datetime.fromisoformat(doc["start_time"])
    return SimConfig(**kwargs)


def sim_result_to_json(result: SimResult) -> str:
    """Deterministic JSON rendering of a result; rationals are printed
    with six significant digits, genealogies in their text format."""
    key_ids = sorted(result.genealogies)
    texts = gen.serialize_many(result.genealogies[key_id] for key_id in key_ids)
    doc = {
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
    return _json_text(doc)
