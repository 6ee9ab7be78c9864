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
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import genealogy as gen
from . import replicator as rep
from .units import MB, as_fraction, sig6

__all__ = [
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

_EPOCH = datetime.datetime(2013, 1, 1, 0, 0, 0, tzinfo=datetime.timezone.utc)

_DEFAULT_VERSION = gen.ProvenanceHeader(
    label="Demo Live 1.0",
    build_date=datetime.date(2013, 1, 1),
    locale="en_US.UTF-8",
    suite="stable",
    arch="amd64",
)

DEFAULT_CAPACITY_KIB = 7_812_500  # an 8 GB key in 1 KiB blocks


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one deployment scenario.

    ``releases`` drives redeployment runs: each entry is (time_s,
    version header) and lands on the designated master key when the
    simulation clock reaches it.  ``track_genealogies`` turns off
    per-key genealogy bookkeeping for large parameter sweeps where only
    the round arithmetic matters; the counts are identical either way.
    """

    n_participants: int
    seeds: int = 1
    ports_per_host: int = 1
    image_bytes: int = 2_700_000_000
    bandwidth_mb_s: Fraction = Fraction(9, 2)
    setup_delay_s: Fraction = Fraction(300)
    upgrade_ratio: Fraction = Fraction(4, 5)
    rng_seed: int = 0
    releases: tuple = ()
    base_version: gen.ProvenanceHeader = _DEFAULT_VERSION
    capacity_kib: int = DEFAULT_CAPACITY_KIB
    start_time: datetime.datetime = _EPOCH
    horizon_s: Fraction | None = None
    track_genealogies: bool = True

    def __post_init__(self):
        object.__setattr__(self, "bandwidth_mb_s", as_fraction(self.bandwidth_mb_s))
        object.__setattr__(self, "setup_delay_s", as_fraction(self.setup_delay_s))
        object.__setattr__(self, "upgrade_ratio", as_fraction(self.upgrade_ratio))
        if self.horizon_s is not None:
            object.__setattr__(self, "horizon_s", as_fraction(self.horizon_s))
        releases = tuple(
            (as_fraction(t), header) for t, header in self.releases
        )
        object.__setattr__(
            self, "releases", tuple(sorted(releases, key=lambda r: r[0]))
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


def _manifest(config: SimConfig, version: gen.ProvenanceHeader) -> rep.ImageManifest:
    return rep.ImageManifest(
        version=version,
        whitelist=frozenset({"/live/filesystem.squashfs"}),
        image_bytes=config.image_bytes,
    )


def _floor_time(config: SimConfig, elapsed: Fraction) -> datetime.datetime:
    return config.start_time + datetime.timedelta(seconds=int(elapsed))


def _allocate(sources: list, targets: list, ports: int) -> list:
    """Pair each source with up to ``ports`` targets, in stable order.
    Returns (source, target) pairs covering min(len(targets),
    len(sources) × ports) targets."""
    pairs = []
    it = iter(targets)
    for source in sources:
        for _ in range(ports):
            target = next(it, None)
            if target is None:
                return pairs
            pairs.append((source, target))
    return pairs


def run_room(config: SimConfig) -> SimResult:
    """Simulate a room deployment: ``seeds`` ready keys, the rest of the
    participants holding blank media, synchronous clone rounds until
    everyone has a key."""
    n, seeds, ports = config.n_participants, config.seeds, config.ports_per_host
    clone_s = Fraction(config.image_bytes) / (config.bandwidth_mb_s * MB)
    round_len = config.setup_delay_s + clone_s

    if not config.track_genealogies:
        # pure count recurrence, O(log n): seeded multiplies by
        # (1 + ports) each round until everyone is covered
        covered = seeds
        rounds = 0
        per_round_seeded = []
        per_round_bytes = []
        while covered < n:
            new = min(n - covered, covered * ports)
            covered += new
            rounds += 1
            per_round_seeded.append(covered)
            per_round_bytes.append(new * config.image_bytes)
        makespan = rounds * round_len
        bytes_delivered = (n - seeds) * config.image_bytes
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
            genealogies={},
            version_coverage={config.base_version.descriptor(): n},
        )

    ids = _key_ids(n)
    seeded = list(ids[:seeds])
    blanks = list(ids[seeds:])

    manifest = _manifest(config, config.base_version)
    keys = {
        key_id: rep.KeyState.from_manifest(manifest, config.capacity_kib, config.start_time)
        for key_id in seeded
    }

    elapsed = Fraction(0)
    rounds = 0
    per_round_seeded = []
    per_round_bytes = []
    while blanks:
        pairs = _allocate(seeded, blanks, ports)
        elapsed += round_len
        rounds += 1
        now = _floor_time(config, elapsed)
        for source_id, target_id in pairs:
            source_dev = rep.VirtualDevice(
                source_id,
                rep.Bus.USB,
                config.capacity_kib,
                contents=keys[source_id],
                is_boot_source=True,
            )
            target_dev = rep.VirtualDevice(target_id, rep.Bus.USB, config.capacity_kib)
            inventory = (source_dev, target_dev)
            chosen = rep.select_target(inventory)
            plan = rep.plan_clone(source_dev, target_dev, config.bandwidth_mb_s)
            if plan.target != chosen:
                raise rep.ReplicationError(
                    f"plan target {plan.target!r} disagrees with the gate's choice {chosen!r}"
                )
            updated = rep.execute_plan(plan, inventory, now)
            keys[source_id] = updated[0].contents
            keys[target_id] = updated[1].contents
            seeded.append(target_id)
        del blanks[: len(pairs)]
        per_round_seeded.append(len(seeded))
        per_round_bytes.append(len(pairs) * config.image_bytes)

    bytes_delivered = (n - seeds) * config.image_bytes
    makespan = elapsed
    amortized = (
        Fraction(bytes_delivered) / (makespan * MB) if makespan > 0 else Fraction(0)
    )
    genealogies = {key_id: keys[key_id].genealogy for key_id in ids}
    return SimResult(
        n_participants=n,
        ports=ports,
        rounds=rounds,
        makespan_s=makespan,
        bytes_delivered=bytes_delivered,
        amortized_mb_s=amortized,
        per_round_seeded=tuple(per_round_seeded),
        per_round_bytes=tuple(per_round_bytes),
        genealogies=genealogies,
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
    upgrade_s = (
        Fraction(math.ceil(config.upgrade_ratio * config.image_bytes))
        / (config.bandwidth_mb_s * MB)
    )
    round_len = config.setup_delay_s + upgrade_s
    per_upgrade_bytes = math.ceil(config.upgrade_ratio * config.image_bytes)

    ids = _key_ids(n)
    manifest = _manifest(config, config.base_version)
    keys = {
        key_id: rep.KeyState.from_manifest(
            manifest, config.capacity_kib, config.start_time
        )
        for key_id in ids
    }
    level = {key_id: 0 for key_id in ids}  # index into applied releases
    master_id = ids[0]

    elapsed = Fraction(0)
    rounds = 0
    per_round_seeded = []
    per_round_bytes = []
    upgrade_bytes = 0
    applied = 0
    top_level = 0
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
            top_level = applied
            now = _floor_time(config, max(release_time, elapsed))
            master = keys[master_id]
            donor = gen.Genealogy(provenance=header)
            rebirth = gen.GenealogyEvent(
                gen.EventKind.BIRTH, now, master.locale, master.capacity_kib, 1
            )
            new_manifest = _manifest(config, header)
            rebuilt = rep.KeyState.from_manifest(
                new_manifest, master.capacity_kib, now, locale=master.locale
            )
            keys[master_id] = replace(
                rebuilt,
                genealogy=gen.record_upgrade(master.genealogy, donor, rebirth),
            )
            level[master_id] = top_level
            if first_applied_at is None:
                first_applied_at = elapsed

        stale = sorted(k for k in ids if level[k] < top_level)
        if stale:
            if not within_horizon(elapsed + round_len):
                break
            sources = sorted(k for k in ids if level[k] == top_level)
            pairs = _allocate(sources, stale, ports)
            elapsed += round_len
            rounds += 1
            now = _floor_time(config, elapsed)
            for source_id, target_id in pairs:
                source_dev = rep.VirtualDevice(
                    source_id,
                    rep.Bus.USB,
                    config.capacity_kib,
                    contents=keys[source_id],
                    is_boot_source=True,
                )
                target_dev = rep.VirtualDevice(
                    target_id,
                    rep.Bus.USB,
                    config.capacity_kib,
                    contents=keys[target_id],
                )
                plan = rep.plan_upgrade(
                    source_dev, target_dev, config.bandwidth_mb_s, config.upgrade_ratio
                )
                updated = rep.execute_plan(plan, (source_dev, target_dev), now)
                keys[source_id] = updated[0].contents
                keys[target_id] = updated[1].contents
                level[target_id] = level[source_id]
                upgrade_bytes += plan.bytes_total
            per_round_seeded.append(sum(1 for k in ids if level[k] > 0))
            per_round_bytes.append(len(pairs) * per_upgrade_bytes)
        elif applied < len(config.releases):
            next_time = config.releases[applied][0]
            if not within_horizon(next_time):
                break
            elapsed = max(elapsed, next_time)
        else:
            break

    makespan = elapsed - first_applied_at if first_applied_at is not None else Fraction(0)
    coverage = {}
    for key_id in ids:
        desc = keys[key_id].version.descriptor()
        coverage[desc] = coverage.get(desc, 0) + 1
    genealogies = (
        {key_id: keys[key_id].genealogy for key_id in ids}
        if config.track_genealogies
        else {}
    )
    return SimResult(
        n_participants=n,
        ports=ports,
        rounds=rounds,
        makespan_s=makespan,
        bytes_delivered=0,
        amortized_mb_s=Fraction(0),
        per_round_seeded=tuple(per_round_seeded),
        per_round_bytes=tuple(per_round_bytes),
        genealogies=genealogies,
        version_coverage=coverage,
        upgrade_bytes=upgrade_bytes,
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


def sim_config_from_json(text: str) -> SimConfig:
    """Build a SimConfig from its JSON document form.  Rates may be given
    as numbers or strings; strings are parsed exactly."""
    doc = json.loads(text)
    kwargs = {}
    for name in (
        "n_participants",
        "seeds",
        "ports_per_host",
        "image_bytes",
        "rng_seed",
        "capacity_kib",
        "track_genealogies",
    ):
        if name in doc:
            kwargs[name] = doc[name]
    for name in ("bandwidth_mb_s", "setup_delay_s", "upgrade_ratio", "horizon_s"):
        if name in doc and doc[name] is not None:
            kwargs[name] = as_fraction(doc[name])
    if "base_version" in doc:
        kwargs["base_version"] = gen.ProvenanceHeader.from_descriptor(doc["base_version"])
    if "releases" in doc:
        releases = []
        for index, item in enumerate(doc["releases"]):
            if not isinstance(item, dict):
                raise ValueError(f"release {index}: expected an object")
            for name in ("time_s", "version"):
                if name not in item:
                    raise ValueError(f"release {index}: missing field {name!r}")
            releases.append(
                (
                    as_fraction(item["time_s"]),
                    gen.ProvenanceHeader.from_descriptor(item["version"]),
                )
            )
        kwargs["releases"] = tuple(releases)
    if "start_time" in doc:
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
