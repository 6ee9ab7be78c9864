"""Tests for the room-deployment and redeployment simulators."""

import datetime
import json
import math
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from replikey import genealogy as gen
from replikey import replicator as rep
from replikey import spreadsim as sim
from replikey.spreadsim import (
    SimConfig,
    SimResult,
    rounds_closed_form,
    run_redeployment,
    run_room,
    sim_config_from_json,
    sim_result_to_json,
    summarize,
    time_series_rows,
)
from replikey.units import KIB, MB, _load_json

GB = 10**9
UTC = datetime.timezone.utc

V1 = gen.ProvenanceHeader(
    "Demo Live 1.1", datetime.date(2013, 6, 1), "en_US.UTF-8", "stable", "amd64"
)
V2 = gen.ProvenanceHeader(
    "Demo Live 1.2", datetime.date(2013, 7, 1), "en_US.UTF-8", "stable", "amd64"
)
V3 = gen.ProvenanceHeader(
    "Demo Live 1.3", datetime.date(2013, 8, 1), "en_US.UTF-8", "stable", "amd64"
)


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_room_of_sixty():
    assert rounds_closed_form(60, 1, 1) == 6


def test_closed_form_already_seeded():
    assert rounds_closed_form(1, 1, 1) == 0
    assert rounds_closed_form(5, 5, 2) == 0


def test_closed_form_multi_port():
    # 1 -> 4 -> 16 -> 64
    assert rounds_closed_form(60, 1, 3) == 3


def test_closed_form_validation():
    with pytest.raises(ValueError):
        rounds_closed_form(0, 1, 1)
    with pytest.raises(ValueError):
        rounds_closed_form(5, 6, 1)
    with pytest.raises(ValueError):
        rounds_closed_form(5, 1, 0)


@given(st.integers(min_value=1, max_value=20000))
def test_closed_form_sublinearity(n):
    assert rounds_closed_form(2 * n, 1, 1) <= rounds_closed_form(n, 1, 1) + 1


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_closed_form_is_minimal(n, seeds, ports):
    if seeds > n:
        seeds = n
    r = rounds_closed_form(n, seeds, ports)
    assert seeds * (1 + ports) ** r >= n
    if r > 0:
        assert seeds * (1 + ports) ** (r - 1) < n


# ---------------------------------------------------------------------------
# room deployment


def sixty_room(track=True):
    return SimConfig(n_participants=60, track_genealogies=track)


def test_room_of_sixty():
    res = run_room(sixty_room())
    assert res.rounds == 6
    assert res.makespan_s == Fraction(5400)
    assert res.bytes_delivered == 59 * 2_700_000_000
    assert res.amortized_mb_s == Fraction(59 * 2_700_000_000, 5400 * 10**6)
    assert abs(float(res.amortized_mb_s) - 30) / 30 <= 0.05
    assert res.per_round_seeded == (2, 4, 8, 16, 32, 60)


def test_room_two_participants():
    res = run_room(SimConfig(n_participants=2))
    assert res.rounds == 1
    assert res.makespan_s == Fraction(900)
    assert res.per_round_seeded == (2,)


def test_room_already_covered():
    res = run_room(SimConfig(n_participants=3, seeds=3))
    assert res.rounds == 0
    assert res.makespan_s == 0
    assert res.amortized_mb_s == 0
    assert res.per_round_seeded == ()


def test_room_genealogy_spawn_conservation():
    """Each clone appends one spawn to its parent, so the spawns keys
    performed themselves (after their own birth) total n - seeds."""
    res = run_room(sixty_room())
    total = sum(gen.own_spawn_count(g) for g in res.genealogies.values())
    assert total == 59


def test_room_child_birth_pairs_with_inherited_spawn():
    """A cloned key inherits the parent's spawn immediately before its own
    birth, both stamped with the same round-end time."""
    res = run_room(SimConfig(n_participants=8))
    seeds = {"key-000"}
    for key_id, g in res.genealogies.items():
        if key_id in seeds:
            continue
        births = [
            i
            for i, ev in enumerate(g.events)
            if isinstance(ev, gen.GenealogyEvent) and ev.kind is gen.EventKind.BIRTH
        ]
        last = births[-1]
        spawn = g.events[last - 1]
        assert spawn.kind is gen.EventKind.SPAWN
        assert spawn.timestamp == g.events[last].timestamp


def test_room_genealogies_parse_back():
    res = run_room(SimConfig(n_participants=8, ports_per_host=2))
    for g in res.genealogies.values():
        assert gen.parse(gen.serialize(g)) == g


def test_room_version_coverage():
    res = run_room(SimConfig(n_participants=5))
    assert list(res.version_coverage.values()) == [5]


def test_room_count_mode_matches_tracked():
    for n in (1, 2, 3, 7, 16, 60):
        for ports in (1, 2, 4):
            a = run_room(SimConfig(n_participants=n, ports_per_host=ports))
            b = run_room(
                SimConfig(n_participants=n, ports_per_host=ports, track_genealogies=False)
            )
            assert a.rounds == b.rounds
            assert a.makespan_s == b.makespan_s
            assert a.per_round_seeded == b.per_round_seeded
            assert a.per_round_bytes == b.per_round_bytes
            assert a.bytes_delivered == b.bytes_delivered
            assert a.amortized_mb_s == b.amortized_mb_s


@settings(max_examples=60, deadline=None)
@given(
    run=st.sampled_from([run_room, run_redeployment]),
    n=st.integers(1, 40),
    seeds=st.integers(1, 4),
    ports=st.integers(1, 4),
    release_times=st.lists(st.sampled_from([0, 500, 900, 3000, 20_000]), min_size=1, max_size=3),
    horizon=st.sampled_from([None, 0, 1000, 5000]),
)
def test_tracking_off_matches_tracked_property(run, n, seeds, ports, release_times, horizon):
    """Without genealogies both simulators report the same numbers and
    log no transfer at all."""
    kwargs = dict(
        n_participants=n,
        seeds=min(seeds, n),
        ports_per_host=ports,
        releases=tuple(zip(release_times, (V1, V2, V3))),
        horizon_s=horizon,
    )
    calls = []
    real = gen._transfer

    def counting(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gen, "_transfer", counting)
        tracked = run(SimConfig(**kwargs))
        transfers = len(calls)
        untracked = run(SimConfig(**kwargs, track_genealogies=False))
    assert transfers == tracked.bytes_delivered // 2_700_000_000 + (
        tracked.upgrade_bytes // 2_160_000_000
    )
    assert len(calls) == transfers
    assert untracked == replace(tracked, genealogies={})


@pytest.mark.parametrize("track", [True, False])
def test_image_larger_than_key_refused(track):
    with pytest.raises(rep.CapacityExceeded):
        run_room(SimConfig(n_participants=4, image_bytes=9 * GB, track_genealogies=track))


def test_room_matches_closed_form_sampled():
    for n in (1, 2, 5, 31, 32, 33, 100, 1000):
        for seeds in (1, 2, 4):
            if seeds > n:
                continue
            for ports in (1, 3):
                cfg = SimConfig(
                    n_participants=n,
                    seeds=seeds,
                    ports_per_host=ports,
                    track_genealogies=False,
                )
                assert run_room(cfg).rounds == rounds_closed_form(n, seeds, ports)


def test_room_deterministic():
    a = run_room(sixty_room())
    b = run_room(sixty_room())
    assert sim_result_to_json(a) == sim_result_to_json(b)


def test_more_ports_never_slower():
    """Extra ports can only help; amortized bandwidth strictly improves
    whenever the round count actually drops."""
    prev = run_room(SimConfig(n_participants=200, track_genealogies=False))
    for ports in (2, 3, 4):
        cur = run_room(
            SimConfig(n_participants=200, ports_per_host=ports, track_genealogies=False)
        )
        assert cur.amortized_mb_s >= prev.amortized_mb_s
        if cur.rounds < prev.rounds:
            assert cur.amortized_mb_s > prev.amortized_mb_s
        prev = cur


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_participants=0)
    with pytest.raises(ValueError):
        SimConfig(n_participants=2, seeds=3)
    with pytest.raises(ValueError):
        SimConfig(n_participants=2, ports_per_host=0)
    with pytest.raises(ValueError, match=r"\Abandwidth_mb_s must be positive\Z"):
        SimConfig(n_participants=2, bandwidth_mb_s=0)
    with pytest.raises(ValueError, match=r"\Aupgrade_ratio must be in \(0, 1\]\Z"):
        SimConfig(n_participants=2, upgrade_ratio=0)
    with pytest.raises(ValueError):
        SimConfig(n_participants=2, start_time=datetime.datetime(2013, 1, 1))


@pytest.mark.parametrize(
    "kwargs, problem",
    [
        ({"start_time": "x"}, "start_time: expected an offset-aware time"),
        ({"base_version": "x"}, "base_version: expected a ProvenanceHeader, got 'x'"),
        ({"releases": ((0, V1), (5, "x"))}, "releases[1].version: expected a ProvenanceHeader"),
    ],
)
def test_config_refuses_what_a_log_cannot_hold_at_once(kwargs, problem):
    """A start time or header the keys' logs could not hold is refused
    when the config is built, not once a run reaches it."""
    for tracked in (True, False):
        with pytest.raises(ValueError) as exc:
            SimConfig(n_participants=4, track_genealogies=tracked, **kwargs)
        assert str(exc.value).startswith(problem)


@st.composite
def _start_times(draw):
    """Aware times at any microsecond and any whole-second UTC offset, or
    naive ones; whole seconds and whole-minute offsets half the time."""
    value = draw(st.datetimes(datetime.datetime(2000, 1, 1), datetime.datetime(2030, 1, 1)))
    if draw(st.booleans()):
        value = value.replace(microsecond=0)
    if draw(st.integers(0, 4)) == 0:
        return value
    seconds = draw(st.integers(-1439, 1439).map(lambda m: m * 60) | st.integers(-86399, 86399))
    return value.replace(tzinfo=datetime.timezone(datetime.timedelta(seconds=seconds)))


def _start_outcome(run, **kwargs):
    """A 4-key run's result without its genealogies, or the refusal text."""
    try:
        return replace(run(SimConfig(n_participants=4, **kwargs)), genealogies={})
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(_start_times())
def test_start_time_is_refused_or_runs_alike_in_both_modes(start):
    """A start time is refused naming start_time, tracked or not, or a
    room and a one-release redeployment run both ways to the same result
    apart from the genealogies."""
    for run, kwargs in ((run_room, {}), (run_redeployment, {"releases": ((0, V1),)})):
        tracked = _start_outcome(run, start_time=start, **kwargs)
        counted = _start_outcome(run, start_time=start, track_genealogies=False, **kwargs)
        assert tracked == counted
        if isinstance(tracked, str):
            assert tracked.startswith("start_time: ")


# ---------------------------------------------------------------------------
# redeployment


def test_redeploy_single_release_timing():
    cfg = SimConfig(n_participants=60, releases=((0, V1),))
    res = run_redeployment(cfg)
    assert res.rounds == 6
    assert res.makespan_s == Fraction(4680)  # 6 x (300 + 480)
    assert res.per_round_seeded == (2, 4, 8, 16, 32, 60)
    assert res.bytes_delivered == 0
    assert res.amortized_mb_s == 0
    assert res.upgrade_bytes == 59 * 2_160_000_000
    assert res.version_coverage == {V1.descriptor(): 60}


def test_redeploy_release_beyond_horizon():
    cfg = SimConfig(n_participants=8, releases=((10_000, V1),), horizon_s=500)
    res = run_redeployment(cfg)
    assert res.rounds == 0
    assert res.upgrade_bytes == 0
    assert list(res.version_coverage.values()) == [8]
    assert V1.descriptor() not in res.version_coverage


def test_redeploy_requires_releases():
    with pytest.raises(ValueError):
        run_redeployment(SimConfig(n_participants=4))


def test_redeploy_three_releases_structure():
    # spaced far enough apart that each release spreads fully first
    cfg = SimConfig(
        n_participants=8,
        releases=((0, V1), (20_000, V2), (40_000, V3)),
    )
    res = run_redeployment(cfg)
    assert res.version_coverage == {V3.descriptor(): 8}

    def own_upgrades(g):
        return sum(1 for e in g.events if isinstance(e, gen.UpgradeEvent))

    for g in res.genealogies.values():
        assert own_upgrades(g) <= 3

    master = res.genealogies["key-000"]
    donors = [e.donor for e in master.events if isinstance(e, gen.UpgradeEvent)]
    assert [d.provenance for d in donors] == [V1, V2, V3]

    # out-of-band rebirth lands before any round completes
    def first_rebirth(g):
        for i, ev in enumerate(g.events):
            if isinstance(ev, gen.UpgradeEvent):
                return g.events[i + 1].timestamp
        return None

    master_first = first_rebirth(master)
    for key_id, g in res.genealogies.items():
        if key_id == "key-000":
            continue
        assert first_rebirth(g) > master_first


def test_redeploy_overlapping_releases_skip_versions():
    """A second release landing mid-spread leapfrogs stale keys straight
    to the newest version, so some keys record fewer upgrades than there
    were releases."""
    cfg = SimConfig(n_participants=16, releases=((0, V1), (800, V2)))
    res = run_redeployment(cfg)
    assert res.version_coverage == {V2.descriptor(): 16}
    counts = sorted(
        sum(1 for e in g.events if isinstance(e, gen.UpgradeEvent))
        for g in res.genealogies.values()
    )
    assert counts[0] == 1  # somebody skipped straight to V2
    assert counts[-1] == 2  # the master took both


def test_redeploy_genealogies_parse_back():
    cfg = SimConfig(n_participants=6, releases=((0, V1), (5_000, V2)))
    res = run_redeployment(cfg)
    for g in res.genealogies.values():
        assert gen.parse(gen.serialize(g)) == g


def test_redeploy_deterministic():
    cfg = SimConfig(n_participants=12, releases=((0, V1), (3000, V2)))
    assert sim_result_to_json(run_redeployment(cfg)) == sim_result_to_json(
        run_redeployment(cfg)
    )


def _release(k: int) -> tuple:
    """Release k lands a day after release k - 1, built the day before."""
    when = datetime.date(2013, 1, 1) + datetime.timedelta(days=k)
    return Fraction(86_400 * k), replace(V1, label=f"Demo Live 1.{k + 1}", build_date=when)


def _distinct_lines(records) -> int:
    """The distinct (event, nesting level) pairs in ``records``, walking
    each distinct (record, level) block once."""
    blocks, pairs = set(), set()
    todo = [(g, 0) for g in records]
    while todo:
        g, level = todo.pop()
        if (id(g), level) not in blocks:
            blocks.add((id(g), level))
            pairs.update((id(ev), level) for ev in g.events)
            todo += [(ev.donor, level + 1) for ev in g.events if isinstance(ev, gen.UpgradeEvent)]
    return len(pairs)


@pytest.mark.parametrize("releases", [9, 12])
def test_result_json_formats_each_distinct_line_once(monkeypatch, releases):
    """Writing a redeployment formats each event once per nesting level
    it occurs at, however many logs repeat it."""
    config = SimConfig(n_participants=64, releases=tuple(map(_release, range(releases))))
    result = run_redeployment(config)
    calls = []
    for name in ("_event_line", "_upgrade_line"):
        original = getattr(gen, name)
        monkeypatch.setattr(gen, name, lambda *a, _f=original: calls.append(a) or _f(*a))
    lines = sim_result_to_json(result).count("\\n")  # each log line ends in an escaped newline
    assert len(calls) == _distinct_lines(result.genealogies.values())
    assert len(calls) * 100 < lines


def test_tracked_runs_hold_a_bounded_count_of_keys():
    """A run that tracks genealogies builds every key, so its count is
    bounded before any is built; a count-only run has no such bound."""
    limit = sim._MAX_TRACKED_KEYS
    assert SimConfig(n_participants=limit).n_participants == limit
    for n in (limit + 1, 10**4298):
        with pytest.raises(ValueError, match="^n_participants: .*track_genealogies: false"):
            SimConfig(n_participants=n)
        assert SimConfig(n_participants=n, track_genealogies=False).n_participants == n


def _refused(*args):
    raise AssertionError("a simulator built a key through apply_transfer")


@pytest.mark.parametrize(
    "run, config, landings",
    [
        (run_room, SimConfig(n_participants=8192), 0),
        (
            run_redeployment,
            SimConfig(
                n_participants=64, ports_per_host=2, releases=((0, V1), (5000, V2), (20_000, V3))
            ),
            3,
        ),
    ],
)
def test_tracked_runs_build_one_key_and_each_rounds_events_once(
    monkeypatch, run, config, landings
):
    """A tracked run carries logs, not keys: it builds the seed key, one
    rebirth per landing, and each round's spawn and birth once for all
    of the round's transfers, none of which goes through apply_transfer."""
    built = dict.fromkeys((rep.KeyState, gen.GenealogyEvent), 0)
    for cls in built:

        def counting(self, _check=cls.__post_init__, _cls=cls):
            built[_cls] += 1
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    monkeypatch.setattr(rep, "apply_transfer", _refused)
    result = run(config)
    assert len(result.genealogies) == config.n_participants
    assert built == {rep.KeyState: 1, gen.GenealogyEvent: 1 + landings + 2 * result.rounds}


# ---------------------------------------------------------------------------
# reference model: one full key per participant, as the simulators were
# first written, against the shared round loop's prefix counts and logs


def _reference_key(version, image_bytes, capacity_kib, born_at, locale=None):
    image = rep.ImageManifest(version, frozenset({"/live/filesystem.squashfs"}), image_bytes)
    return rep.KeyState.from_manifest(image, capacity_kib, born_at, locale)


def _reference_genealogies(keys):
    return {key_id: key.genealogy for key_id, key in zip(sim._key_ids(len(keys)), keys)}


def _reference_transfer_round(keys, sources, targets, config, now):
    for j, target in enumerate(targets):
        source = sources[j // config.ports_per_host]
        keys[source], keys[target] = rep.apply_transfer(
            keys[source], keys[target], config.capacity_kib, now
        )


def _reference_room(config):
    n, seeds, ports = config.n_participants, config.seeds, config.ports_per_host
    clone_s = Fraction(config.image_bytes) / (config.bandwidth_mb_s * MB)
    round_len = config.setup_delay_s + clone_s
    track = config.track_genealogies
    seed = _reference_key(
        config.base_version, config.image_bytes, config.capacity_kib, config.start_time
    )
    keys = [seed] * seeds + [None] * (n - seeds) if track else []
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
            now = sim._floor_time(config, elapsed)
            _reference_transfer_round(
                keys, range(covered), range(covered, covered + new), config, now
            )
        covered += new
        per_round_seeded.append(covered)
        per_round_bytes.append(new * config.image_bytes)
    bytes_delivered = (n - seeds) * config.image_bytes
    amortized = Fraction(bytes_delivered) / (elapsed * MB) if elapsed > 0 else Fraction(0)
    return SimResult(
        n_participants=n,
        ports=ports,
        rounds=rounds,
        makespan_s=elapsed,
        bytes_delivered=bytes_delivered,
        amortized_mb_s=amortized,
        per_round_seeded=tuple(per_round_seeded),
        per_round_bytes=tuple(per_round_bytes),
        genealogies=_reference_genealogies(keys),
        version_coverage={config.base_version.descriptor(): n},
    )


def _reference_redeployment(config):
    n = config.n_participants
    ports = config.ports_per_host
    per_upgrade_bytes = math.ceil(config.upgrade_ratio * config.image_bytes)
    round_len = config.setup_delay_s + Fraction(per_upgrade_bytes) / (
        config.bandwidth_mb_s * MB
    )
    staging_peak = config.image_bytes + per_upgrade_bytes
    capacity = config.capacity_kib * KIB
    track = config.track_genealogies
    seed = _reference_key(
        config.base_version, config.image_bytes, config.capacity_kib, config.start_time
    )
    keys = [seed] * n if track else []
    headers = [config.base_version] + [header for _, header in config.releases]
    level = [0] * n
    elapsed = Fraction(0)
    rounds = 0
    per_round_seeded = []
    per_round_bytes = []
    applied = 0
    first_applied_at = None

    def within_horizon(t):
        return config.horizon_s is None or t <= config.horizon_s

    while True:
        while applied < len(config.releases) and (
            config.releases[applied][0] <= elapsed
            and within_horizon(config.releases[applied][0])
        ):
            release_time, header = config.releases[applied]
            applied += 1
            level[0] = applied
            if track:
                now = sim._floor_time(config, max(release_time, elapsed))
                master = keys[0]
                donor = gen.Genealogy(provenance=header)
                rebirth = gen.GenealogyEvent(
                    gen.EventKind.BIRTH, now, master.locale, master.capacity_kib, 1
                )
                rebuilt = _reference_key(
                    header, config.image_bytes, master.capacity_kib, now, master.locale
                )
                keys[0] = replace(
                    rebuilt, genealogy=gen.record_upgrade(master.genealogy, donor, rebirth)
                )
            if first_applied_at is None:
                first_applied_at = elapsed
        stale = [i for i in range(n) if level[i] < applied]
        if stale:
            if not within_horizon(elapsed + round_len):
                break
            if staging_peak > capacity:
                raise rep.CapacityExceeded("upgrade staging")
            sources = [i for i in range(n) if level[i] == applied]
            targets = stale[: len(sources) * ports]
            elapsed += round_len
            rounds += 1
            if track:
                now = sim._floor_time(config, elapsed)
                _reference_transfer_round(keys, sources, targets, config, now)
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
        genealogies=_reference_genealogies(keys),
        version_coverage=coverage,
        upgrade_bytes=sum(per_round_bytes),
    )


def _outcome(run, config):
    try:
        result = run(config)
    except rep.CapacityExceeded:
        return "capacity-exceeded"
    return sim_result_to_json(result), time_series_rows(result)


@settings(max_examples=200, deadline=None)
@given(
    room=st.booleans(),
    n=st.integers(1, 70),
    seeds=st.integers(1, 8),
    ports=st.integers(1, 4),
    release_times=st.lists(
        st.sampled_from([0, 1, 300, 480, 500, 900, 1500, 3000, 20_000]), min_size=1, max_size=4
    ),
    versions=st.lists(st.sampled_from([V1, V2, V3]), min_size=4, max_size=4),
    horizon=st.sampled_from([None, 0, 480, 1000, 5000, 10**6]),
    setup=st.sampled_from([0, 120, 300]),
    ratio=st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(4, 5), Fraction(1)]),
    image_gb=st.sampled_from([Fraction(27, 10), Fraction(9, 2)]),
    track=st.booleans(),
)
def test_round_loop_matches_reference_model(
    room, n, seeds, ports, release_times, versions, horizon, setup, ratio, image_gb, track
):
    """The shared round loop's prefix counts give the same results, byte
    for byte, as a per-key level list and O(n) scans per round."""
    config = SimConfig(
        n_participants=n,
        seeds=min(seeds, n),
        ports_per_host=ports,
        image_bytes=int(image_gb * GB),
        setup_delay_s=setup,
        upgrade_ratio=ratio,
        releases=tuple(zip(release_times, versions)),
        horizon_s=horizon,
        track_genealogies=track,
    )
    if room:
        assert _outcome(run_room, config) == _outcome(_reference_room, config)
    else:
        expected = _outcome(_reference_redeployment, config)
        assert _outcome(run_redeployment, config) == expected


# ---------------------------------------------------------------------------
# the clock past year 9999

# The last whole second after the default start_time that a clock can show.
_LAST = datetime.datetime.max.replace(tzinfo=UTC) - SimConfig(n_participants=1).start_time
_LAST = _LAST.days * 86_400 + _LAST.seconds


def _run_outcome(run, config):
    try:
        return run(config)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(
    run=st.sampled_from([run_room, run_redeployment]),
    n=st.integers(1, 12),
    seeds=st.integers(1, 3),
    ports=st.integers(1, 3),
    setup=st.sampled_from(
        [0, 300, _LAST // 3 - 600, _LAST // 2 - 480, _LAST - 600, _LAST - 599, _LAST, 10**15]
    ),
    release_times=st.lists(
        st.sampled_from([0, 500, _LAST // 2, _LAST - 1, _LAST, _LAST + 1, 10**15]),
        min_size=1,
        max_size=3,
    ),
)
def test_count_only_refuses_the_same_clocks(run, n, seeds, ports, setup, release_times):
    """With setup delays and release times on both sides of the year-9999
    edge, tracked and count-only runs refuse the same clocks with the same
    line, and agree on every count otherwise."""
    kwargs = dict(
        n_participants=n,
        seeds=min(seeds, n),
        ports_per_host=ports,
        setup_delay_s=setup,
        releases=tuple(zip(release_times, (V1, V2, V3))),
    )
    tracked = _run_outcome(run, SimConfig(**kwargs))
    untracked = _run_outcome(run, SimConfig(**kwargs, track_genealogies=False))
    if isinstance(tracked, str):
        assert tracked.endswith(" s after start_time is past year 9999")
        assert untracked == tracked
    else:
        assert untracked == replace(tracked, genealogies={})


@pytest.mark.parametrize("track", [True, False])
def test_clock_edge_is_the_last_second_of_year_9999(track):
    """The clocks sampled above straddle the edge: a round may end on its
    last second but not one second later."""
    config = SimConfig(n_participants=2, setup_delay_s=_LAST - 600, track_genealogies=track)
    assert run_room(config).makespan_s == _LAST
    with pytest.raises(ValueError, match=f"^simulated time {_LAST + 1} s after start_time"):
        run_room(replace(config, setup_delay_s=_LAST - 599))


# ---------------------------------------------------------------------------
# reporting


def test_summarize_sixty_room_row():
    rows = summarize([run_room(sixty_room(track=False))])
    assert rows[0] == ("n", "ports", "rounds", "makespan_s", "amortized_mb_s")
    assert rows[1] == (60, 1, 6, 5400.0, 29.5)


def test_summarize_empty():
    assert summarize([]) == [("n", "ports", "rounds", "makespan_s", "amortized_mb_s")]


def test_summarize_sorted():
    results = [
        run_room(SimConfig(n_participants=n, ports_per_host=p, track_genealogies=False))
        for n, p in [(60, 2), (8, 1), (60, 1)]
    ]
    rows = summarize(results)
    assert [(r[0], r[1]) for r in rows[1:]] == [(8, 1), (60, 1), (60, 2)]


def test_time_series_rows():
    res = run_room(SimConfig(n_participants=8, track_genealogies=False))
    rows = time_series_rows(res)
    assert rows[0] == ("round", "seeded_count", "cumulative_bytes")
    assert [r[1] for r in rows[1:]] == [2, 4, 8]
    assert rows[-1][2] == 7 * 2_700_000_000


# ---------------------------------------------------------------------------
# JSON config


def test_config_from_json_minimal():
    cfg = sim_config_from_json('{"n_participants": 60}')
    assert cfg == SimConfig(n_participants=60)


def test_config_from_json_full():
    text = """
    {
      "n_participants": 32,
      "seeds": 2,
      "ports_per_host": 3,
      "image_bytes": 1000000000,
      "bandwidth_mb_s": "4.5",
      "setup_delay_s": 120,
      "upgrade_ratio": 0.5,
      "track_genealogies": false,
      "releases": [{"time_s": 60, "version": "Demo Live 1.1 2013-06-01 en_US.UTF-8 - stable - amd64"}]
    }
    """
    cfg = sim_config_from_json(text)
    assert cfg.seeds == 2
    assert cfg.bandwidth_mb_s == Fraction(9, 2)
    assert cfg.upgrade_ratio == Fraction(1, 2)
    assert cfg.releases == ((Fraction(60), V1),)
    assert cfg.track_genealogies is False


def test_result_json_is_stable():
    res = run_room(SimConfig(n_participants=4))
    text = sim_result_to_json(res)
    assert text.endswith("\n")
    assert '"rounds": 2' in text
    assert text == sim_result_to_json(res)


# ---------------------------------------------------------------------------
# reference reader: sim_config_from_json as it was when it restated
# SimConfig's field lists, against the reader that passes fields through


def _reference_shown(value):
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _reference_header(name, value):
    if not isinstance(value, str):
        raise ValueError(f"{name}: expected a string, got {_reference_shown(value)}")
    return gen.ProvenanceHeader.from_descriptor(value)


def _reference_config_from_json(text):
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
        kwargs["base_version"] = _reference_header("base_version", doc["base_version"])
    if "releases" in doc:
        releases = []
        items = doc["releases"]
        if not isinstance(items, list):
            raise ValueError(f"releases: expected a list, got {_reference_shown(items)}")
        for index, item in enumerate(items):
            if not isinstance(item, dict):
                raise ValueError(
                    f"releases[{index}]: expected an object, got {_reference_shown(item)}"
                )
            for name in item:
                if name not in ("time_s", "version"):
                    raise ValueError(f"releases[{index}]: unknown field {name!r}")
            for name in ("time_s", "version"):
                if name not in item:
                    raise ValueError(f"releases[{index}]: missing field {name!r}")
            version = _reference_header(f"releases[{index}].version", item["version"])
            releases.append((item["time_s"], version))
        kwargs["releases"] = tuple(releases)
    if "start_time" in doc:
        if not isinstance(doc["start_time"], str):
            raise ValueError(
                f"start_time: expected a string, got {_reference_shown(doc['start_time'])}"
            )
        kwargs["start_time"] = datetime.datetime.fromisoformat(doc["start_time"])
    return SimConfig(**kwargs)


_any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**10) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)
_descriptors = st.sampled_from(
    [
        V1.descriptor(),
        V2.descriptor(),
        "x",
        "Demo Live 1.1 2013-13-01 en_US.UTF-8 - stable - amd64",
        "Demo Live 1.1 2013-02-30 en_US.UTF-8 - stable - amd64",
        "Demo Live 1.1 13-06-01 en_US.UTF-8 - stable - amd64",
        "Live - stable - amd64",
    ]
)
_timestamps = st.sampled_from(
    [
        "2013-02-17 13:01:00+00:00",
        "2013-02-17T13:01:00+02:00",
        "2013-02-17 13:01:00",
        "2013-02-30 13:01:00+00:00",
        "garbage",
        "",
    ]
)
_release_times = st.sampled_from([0, 60, "9/2", -1, 0.5, "1/0"])
_releases = st.lists(
    st.fixed_dictionaries({"time_s": _release_times, "version": _descriptors})
    | st.fixed_dictionaries({"time_s": _release_times})
    | st.fixed_dictionaries({"version": _descriptors})
    | _descriptors,
    max_size=3,
)
_valid_fields = {
    "n_participants": st.integers(1, 40),
    "seeds": st.integers(1, 3),
    "ports_per_host": st.integers(1, 4),
    "image_bytes": st.sampled_from([1_000_000_000, 2_700_000_000, 9_000_000_000]),
    "capacity_kib": st.sampled_from([7_812_500, 1000]),
    "bandwidth_mb_s": st.sampled_from([4.5, "9/2", 12, None, 0]),
    "setup_delay_s": st.sampled_from([300, "120", 0.25, None, -1]),
    "upgrade_ratio": st.sampled_from([0.8, "1/2", 1, None, 2]),
    "horizon_s": st.sampled_from([None, 0, 5000, "1/3", -1]),
    "track_genealogies": st.booleans(),
    "base_version": _descriptors,
    "start_time": _timestamps,
    "releases": _releases,
}


@st.composite
def _config_docs(draw):
    """A config document of valid and invalid values (releases missing a
    field or not an object among them), with fields given a value of the
    wrong JSON type, added under unknown names, or dropped
    (n_participants too)."""
    names = draw(st.lists(st.sampled_from(sorted(_valid_fields)), unique=True))
    doc = {name: draw(_valid_fields[name]) for name in ["n_participants", *names]}
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["retype", "unknown", "drop"]))
        if op == "retype":
            doc[draw(st.sampled_from(sorted(_valid_fields)))] = draw(_any_json)
        elif op == "unknown":
            doc[draw(st.sampled_from(["rng_seed", "port_per_host", "Seeds"]))] = 1
        elif doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


def _read_outcome(read, text):
    try:
        return read(text)
    except (ValueError, rep.ReplicationError) as exc:
        return type(exc), str(exc)


def _first_parse_failure(doc):
    """(field, reason) of the first descriptor or timestamp string, in
    reading order, that does not parse, or None."""
    strings = [("base_version", doc.get("base_version"), gen.ProvenanceHeader.from_descriptor)]
    if isinstance(doc.get("releases"), list):
        strings += [
            (f"releases[{i}].version", item.get("version"), gen.ProvenanceHeader.from_descriptor)
            for i, item in enumerate(doc["releases"])
            if isinstance(item, dict)
        ]
    strings.append(("start_time", doc.get("start_time"), datetime.datetime.fromisoformat))
    for field, value, parse in strings:
        if isinstance(value, str):
            try:
                parse(value)
            except ValueError as exc:
                return field, str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(_config_docs())
def test_config_reader_matches_reference(doc):
    """Passing fields through to SimConfig accepts and refuses the same
    documents with the same text as reading each field by name, except
    that a descriptor or timestamp that does not parse is now named."""
    text = json.dumps(doc)
    expected = _read_outcome(_reference_config_from_json, text)
    got = _read_outcome(sim_config_from_json, text)
    failure = _first_parse_failure(doc)
    if failure is not None and expected == (ValueError, failure[1]):
        assert got == (ValueError, f"{failure[0]}: {failure[1]}")
    else:
        assert got == expected


# ---------------------------------------------------------------------------
# the object rule, at both levels of a redeploy config

_CONFIG_OPTIONAL = (
    "seeds",
    "ports_per_host",
    "image_bytes",
    "bandwidth_mb_s",
    "setup_delay_s",
    "upgrade_ratio",
    "releases",
    "base_version",
    "capacity_kib",
    "start_time",
    "horizon_s",
    "track_genealogies",
)
_exact_values = st.fractions(min_value=Fraction(1, 100), max_value=10**4, max_denominator=1000)


@st.composite
def _valid_configs(draw):
    """(document, the SimConfig it stands for): a valid config with some
    optional fields set, and one to three releases."""
    n = draw(st.integers(1, 40))
    kwargs = {"n_participants": n}
    doc = {"n_participants": n}
    for name in draw(st.lists(st.sampled_from(_CONFIG_OPTIONAL), unique=True)):
        value = {
            "seeds": st.integers(1, n),
            "ports_per_host": st.integers(1, 4),
            "image_bytes": st.integers(1, 2_700_000_000),
            "bandwidth_mb_s": _exact_values,
            "setup_delay_s": _exact_values,
            "upgrade_ratio": st.fractions(Fraction(1, 100), 1, max_denominator=100),
            "base_version": st.sampled_from([V1, V2]),
            "capacity_kib": st.integers(2_700_000_000 // KIB + 1, 10**8),
            "start_time": st.sampled_from(
                [datetime.datetime(2014, 3, 1, 8, 30, tzinfo=UTC), sim._EPOCH]
            ),
            "releases": st.lists(st.tuples(_exact_values, st.sampled_from([V2, V3])), max_size=3),
            "horizon_s": _exact_values,
            "track_genealogies": st.booleans(),
        }[name]
        kwargs[name] = draw(value)
    kwargs["releases"] = kwargs.get("releases") or [(Fraction(60), V2)]
    for name, value in kwargs.items():
        if isinstance(value, Fraction):
            doc[name] = str(value)
        elif isinstance(value, gen.ProvenanceHeader):
            doc[name] = value.descriptor()
        elif isinstance(value, datetime.datetime):
            doc[name] = value.isoformat()
        elif name == "releases":
            doc[name] = [{"time_s": str(t), "version": v.descriptor()} for t, v in value]
        else:
            doc[name] = value
    return doc, SimConfig(**{**kwargs, "releases": tuple(kwargs["releases"])})


@settings(max_examples=150, deadline=None)
@given(_valid_configs(), st.data())
def test_config_objects_refuse_unknown_and_missing_fields(valid, data):
    """An untouched config reads back as the SimConfig it stands for; the
    document or a release given a field it does not know, or without one
    it needs, is refused naming both."""
    doc, config = valid
    assert sim_config_from_json(json.dumps(doc)) == config
    levels = [("", doc, ("n_participants",), _CONFIG_OPTIONAL)]
    for i, release in enumerate(doc["releases"]):
        levels.append((f"releases[{i}]", release, ("time_s", "version"), ()))
    path, obj, required, optional = data.draw(st.sampled_from(levels))
    assert set(required) <= set(obj) <= {*required, *optional}
    prefix = f"{path}: " if path else ""
    if data.draw(st.booleans()):
        name = data.draw(st.text(max_size=12).filter(lambda n: n not in (*required, *optional)))
        obj[name] = data.draw(st.none() | st.booleans() | st.integers() | st.text(max_size=4))
        problem = f"{prefix}unknown field {name!r}"
    else:
        name = data.draw(st.sampled_from(required))
        del obj[name]
        problem = f"{prefix}missing field {name!r}"
    with pytest.raises(ValueError) as exc:
        sim_config_from_json(json.dumps(doc))
    assert str(exc.value) == problem
