"""Tests for the room-deployment and redeployment simulators."""

import datetime
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from replikey import genealogy as gen
from replikey import replicator as rep
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
    write no key at all."""
    kwargs = dict(
        n_participants=n,
        seeds=min(seeds, n),
        ports_per_host=ports,
        releases=tuple(zip(release_times, (V1, V2, V3))),
        horizon_s=horizon,
    )
    calls = []
    real = rep.apply_transfer

    def counting(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rep, "apply_transfer", counting)
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
    with pytest.raises(ValueError):
        SimConfig(n_participants=2, bandwidth_mb_s=0)
    with pytest.raises(ValueError):
        SimConfig(n_participants=2, upgrade_ratio=0)
    with pytest.raises(ValueError):
        SimConfig(n_participants=2, start_time=datetime.datetime(2013, 1, 1))


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
