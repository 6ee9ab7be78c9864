"""Tests for manifests, tampering, cross-verification and the trust
simulation."""

import copy
import datetime
import math
import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from replikey import genealogy as gen
from replikey import integrity
from replikey.integrity import (
    _TAMPERED_VERSION,
    IntegrityManifest,
    ManifestParseError,
    MeetingResult,
    Outcome,
    Protocol,
    TamperAction,
    TamperError,
    TamperKind,
    TrustSimConfig,
    build_manifest,
    check_against,
    content_digest,
    expected_manifest,
    manifest_from_text,
    manifest_to_text,
    meeting,
    run_trust_sim,
    tamper,
    trust_sim_result_to_json,
    verify,
)
from replikey.replicator import (
    FileClass,
    FileEntry,
    ImageManifest,
    KeyState,
)
from replikey.spreadsim import (
    DEFAULT_CAPACITY_KIB,
    _DEFAULT_VERSION,
    _EPOCH,
    _IMAGE_BYTES,
    _SQUASHFS,
    _key_ids,
)

UTC = datetime.timezone.utc
T0 = datetime.datetime(2013, 2, 17, 13, 1, tzinfo=UTC)
CAPACITY = 7_812_500

V0 = gen.ProvenanceHeader(
    "Demo Live 1.0", datetime.date(2013, 1, 1), "en_US.UTF-8", "stable", "amd64"
)
V1 = gen.ProvenanceHeader(
    "Demo Live 1.1", datetime.date(2013, 2, 1), "en_US.UTF-8", "stable", "amd64"
)

WHITELIST = frozenset({"/live/filesystem.squashfs", "/live/vmlinuz", "/boot/grub.cfg"})


def image(version=V0):
    return ImageManifest(version=version, whitelist=WHITELIST, image_bytes=2_700_000_000)


def fresh_key(version=V0):
    return KeyState.from_manifest(image(version), CAPACITY, T0)


def loaded_key():
    """A key with personal and share files on top of the system set."""
    key = fresh_key()
    key = key.with_file("/home/user/notes.txt", FileEntry(1_000, FileClass.PERSONAL))
    key = key.with_file("/share/slides.pdf", FileEntry(2_000, FileClass.SHARE))
    return key


# ---------------------------------------------------------------------------
# manifests


def test_build_manifest_counts_system_files():
    man = build_manifest(fresh_key())
    assert len(man.digests) == 3
    assert man.paths() == tuple(sorted(WHITELIST))
    assert man.boot_pointer == "/boot/grub.cfg"
    assert man.version == V0


def test_build_manifest_skips_personal_and_share():
    man = build_manifest(loaded_key())
    assert "/home/user/notes.txt" not in man.paths()
    assert "/share/slides.pdf" not in man.paths()
    assert len(man.digests) == 3


def test_identical_clones_identical_manifests():
    assert build_manifest(fresh_key()) == build_manifest(fresh_key())


def test_build_manifest_needs_system_files():
    key = KeyState(
        version=V0,
        files={"/home/diary": FileEntry(10, FileClass.PERSONAL)},
        image_bytes=10,
        genealogy=gen.Genealogy(provenance=V0),
        capacity_kib=CAPACITY,
        boot_path="/home/diary",
    )
    with pytest.raises(ValueError):
        build_manifest(key)


def test_expected_manifest_matches_fresh_build():
    """Reconstruction from the version descriptor reproduces exactly what
    a cleanly built key publishes."""
    assert expected_manifest(V0, WHITELIST) == build_manifest(fresh_key())


def test_expected_manifest_custom_boot():
    man = expected_manifest(V0, WHITELIST, boot_path="/live/vmlinuz")
    assert man.boot_pointer == "/live/vmlinuz"
    with pytest.raises(ValueError):
        expected_manifest(V0, [])


def test_manifest_validation():
    d = content_digest("x")
    with pytest.raises(ValueError):
        IntegrityManifest(digests=(), boot_pointer="/a")
    with pytest.raises(ValueError):
        IntegrityManifest(digests=(("/a", d), ("/a", d)), boot_pointer="/a")
    with pytest.raises(ValueError):
        IntegrityManifest(digests=(("/a", "abc"),), boot_pointer="/a")
    with pytest.raises(ValueError):
        IntegrityManifest(digests=(("/a", d),), boot_pointer="/b")


def test_manifest_text_round_trip():
    man = build_manifest(loaded_key())
    back = manifest_from_text(manifest_to_text(man))
    assert back.digests == man.digests
    assert back.boot_pointer == man.boot_pointer
    assert back.version is None


@given(st.lists(st.text(), min_size=1, max_size=4, unique=True), st.integers(0, 3))
@example(["/boot/a\u2028b", "\x85", "\x0c\x1c", "/c\v"], 0)
@example(["/a", ""], 0)
@example(["/a", "/b\nc"], 0)
@example(["/a", "/b\r"], 1)
def test_manifest_text_round_trip_property(paths, boot):
    """Any path a manifest line can hold reads back as written, with "\\n"
    or "\\r\\n" line ends; an empty path or one holding "\\n" or "\\r" is
    refused on writing, so no manifest is written that cannot be read."""
    man = IntegrityManifest(
        digests=tuple((p, content_digest(p)) for p in paths),
        boot_pointer=paths[boot % len(paths)],
    )
    if any(not p or "\n" in p or "\r" in p for p in paths):
        with pytest.raises(ValueError, match="cannot be written on a manifest line"):
            manifest_to_text(man)
        return
    text = manifest_to_text(man)
    for written in (text, text.replace("\n", "\r\n")):
        back = manifest_from_text(written)
        assert (back.digests, back.boot_pointer) == (man.digests, man.boot_pointer)


def test_manifest_text_layout():
    man = build_manifest(fresh_key())
    lines = manifest_to_text(man).splitlines()
    assert lines[-1] == "boot=/boot/grub.cfg"
    body = lines[:-1]
    assert [ln[66:] for ln in body] == sorted(ln[66:] for ln in body)
    for ln in body:
        assert ln[64:66] == "  "
        assert len(ln[:64]) == 64


def test_manifest_parse_errors():
    d = content_digest("x")
    good = f"{d}  /a\nboot=/a\n"
    assert manifest_from_text(good).boot_pointer == "/a"
    with pytest.raises(ManifestParseError) as e:
        manifest_from_text(f"{d}  /a\n\nboot=/a\n")
    assert e.value.lineno == 2
    with pytest.raises(ManifestParseError):
        manifest_from_text(f"{d}  /a\nboot=/a\nextra\n")
    with pytest.raises(ManifestParseError):
        manifest_from_text(f"{d}  /a\n")  # no boot line
    with pytest.raises(ManifestParseError):
        manifest_from_text(f"{d}  /a\nboot=\n")
    with pytest.raises(ManifestParseError):
        manifest_from_text("nothexnothex  /a\nboot=/a\n")
    with pytest.raises(ManifestParseError):
        manifest_from_text(f"{d} /a\nboot=/a\n")  # one space only
    with pytest.raises(ManifestParseError):
        manifest_from_text(f"{d}  /a\nboot=/b\n")  # boot unlisted


def test_manifest_parse_names_the_repeated_path_line():
    d = content_digest("x")
    with pytest.raises(ManifestParseError) as e:
        manifest_from_text(f"{d}  /a\n{d}  /b\n{d}  /a\nboot=/a\n")
    assert (e.value.lineno, e.value.reason) == (3, "duplicate path in manifest")


def test_long_paths_in_manifest_diagnostics_stay_one_short_line():
    d = content_digest("x")
    with pytest.raises(ManifestParseError) as e:
        manifest_from_text(f"{d}  /a\nboot=/{'b' * 5000}\n")
    assert e.value.lineno == 2 and len(str(e.value)) < 200
    assert e.value.reason.startswith("boot pointer '/bbb")
    assert e.value.reason.endswith("... is not a listed file")
    with pytest.raises(ValueError) as e:
        IntegrityManifest(digests=((f"/{'p' * 5000}", "zz"),), boot_pointer="/a")
    assert str(e.value).startswith("bad digest for '/ppp") and len(str(e.value)) < 200


def test_manifest_parse_names_the_boot_line():
    d = content_digest("x")
    with pytest.raises(ManifestParseError) as e:
        manifest_from_text(f"{d}  /a\n{d}  /b\nboot=/z\n")
    assert (e.value.lineno, e.value.reason) == (3, "boot pointer '/z' is not a listed file")
    with pytest.raises(ManifestParseError) as e:
        manifest_from_text("boot=/a\n")
    assert (e.value.lineno, e.value.reason) == (1, "manifest lists no files")


# ---------------------------------------------------------------------------
# tampering


def test_modify_file_detected_with_path():
    key = fresh_key()
    ref = build_manifest(key)
    bad = tamper(key, TamperAction(TamperKind.MODIFY_FILE, "/live/filesystem.squashfs"))
    verdict = verify(fresh_key(), bad, ref)
    assert verdict.outcome is Outcome.FAIL_DIGEST
    assert verdict.offending_path == "/live/filesystem.squashfs"
    assert bad.compromised


def test_tamper_then_restore_passes_again():
    key = fresh_key()
    ref = build_manifest(key)
    original = key.file_map()["/live/vmlinuz"]
    bad = tamper(key, TamperAction(TamperKind.MODIFY_FILE, "/live/vmlinuz"))
    restored = bad.with_file("/live/vmlinuz", original)
    assert verify(fresh_key(), restored, ref).passed


def test_shadow_boot_detected_by_pointer_rule_only():
    key = fresh_key()
    ref = build_manifest(key)
    sh = tamper(key, TamperAction(TamperKind.SHADOW_BOOT, "/evil/payload"))
    # every listed digest still matches
    files = sh.file_map()
    for path, digest in ref.digests:
        assert content_digest(files[path].content) == digest
    verdict = verify(fresh_key(), sh, ref)
    assert verdict.outcome is Outcome.FAIL_BOOT_POINTER
    assert verdict.offending_path == "/evil/payload"
    assert files["/evil/payload"].size_bytes == 0
    assert files["/evil/payload"].file_class is FileClass.PERSONAL


def test_tamper_leaves_input_alone():
    key = fresh_key()
    ref = build_manifest(key)
    tamper(key, TamperAction(TamperKind.MODIFY_FILE, "/live/vmlinuz"))
    tamper(key, TamperAction(TamperKind.SHADOW_BOOT, "/evil/x"))
    assert verify(fresh_key(), key, ref).passed
    assert not key.compromised


def test_tamper_path_errors():
    key = fresh_key()
    with pytest.raises(TamperError):
        tamper(key, TamperAction(TamperKind.MODIFY_FILE, "/missing"))
    with pytest.raises(TamperError):
        tamper(key, TamperAction(TamperKind.SHADOW_BOOT, "/live/vmlinuz"))


# ---------------------------------------------------------------------------
# verification


def test_clean_pair_passes():
    assert verify(fresh_key(), fresh_key(), build_manifest(fresh_key())).passed


def test_compromised_verifier_always_passes():
    ref = build_manifest(fresh_key())
    liar = tamper(
        fresh_key(), TamperAction(TamperKind.MODIFY_FILE, "/live/vmlinuz")
    )
    victim = tamper(
        fresh_key(), TamperAction(TamperKind.SHADOW_BOOT, "/evil/payload")
    )
    assert verify(liar, victim, ref).passed
    assert verify(liar, liar_copy := replace(liar), ref).passed
    assert not check_against(victim, ref).passed


def test_key_cannot_check_itself():
    key = fresh_key()
    with pytest.raises(ValueError):
        verify(key, key, build_manifest(key))


def test_extra_system_file_fails():
    key = fresh_key().with_file("/live/extra", FileEntry(5, FileClass.SYSTEM))
    verdict = verify(fresh_key(), key, build_manifest(fresh_key()))
    assert verdict.outcome is Outcome.FAIL_DIGEST
    assert verdict.offending_path == "/live/extra"


def test_missing_listed_file_fails():
    ref = build_manifest(fresh_key())
    small = ImageManifest(
        version=V0, whitelist=frozenset({"/boot/grub.cfg"}), image_bytes=100
    )
    subject = KeyState.from_manifest(small, CAPACITY, T0)
    verdict = verify(fresh_key(), subject, ref)
    assert verdict.outcome is Outcome.FAIL_DIGEST


def test_first_mismatch_in_path_order_reported():
    key = fresh_key()
    ref = build_manifest(key)
    bad = tamper(key, TamperAction(TamperKind.MODIFY_FILE, "/live/vmlinuz"))
    bad = replace(
        tamper(bad, TamperAction(TamperKind.MODIFY_FILE, "/boot/grub.cfg")),
        compromised=False,
    )
    assert check_against(bad, ref).offending_path == "/boot/grub.cfg"


def test_personal_files_do_not_affect_verdict():
    ref = build_manifest(fresh_key())
    assert verify(fresh_key(), loaded_key(), ref).passed


# ---------------------------------------------------------------------------
# meetings


def tampered_key():
    return tamper(
        fresh_key(V1), TamperAction(TamperKind.MODIFY_FILE, "/live/filesystem.squashfs")
    )


def test_newest_boots_propagates_tamper():
    bad, victim = tampered_key(), fresh_key()
    res = meeting(bad, victim, Protocol.NEWEST_BOOTS, random.Random(0))
    assert res.booter == 0
    assert res.verdict.passed
    assert res.flagged is None
    assert res.keys[1].compromised
    assert res.keys[1].version == V1
    assert res.keys[0].compromised  # untouched


def test_newest_boots_same_version_no_change():
    a, b = fresh_key(), fresh_key()
    res = meeting(a, b, Protocol.NEWEST_BOOTS, random.Random(0))
    assert res.verdict.passed
    assert res.keys == (a, b)


def test_random_draw_detection_iff_clean_boots():
    for seed in range(40):
        bad, victim = tampered_key(), fresh_key()
        res = meeting(bad, victim, Protocol.RANDOM_DRAW, random.Random(seed))
        if res.booter == 1:  # the clean key drew the boot
            assert res.verdict.outcome is Outcome.FAIL_DIGEST
            assert res.flagged == 0
            assert not res.keys[1].compromised  # no upgrade happened
        else:
            assert res.verdict.passed  # the liar checked its victim
            assert res.keys[1].compromised


def test_random_draw_legit_upgrade_spreads():
    newer, older = fresh_key(V1), fresh_key()
    res = meeting(newer, older, Protocol.RANDOM_DRAW, random.Random(3))
    assert res.verdict.passed
    assert res.keys[1].version == V1
    assert not res.keys[1].compromised


def test_two_key_owner_flags_tampered_upgrade():
    bad, victim = tampered_key(), fresh_key()
    res = meeting(bad, victim, Protocol.TWO_KEY_OWNER, random.Random(0))
    assert res.verdict.outcome is Outcome.FAIL_DIGEST
    assert res.flagged == 1
    assert res.keys[1].compromised  # upgrade ran before the check


def test_two_key_owner_clean_upgrade_passes():
    res = meeting(fresh_key(V1), fresh_key(), Protocol.TWO_KEY_OWNER, random.Random(0))
    assert res.verdict.passed
    assert res.keys[1].version == V1


def test_two_key_owner_catches_shadow_boot():
    bad = tamper(fresh_key(V1), TamperAction(TamperKind.SHADOW_BOOT, "/evil/os"))
    res = meeting(bad, fresh_key(), Protocol.TWO_KEY_OWNER, random.Random(0))
    assert res.verdict.outcome is Outcome.FAIL_BOOT_POINTER


def test_meeting_requires_distinct_keys():
    key = fresh_key()
    with pytest.raises(ValueError):
        meeting(key, key, Protocol.RANDOM_DRAW, random.Random(0))


def test_meeting_trusted_reference_override():
    """An out-of-band manifest beats reconstruction: a fabricated release
    whose content matches its own claimed version is caught."""
    fake = fresh_key(V1)  # internally consistent, never published
    trusted = build_manifest(fresh_key())  # the real release is V0
    res = meeting(
        fake, fresh_key(), Protocol.RANDOM_DRAW, random.Random(2), trusted=trusted
    )
    if res.booter == 1:
        assert res.verdict.outcome is Outcome.FAIL_DIGEST


def test_meeting_records_genealogy():
    bad, victim = tampered_key(), fresh_key()
    now = datetime.datetime(2013, 3, 1, 9, 30, tzinfo=UTC)
    res = meeting(bad, victim, Protocol.NEWEST_BOOTS, random.Random(0), now=now)
    upgraded = res.keys[1]
    assert isinstance(upgraded.genealogy.events[-2], gen.UpgradeEvent)
    assert upgraded.genealogy.events[-1].timestamp == now
    assert gen.parse(gen.serialize(upgraded.genealogy)) == upgraded.genealogy
    assert gen.own_spawn_count(res.keys[0].genealogy) == 1


def test_meeting_default_timestamp_keeps_order():
    bad, victim = tampered_key(), fresh_key()
    res = meeting(bad, victim, Protocol.NEWEST_BOOTS, random.Random(0))
    stamps = [
        e.timestamp
        for e in res.keys[1].genealogy.events
        if isinstance(e, gen.GenealogyEvent)
    ]
    assert stamps == sorted(stamps)


# ---------------------------------------------------------------------------
# trust simulation


def test_trust_sim_no_tampered_keys():
    res = run_trust_sim(TrustSimConfig(16, 0, 300, Protocol.RANDOM_DRAW, 3))
    assert set(res.infected_over_time) == {0}
    assert len(res.infected_over_time) == 301
    assert res.detections == 0
    assert res.false_negatives == 0


def test_trust_sim_checks_one_new_key_per_transfer(monkeypatch):
    """A meeting that transfers checks the key it writes, and only that:
    the booted key's after-state swaps in its log and keeps its files."""
    checked, transfers = [], []
    post_init = KeyState.__post_init__
    monkeypatch.setattr(
        KeyState, "__post_init__", lambda key: checked.append(key) or post_init(key)
    )
    transfer = integrity.apply_transfer
    monkeypatch.setattr(
        integrity, "apply_transfer", lambda *a: transfers.append(transfer(*a)) or transfers[-1]
    )
    for protocol in Protocol:
        config = TrustSimConfig(32, 3, 300, protocol, 7)
        run_trust_sim(replace(config, meetings=0))
        setup = len(checked)
        del checked[:]
        run_trust_sim(config)
        assert transfers and len(checked) == setup + len(transfers)
        assert all(key is new for key, (_, new) in zip(checked[setup:], transfers))
        del checked[:], transfers[:]


def test_trust_sim_newest_boots_monotone_infection():
    res = run_trust_sim(TrustSimConfig(64, 1, 2000, Protocol.NEWEST_BOOTS, 1))
    seq = res.infected_over_time
    assert seq[0] == 1
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    assert seq[-1] == 64
    assert res.detections == 0


def test_trust_sim_random_draw_quarantines():
    res = run_trust_sim(TrustSimConfig(16, 2, 400, Protocol.RANDOM_DRAW, 5))
    assert res.detections == res.quarantined
    assert res.detections > 0
    # quarantine stops repeat flags, so leaving it off can only add
    res_open = run_trust_sim(
        TrustSimConfig(16, 2, 400, Protocol.RANDOM_DRAW, 5, quarantine_flagged=False)
    )
    assert res_open.quarantined == 0
    assert res_open.detections >= res.detections


def test_trust_sim_two_key_owner_never_misses():
    res = run_trust_sim(TrustSimConfig(32, 2, 800, Protocol.TWO_KEY_OWNER, 7))
    assert res.false_negatives == 0
    assert res.detections > 0


def test_trust_sim_random_draw_coin_rate():
    hits = sum(
        run_trust_sim(TrustSimConfig(2, 1, 1, Protocol.RANDOM_DRAW, seed)).detections
        for seed in range(1000)
    )
    assert abs(hits / 1000 - 0.5) <= 0.06


def test_trust_sim_deterministic():
    cfg = TrustSimConfig(24, 3, 500, Protocol.RANDOM_DRAW, 11)
    assert trust_sim_result_to_json(run_trust_sim(cfg)) == trust_sim_result_to_json(
        run_trust_sim(cfg)
    )


def test_trust_sim_lone_key_idles():
    res = run_trust_sim(TrustSimConfig(1, 1, 3, Protocol.NEWEST_BOOTS, 0))
    assert res.infected_over_time == (1, 1, 1, 1)
    assert res.detections == 0


def test_trust_sim_config_validation():
    with pytest.raises(ValueError):
        TrustSimConfig(0, 0, 1, Protocol.RANDOM_DRAW)
    with pytest.raises(ValueError):
        TrustSimConfig(4, 5, 1, Protocol.RANDOM_DRAW)
    with pytest.raises(ValueError):
        TrustSimConfig(4, 1, -1, Protocol.RANDOM_DRAW)
    with pytest.raises(ValueError):
        TrustSimConfig(4, 1, 1, "random-draw")


@pytest.mark.parametrize("field", ["population", "tampered_initial", "meetings", "rng_seed"])
@pytest.mark.parametrize("value", ["4", 2.0, True, None])
def test_trust_sim_config_names_non_integer_field(field, value):
    fields = {"population": 4, "tampered_initial": 1, "meetings": 3}
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field}: expected an integer, got "):
        TrustSimConfig(**fields, protocol=Protocol.RANDOM_DRAW)


@pytest.mark.parametrize("value", ["no", 0, None])
def test_trust_sim_config_names_non_boolean_quarantine(value):
    """``quarantine_flagged="no"`` would act as true."""
    with pytest.raises(ValueError) as exc:
        TrustSimConfig(4, 1, 3, Protocol.RANDOM_DRAW, quarantine_flagged=value)
    assert str(exc.value) == f"quarantine_flagged: expected true or false, got {value!r}"


def _reference_trust_sim(config):
    """run_trust_sim as first written, kept as the reference: every key
    built up front, the unflagged pool rebuilt and the compromised keys
    recounted over the whole population after every meeting."""
    rng = random.Random(config.rng_seed)
    base = ImageManifest(_DEFAULT_VERSION, frozenset({_SQUASHFS}), _IMAGE_BYTES)
    fake = ImageManifest(_TAMPERED_VERSION, frozenset({_SQUASHFS}), _IMAGE_BYTES)
    keys = {}
    for i, key_id in enumerate(_key_ids(config.population)):
        if i < config.tampered_initial:
            key = KeyState.from_manifest(fake, DEFAULT_CAPACITY_KIB, _EPOCH)
            key = tamper(key, TamperAction(TamperKind.MODIFY_FILE, _SQUASHFS))
        else:
            key = KeyState.from_manifest(base, DEFAULT_CAPACITY_KIB, _EPOCH)
        keys[key_id] = key
    ids = sorted(keys)
    quarantined = set()
    detections = false_negatives = idle = 0

    def infected():
        return sum(1 for k in keys.values() if k.compromised)

    trajectory = [infected()]
    for step in range(config.meetings):
        pool = [i for i in ids if i not in quarantined]
        if len(pool) < 2:
            idle += 1
            trajectory.append(trajectory[-1])
            continue
        id_a, id_b = rng.sample(pool, 2)
        now = _EPOCH + datetime.timedelta(minutes=step + 1)
        result = meeting(keys[id_a], keys[id_b], config.protocol, rng, now=now)
        keys[id_a], keys[id_b] = result.keys
        if result.verdict.passed:
            if keys[id_a].compromised or keys[id_b].compromised:
                false_negatives += 1
        else:
            detections += 1
            if config.quarantine_flagged:
                quarantined.add((id_a, id_b)[result.flagged])
        trajectory.append(infected())
    return (tuple(trajectory), detections, false_negatives, len(quarantined)), idle


def _summary(result):
    return (
        result.infected_over_time,
        result.detections,
        result.false_negatives,
        result.quarantined,
    )


@st.composite
def _trust_configs(draw):
    population = draw(st.integers(1, 40))
    return TrustSimConfig(
        population=population,
        tampered_initial=draw(st.integers(0, population)),
        meetings=draw(st.integers(0, 300)),
        protocol=draw(st.sampled_from(list(Protocol))),
        rng_seed=draw(st.integers(0, 2**64)),
        quarantine_flagged=draw(st.booleans()),
    )


@settings(max_examples=80, deadline=None)
@given(_trust_configs())
@example(TrustSimConfig(2, 1, 5, Protocol.TWO_KEY_OWNER, 0))
def test_trust_sim_matches_full_recount_property(config):
    """The running infected count, the pool changed only on quarantine
    and the keys built on first draw give exactly the result of the
    full rebuild and recount after every meeting."""
    expected, _ = _reference_trust_sim(config)
    assert _summary(run_trust_sim(config)) == expected


def test_trust_sim_idles_once_pool_drops_below_two():
    """Two keys, one tampered: the spare key flags the upgraded one in
    the first meeting, quarantine leaves a lone key and every later slot
    passes with no encounter."""
    config = TrustSimConfig(2, 1, 5, Protocol.TWO_KEY_OWNER, 0)
    _, idle = _reference_trust_sim(config)
    assert idle == 4
    res = run_trust_sim(config)
    assert res.quarantined == 1
    assert res.infected_over_time == (1, 2, 2, 2, 2, 2)


def test_trust_sim_builds_only_drawn_keys(monkeypatch):
    """Setup does not grow with the population: one template key per
    kind comes from an image, and each key in play is a copy, made up
    front for the tampered keys and on first draw for a clean one. At
    100,000 keys and 50 meetings no more than tampered_initial + 100
    keys exist."""
    calls = {"from_manifest": 0, "copy": 0}
    from_manifest, real_copy = KeyState.from_manifest, copy.copy

    def counting_from_manifest(*args, **kwargs):
        calls["from_manifest"] += 1
        return from_manifest(*args, **kwargs)

    def counting_copy(obj):
        calls["copy"] += isinstance(obj, KeyState)
        return real_copy(obj)

    monkeypatch.setattr(KeyState, "from_manifest", counting_from_manifest)
    monkeypatch.setattr(copy, "copy", counting_copy)
    config = TrustSimConfig(100_000, 3, 50, Protocol.RANDOM_DRAW, 9)
    res = run_trust_sim(config)
    assert len(res.infected_over_time) == 51
    assert calls["from_manifest"] == 2
    assert config.tampered_initial < calls["copy"] <= config.tampered_initial + 100


def test_newest_boots_follows_mean_field_logistic():
    """Under newest-boots no check ever runs, so nothing is quarantined
    and a uniformly drawn pair spreads the infection exactly when it
    holds one infected and one clean key, with probability
    2 I (N - I) / (N (N - 1)). The mean-field curve of this random
    pairwise (anti-entropy) process, as in Demers et al. 1987,
    "Epidemic algorithms for replicated database maintenance", is the
    logistic I(m) = N / (1 + (N / I0 - 1) exp(-2 m / (N - 1))).

    The mean of ten runs at N = 2,000 and I0 = 20 must stay within a
    band of it that narrows as the curve saturates. Each band is about
    three standard errors of a ten-run mean, estimated from 40 runs;
    the stochastic early phase runs a few per cent above the curve. A
    rate 10 % off the logistic's misses every band from m = 2,000 on.
    """
    n, i0, meetings = 2_000, 20, 8_000
    runs = [
        run_trust_sim(TrustSimConfig(n, i0, meetings, Protocol.NEWEST_BOOTS, seed))
        for seed in range(10)
    ]
    assert all(r.quarantined == r.detections == 0 for r in runs)
    for m, band in ((1_000, 0.15), (2_000, 0.15), (4_000, 0.12), (6_000, 0.04), (8_000, 0.01)):
        logistic = n / (1 + (n / i0 - 1) * math.exp(-2 * m / (n - 1)))
        mean = statistics.fmean(r.infected_over_time[m] for r in runs)
        assert abs(mean / logistic - 1) <= band, (m, mean, logistic)


def test_trust_sim_json_shape():
    text = trust_sim_result_to_json(
        run_trust_sim(TrustSimConfig(4, 1, 5, Protocol.RANDOM_DRAW, 0))
    )
    assert text.startswith("{")
    assert '"detections"' in text
    assert '"infected_over_time"' in text
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# properties

_path_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)


@st.composite
def _system_keys(draw):
    names = draw(st.sets(_path_names, min_size=1, max_size=6))
    whitelist = frozenset(f"/sys/{n}" for n in names)
    manifest = ImageManifest(
        version=V0,
        whitelist=whitelist,
        image_bytes=draw(st.integers(min_value=len(whitelist), max_value=10**9)),
    )
    return KeyState.from_manifest(manifest, CAPACITY, T0)


@settings(max_examples=60, deadline=None)
@given(_system_keys())
def test_completeness_property(key):
    """Untampered keys built from an image always pass against that
    image's own manifest."""
    assert verify(replace(key), key, build_manifest(key)).passed


@settings(max_examples=60, deadline=None)
@given(_system_keys(), _path_names)
def test_shadow_boot_always_caught_property(key, name):
    path = f"/hidden/{name}"
    ref = build_manifest(key)
    sh = tamper(key, TamperAction(TamperKind.SHADOW_BOOT, path))
    files = sh.file_map()
    assert all(
        content_digest(files[p].content) == d for p, d in ref.digests
    )
    verdict = verify(replace(key), sh, ref)
    assert verdict.outcome is Outcome.FAIL_BOOT_POINTER
    assert verdict.offending_path == path


@settings(max_examples=60, deadline=None)
@given(_system_keys(), st.randoms(use_true_random=False))
def test_modify_file_always_caught_property(key, rnd):
    path = rnd.choice(sorted(key.file_map()))
    ref = build_manifest(key)
    bad = tamper(key, TamperAction(TamperKind.MODIFY_FILE, path))
    verdict = verify(replace(key), bad, ref)
    assert verdict.outcome is Outcome.FAIL_DIGEST
    assert verdict.offending_path == path
