"""Tests for the clone/upgrade state machine, the device safety gate,
and path classification."""

import dataclasses
import datetime
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from replikey import genealogy as gen
from replikey import replicator as rep
from replikey.replicator import (
    Bus,
    CapacityExceeded,
    CloneMode,
    ClonePlan,
    FileClass,
    FileEntry,
    ImageManifest,
    KeyState,
    OverwriteNotConfirmed,
    RefusalNotTwoUsb,
    RefusalTargetIsSource,
    ReplicationError,
    TargetNotBlank,
    VirtualDevice,
    execute_plan,
    inventory_from_json,
    inventory_to_json,
    plan_clone,
    plan_upgrade,
    select_target,
)
from replikey.spreadsim import SimConfig

GB = 10**9
MB = 10**6
UTC = datetime.timezone.utc
T0 = datetime.datetime(2013, 2, 17, 13, 1, 38, tzinfo=UTC)

VERSION = gen.ProvenanceHeader(
    "Sage 5.6 Debian Live beta4",
    datetime.date(2013, 1, 25),
    "en_US.UTF-8",
    "wheezy",
    "686-pae",
)
NEWER = gen.ProvenanceHeader(
    "Sage 5.8 Debian Live ejcim",
    datetime.date(2013, 4, 6),
    "fr_FR.UTF-8",
    "wheezy",
    "686-pae",
)


def manifest(version=VERSION, image_bytes=2_700_000_000, paths=None):
    return ImageManifest(
        version=version,
        whitelist=frozenset(paths or {"/live/filesystem.squashfs", "/live/vmlinuz", "/live/initrd.img"}),
        image_bytes=image_bytes,
    )


def master(capacity_kib=7_812_500, version=VERSION, image_bytes=2_700_000_000):
    """An 8 GB key holding a freshly built image."""
    return KeyState.from_manifest(manifest(version, image_bytes), capacity_kib, T0)


def usb(dev_id, contents=None, boot=False, capacity_kib=7_812_500, foreign=False):
    if contents is not None:
        capacity_kib = contents.capacity_kib
    return VirtualDevice(
        id=dev_id,
        bus=Bus.USB,
        capacity_kib=capacity_kib,
        contents=contents,
        is_boot_source=boot,
        foreign_data=foreign,
    )


def internal(dev_id, boot=False):
    return VirtualDevice(id=dev_id, bus=Bus.INTERNAL, capacity_kib=488_000_000, is_boot_source=boot)


# ---------------------------------------------------------------------------
# select_target


def test_select_nominal():
    inv = [internal("hd0"), usb("key0", master(), boot=True), usb("blank0")]
    assert select_target(inv) == "blank0"


def test_select_refuses_phantom_usb_device():
    """A third USB-classified device (a misdetected internal card reader,
    say) must abort the whole operation."""
    inv = [
        internal("hd0"),
        usb("key0", master(), boot=True),
        usb("blank0"),
        usb("cdreader"),
    ]
    with pytest.raises(RefusalNotTwoUsb):
        select_target(inv)


def test_select_refuses_lone_device():
    with pytest.raises(RefusalNotTwoUsb):
        select_target([usb("key0", master(), boot=True)])


def test_select_refuses_internal_boot():
    inv = [internal("hd0", boot=True), usb("a"), usb("b")]
    with pytest.raises(RefusalTargetIsSource):
        select_target(inv)


def test_select_never_returns_internal():
    inv = [internal("hd0"), usb("key0", master(), boot=True), usb("blank0")]
    chosen = select_target(inv)
    device = next(d for d in inv if d.id == chosen)
    assert device.bus is Bus.USB


def test_select_requires_single_boot_source():
    with pytest.raises(ValueError):
        select_target([usb("a"), usb("b")])
    with pytest.raises(ValueError):
        select_target([usb("a", boot=True), usb("b", master(), boot=True)])


def test_select_empty_inventory():
    with pytest.raises(ValueError):
        select_target([])


# ---------------------------------------------------------------------------
# manifests


def test_manifest_rejects_share_inside_whitelist():
    with pytest.raises(ValueError):
        ImageManifest(VERSION, frozenset({"/share/tool"}), 1000)


def test_manifest_rejects_empty_whitelist():
    with pytest.raises(ValueError):
        ImageManifest(VERSION, frozenset(), 1000)


@pytest.mark.parametrize(
    "build, problem",
    [
        (lambda: manifest(paths={"/live/vmlinuz", ""}), "whitelist path: expected a non-empty path, got ''"),
        (lambda: manifest(paths={"/live/vmlinuz", 5}), "whitelist path: expected a string, got 5"),
        (
            lambda: ImageManifest(VERSION, frozenset({"/live/vmlinuz"}), 1000, boot_path=[]),
            "boot_path: expected a string, got []",
        ),
        (
            lambda: master().with_file("", FileEntry(1, FileClass.PERSONAL)),
            "file path: expected a non-empty path, got ''",
        ),
        (
            lambda: master().with_file(5, FileEntry(1, FileClass.PERSONAL)),
            "file path: expected a string, got 5",
        ),
        (lambda: dataclasses.replace(master(), boot_path=[]), "boot_path: expected a string, got []"),
    ],
)
def test_a_path_that_is_empty_or_not_a_string_is_refused(build, problem):
    """A path is refused where an image or a key is built, before it can
    be compared with another path or picked as the boot file."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == problem


# ---------------------------------------------------------------------------
# plan_clone


def test_plan_clone_timing_600s():
    src = usb("key0", master(), boot=True)
    plan = plan_clone(src, usb("blank0"), 4.5)
    assert plan.mode is CloneMode.FRESH
    assert plan.bytes_total == 2_700_000_000
    assert plan.duration_s == Fraction(600)


def test_plan_clone_zero_byte_share_unchanged():
    key = master().with_file("/share/empty.txt", FileEntry(0, FileClass.SHARE, "e"))
    plan = plan_clone(usb("key0", key, boot=True), usb("blank0"), 4.5)
    assert plan.bytes_total == 2_700_000_000
    assert "/share/empty.txt" in plan.copy_set


def test_plan_clone_with_share_payload():
    key = master().with_file("/share/notes.pdf", FileEntry(500 * MB, FileClass.SHARE, "n"))
    plan = plan_clone(usb("key0", key, boot=True), usb("blank0"), 4.5)
    assert plan.bytes_total == 3_200_000_000
    assert plan.duration_s == Fraction(3_200_000_000, 4_500_000)
    assert abs(float(plan.duration_s) - 711.1) < 0.1


def test_plan_clone_excludes_personal():
    key = master().with_file("/home/user/w.sws", FileEntry(10, FileClass.PERSONAL, "w"))
    plan = plan_clone(usb("key0", key, boot=True), usb("blank0"), 4.5)
    assert "/home/user/w.sws" not in plan.copy_set


def test_plan_clone_refuses_source_as_target():
    src = usb("key0", master(), boot=True)
    with pytest.raises(RefusalTargetIsSource):
        plan_clone(src, src, 4.5)


def test_plan_clone_refuses_existing_key():
    src = usb("key0", master(), boot=True)
    other = usb("key1", master())
    with pytest.raises(TargetNotBlank):
        plan_clone(src, other, 4.5)


def test_plan_clone_foreign_data_needs_confirmation():
    src = usb("key0", master(), boot=True)
    tgt = usb("stick", foreign=True)
    with pytest.raises(OverwriteNotConfirmed):
        plan_clone(src, tgt, 4.5)
    plan = plan_clone(src, tgt, 4.5, allow_overwrite=True)
    assert plan.allow_overwrite


def test_plan_clone_capacity():
    src = usb("key0", master(), boot=True)
    small = usb("tiny", capacity_kib=1_000_000)  # ~1 GB
    with pytest.raises(CapacityExceeded):
        plan_clone(src, small, 4.5)


def test_plan_clone_counts_boot_file_outside_system_set():
    """A 16 GB source booting a 5.5 GB personal file carries that file
    onto its clone, so the 8.2 GB clone is refused for an 8 GB stick at
    plan time, as execute_plan would refuse it."""
    big = FileEntry(5_500_000_000, FileClass.PERSONAL, "big")
    key = master(capacity_kib=15_625_000).with_file("/home/user/big.img", big)
    key = dataclasses.replace(key, boot_path="/home/user/big.img")
    with pytest.raises(CapacityExceeded, match="clone needs 8200000000 bytes"):
        plan_clone(usb("key0", key, boot=True), usb("blank0"), 4.5)


def test_plan_clone_source_must_hold_key():
    with pytest.raises(ReplicationError):
        plan_clone(usb("a", boot=True), usb("b"), 4.5)


# ---------------------------------------------------------------------------
# plan_upgrade


def test_plan_upgrade_timing_480s():
    src = usb("key0", master(version=NEWER), boot=True)
    tgt = usb("key1", master())
    plan = plan_upgrade(src, tgt, 4.5)
    assert plan.mode is CloneMode.UPGRADE
    assert plan.bytes_total == 2_160_000_000
    assert plan.duration_s == Fraction(480)


def test_plan_upgrade_no_personal_empty_preserve():
    src = usb("key0", master(version=NEWER), boot=True)
    plan = plan_upgrade(src, usb("key1", master()), 4.5)
    assert plan.preserve_set == frozenset()


def test_plan_upgrade_preserves_personal_paths():
    tgt_key = master().with_file("/home/user/w.sws", FileEntry(10, FileClass.PERSONAL, "w"))
    plan = plan_upgrade(usb("key0", master(version=NEWER), boot=True), usb("key1", tgt_key), 4.5)
    assert "/home/user/w.sws" in plan.preserve_set
    assert "/home/user/w.sws" not in plan.copy_set


def test_plan_upgrade_capacity_staging_peak():
    """1 GB of personal data: fits alongside the staged transfer on an
    8 GB key, not on a 3.9 GB one."""
    personal = FileEntry(1 * GB, FileClass.PERSONAL, "docs")
    big = master().with_file("/home/user/docs.tar", personal)
    plan = plan_upgrade(usb("key0", master(version=NEWER), boot=True), usb("key1", big), 4.5)
    assert plan.bytes_total == 2_160_000_000

    small_capacity = 3_808_594  # just under 3.9 GB in KiB blocks
    small = KeyState.from_manifest(manifest(), small_capacity, T0).with_file(
        "/home/user/docs.tar", personal
    )
    with pytest.raises(CapacityExceeded):
        plan_upgrade(usb("key0", master(version=NEWER), boot=True), usb("key1", small), 4.5)


def test_plan_upgrade_custom_ratio():
    src = usb("key0", master(version=NEWER), boot=True)
    plan = plan_upgrade(src, usb("key1", master()), 4.5, upgrade_ratio=1)
    assert plan.duration_s == Fraction(600)


@pytest.mark.parametrize(
    "bandwidth, ratio, problem",
    [
        (0, 1, r"\Abandwidth_mb_s must be positive\Z"),
        (4.5, Fraction(3, 2), r"\Aupgrade_ratio must be in \(0, 1\]\Z"),
        (True, 1, r"\Abandwidth_mb_s: not an exact number: True\Z"),
        (4.5, "1_0", r"\Aupgrade_ratio: not an exact number: '1_0'\Z"),
    ],
)
def test_plan_rates_are_read_as_sim_config_reads_them(bandwidth, ratio, problem):
    src = usb("key0", master(version=NEWER), boot=True)
    with pytest.raises(ValueError, match=problem):
        plan_upgrade(src, usb("key1", master()), bandwidth, upgrade_ratio=ratio)
    with pytest.raises(ValueError, match=problem):
        SimConfig(n_participants=2, bandwidth_mb_s=bandwidth, upgrade_ratio=ratio)


def test_plan_upgrade_requires_existing_key():
    src = usb("key0", master(), boot=True)
    with pytest.raises(ReplicationError):
        plan_upgrade(src, usb("blank0"), 4.5)


# ---------------------------------------------------------------------------
# execute_plan


def exec_fresh(share_files=None, at=T0):
    key = master()
    for path, entry in (share_files or {}).items():
        key = key.with_file(path, entry)
    inv = (internal("hd0"), usb("key0", key, boot=True), usb("blank0"))
    plan = plan_clone(inv[1], inv[2], 4.5)
    return inv, execute_plan(plan, inv, at)


def test_execute_fresh_emits_paired_events():
    inv, out = exec_fresh()
    src = next(d for d in out if d.id == "key0").contents
    child = next(d for d in out if d.id == "blank0").contents
    assert gen.stats(src.genealogy).spawn_count == 1
    assert src.genealogy.events[-1].kind is gen.EventKind.SPAWN
    assert child.genealogy.events[-1].kind is gen.EventKind.BIRTH
    assert src.genealogy.events[-1].timestamp == child.genealogy.events[-1].timestamp == T0


@pytest.mark.parametrize("upgrade", [False, True])
def test_execute_plan_checks_only_the_new_key(monkeypatch, upgrade):
    """The source's files do not change, so its after-state, which only
    swaps in the log with its spawn, is not checked again as a key."""
    src = usb("key0", master(version=NEWER), boot=True)
    tgt = usb("key1", master()) if upgrade else usb("blank0")
    plan = plan_upgrade(src, tgt, 4.5) if upgrade else plan_clone(src, tgt, 4.5)
    checked = []
    post_init = KeyState.__post_init__
    monkeypatch.setattr(
        KeyState, "__post_init__", lambda key: checked.append(key) or post_init(key)
    )
    out = execute_plan(plan, (internal("hd0"), src, tgt), T0)
    assert len(checked) == 1 and checked[0] is out[2].contents
    after = out[1].contents
    assert after.genealogy.events[-1].kind is gen.EventKind.SPAWN
    assert after == dataclasses.replace(src.contents, genealogy=after.genealogy)


def test_execute_fresh_conservation():
    share = {"/share/a.pdf": FileEntry(7, FileClass.SHARE, "a")}
    inv, out = exec_fresh(share)
    src = next(d for d in out if d.id == "key0").contents
    child = next(d for d in out if d.id == "blank0").contents
    assert child.paths_of(FileClass.SYSTEM) == manifest().whitelist
    assert child.paths_of(FileClass.SHARE) >= src.paths_of(FileClass.SHARE)
    assert child.paths_of(FileClass.PERSONAL) == frozenset()
    assert child.version == src.version


def test_execute_fresh_child_history():
    inv, out = exec_fresh()
    src = next(d for d in out if d.id == "key0").contents
    child = next(d for d in out if d.id == "blank0").contents
    assert gen.own_spawn_count(child.genealogy) == 0
    assert child.genealogy.events[:-1] == src.genealogy.events


def test_execute_fresh_does_not_mutate_input():
    inv, out = exec_fresh()
    assert inv[2].contents is None
    assert gen.stats(inv[1].contents.genealogy).spawn_count == 0


def test_execute_same_plan_twice_refused():
    key = master()
    inv = (internal("hd0"), usb("key0", key, boot=True), usb("blank0"))
    plan = plan_clone(inv[1], inv[2], 4.5)
    out = execute_plan(plan, inv, T0)
    with pytest.raises(TargetNotBlank):
        execute_plan(plan, out, T0 + datetime.timedelta(seconds=600))


def test_execute_atomicity_on_failure():
    key = master()
    inv = (internal("hd0"), usb("key0", key, boot=True), usb("blank0"))
    plan = plan_clone(inv[1], inv[2], 4.5)
    bad_plan = ClonePlan(
        mode=plan.mode,
        source=plan.source,
        target=plan.target,
        copy_set=plan.copy_set | {"/nonexistent"},
        preserve_set=plan.preserve_set,
        bytes_total=plan.bytes_total,
        duration_s=plan.duration_s,
    )
    with pytest.raises(ReplicationError):
        execute_plan(bad_plan, inv, T0)
    assert inv[1].contents is key
    assert inv[2].contents is None


@pytest.mark.parametrize("plan_fn", [plan_clone, plan_upgrade])
def test_execute_refuses_plan_older_than_source_share(plan_fn):
    """A share file the source gained after planning makes the plan
    stale in both modes, rather than being dropped or copied unplanned."""
    tgt_key = None if plan_fn is plan_clone else master()
    src_key = master(version=NEWER)
    plan = plan_fn(usb("key0", src_key, boot=True), usb("key1", tgt_key), 4.5)
    grown = src_key.with_file("/share/late.pdf", FileEntry(5, FileClass.SHARE, "late"))
    inv = (usb("key0", grown, boot=True), usb("key1", tgt_key))
    with pytest.raises(ReplicationError, match="stale"):
        execute_plan(plan, inv, T0)
    assert inv[0].contents is grown and inv[1].contents is tgt_key


def test_execute_upgrade_preserves_personal_and_extends_history():
    personal = FileEntry(1234, FileClass.PERSONAL, "mine")
    tgt_key = master().with_file("/home/user/w.sws", personal)
    src_key = master(version=NEWER)
    inv = (usb("key0", src_key, boot=True), usb("key1", tgt_key))
    now = T0 + datetime.timedelta(days=30)
    plan = plan_upgrade(inv[0], inv[1], 4.5)
    out = execute_plan(plan, inv, now)
    upgraded = next(d for d in out if d.id == "key1").contents
    src_after = next(d for d in out if d.id == "key0").contents

    assert dict(upgraded.files)["/home/user/w.sws"] is personal
    assert upgraded.version == NEWER
    assert gen.stats(upgraded.genealogy).upgrade_count == 1
    assert upgraded.genealogy.events[-1].kind is gen.EventKind.BIRTH
    assert upgraded.genealogy.events[-1].timestamp == now
    donor = upgraded.genealogy.events[-2].donor
    assert donor.events[-1].kind is gen.EventKind.SPAWN
    assert donor.events[-1].timestamp == now
    assert donor == src_after.genealogy


def test_execute_upgrade_merges_share_source_wins():
    src_key = master(version=NEWER).with_file(
        "/share/a.pdf", FileEntry(5, FileClass.SHARE, "new")
    )
    tgt_key = (
        master()
        .with_file("/share/a.pdf", FileEntry(9, FileClass.SHARE, "old"))
        .with_file("/share/b.pdf", FileEntry(3, FileClass.SHARE, "keep"))
    )
    inv = (usb("key0", src_key, boot=True), usb("key1", tgt_key))
    out = execute_plan(plan_upgrade(inv[0], inv[1], 4.5), inv, T0)
    upgraded = next(d for d in out if d.id == "key1").contents
    files = dict(upgraded.files)
    assert files["/share/a.pdf"].content == "new"
    assert files["/share/a.pdf"].size_bytes == 5
    assert files["/share/b.pdf"].content == "keep"


def test_execute_upgrade_replaces_system_set():
    other_manifest = ImageManifest(
        NEWER, frozenset({"/live/filesystem.squashfs", "/live/new-kernel"}), 2_700_000_000
    )
    src_key = KeyState.from_manifest(other_manifest, 7_812_500, T0)
    inv = (usb("key0", src_key, boot=True), usb("key1", master()))
    out = execute_plan(plan_upgrade(inv[0], inv[1], 4.5), inv, T0)
    upgraded = next(d for d in out if d.id == "key1").contents
    assert upgraded.paths_of(FileClass.SYSTEM) == other_manifest.whitelist


# ---------------------------------------------------------------------------
# JSON round trip


def test_inventory_json_round_trip():
    key = master().with_file("/share/a.pdf", FileEntry(7, FileClass.SHARE, "a"))
    inv = (internal("hd0"), usb("key0", key, boot=True), usb("blank0", foreign=True))
    text = inventory_to_json(inv)
    assert inventory_from_json(text) == inv
    assert inventory_to_json(inventory_from_json(text)) == text


def test_duplicate_device_id_is_one_rule():
    """The reader and the operations refuse a repeated id in one text."""
    inv = (usb("key0", master(), boot=True), usb("blank0"), usb("blank0"))
    with pytest.raises(ValueError) as read:
        inventory_from_json(inventory_to_json(inv))
    with pytest.raises(ValueError) as gate:
        select_target(inv)
    assert str(read.value) == str(gate.value) == "devices[2].id: duplicate device id 'blank0'"


def test_device_bus_must_be_a_bus():
    """A bus given as its JSON text would count as not USB at the gate:
    with a booted key and a third USB key beside it, the gate would pick
    the third key instead of refusing."""
    with pytest.raises(ValueError, match=r"^bus must be a Bus, got 'usb'$"):
        VirtualDevice("blank0", "usb", 7_812_500)


@pytest.mark.parametrize("locale", [None, "fr_FR.UTF-8"])
def test_keystate_version_must_be_a_header(locale):
    with pytest.raises(ValueError, match=r"^version: expected a ProvenanceHeader, got 'x'$"):
        dataclasses.replace(master(), version="x", locale=locale)


@pytest.mark.parametrize("locale", ["", "en US", "x - y", "-x", "x-", "a\nb", " x", 5])
def test_keystate_locale_follows_the_log_rule(locale):
    """A key refuses a locale its log would refuse, in the log's words."""
    with pytest.raises(ValueError) as logged:
        gen.GenealogyEvent(gen.EventKind.SPAWN, T0, locale, 7_812_500)
    with pytest.raises(ValueError) as kept:
        dataclasses.replace(master(), locale=locale)
    assert str(kept.value) == str(logged.value)
    assert str(kept.value).startswith("locale must ")


@pytest.mark.parametrize("capacity_kib", ["8", 8.0, 0])
def test_apply_transfer_holds_the_new_key_capacity_to_the_count_rule(capacity_kib):
    with pytest.raises(ValueError, match=r"^capacity: expected "):
        rep.apply_transfer(master(), None, capacity_kib, T0)


def test_from_manifest_refuses_an_empty_locale():
    """An empty locale is refused as the log refuses it, not replaced by
    the version's; None still means the version's."""
    with pytest.raises(ValueError, match=r"^locale must be a non-empty string: ''$"):
        KeyState.from_manifest(manifest(), 7_812_500, T0, locale="")
    assert KeyState.from_manifest(manifest(), 7_812_500, T0, locale=None).locale == "en_US.UTF-8"


@pytest.mark.parametrize("prefix", ["share", "", "/share", 5])
def test_share_prefix_must_end_with_a_slash(prefix):
    """A key and an image refuse the same share prefixes, by one rule."""
    problem = f"^share_prefix must end with '/': {prefix!r}$"
    with pytest.raises(ValueError, match=problem):
        dataclasses.replace(master(), share_prefix=prefix)
    with pytest.raises(ValueError, match=problem):
        ImageManifest(VERSION, frozenset({"/live/vmlinuz"}), 1, share_prefix=prefix)


_LONG = 10**4000  # 4,001 digits, shown by its length
_ON_8GB = "a 4001-digit integer bytes{} 8000000000"


@pytest.mark.parametrize(
    "mode, incoming, huge_share, text",
    [
        (CloneMode.FRESH, _LONG, False, "clone needs " + _ON_8GB.format(", target holds")),
        (CloneMode.FRESH, 0, True, "clone needs " + _ON_8GB.format(", target holds")),
        (CloneMode.UPGRADE, _LONG, False,
         "upgrade staging needs " + _ON_8GB.format(" on a key of") + " bytes"),
        (CloneMode.UPGRADE, 0, True,
         "upgraded key would hold " + _ON_8GB.format(" on a key of") + " bytes"),
    ],
)
def test_long_integers_in_transfer_refusals_stay_short(mode, incoming, huge_share, text):
    """Each capacity refusal of a transfer, at the staging peak or for
    the final files, shows a long integer by its length."""
    source = master(capacity_kib=_LONG)
    if huge_share:
        source = source.with_file("/share/big", FileEntry(_LONG, FileClass.SHARE, "big"))
    target = usb("key1", master()) if mode is CloneMode.UPGRADE else usb("blank0")
    with pytest.raises(CapacityExceeded) as exc:
        rep._check_transfer(mode, usb("key0", source, boot=True), target, incoming, False)
    assert str(exc.value) == text


def test_long_integers_in_capacity_mismatch_stay_short():
    with pytest.raises(ValueError) as exc:
        VirtualDevice("key0", Bus.USB, 7_812_500, contents=master(capacity_kib=_LONG))
    assert str(exc.value) == (
        "key capacity does not match its device (a 4001-digit integer != 7812500)"
    )


def test_key_files_compare_alike_from_a_dict_or_pairs():
    key = master().with_file("/share/a.pdf", FileEntry(7, FileClass.SHARE, "a"))
    pairs = tuple(reversed(key.files))
    assert [p for p, _ in pairs] != sorted(p for p, _ in pairs)
    assert dataclasses.replace(key, files=pairs) == dataclasses.replace(key, files=dict(pairs))
    assert dataclasses.replace(key, files=pairs).files == key.files


def test_from_manifest_sizes_sum_to_image():
    key = master()
    assert sum(e.size_bytes for _, e in key.files) == 2_700_000_000
    assert key.paths_of(FileClass.SYSTEM) == manifest().whitelist
    assert key.boot_path in manifest().whitelist


def test_keystate_rejects_misclassified_share_path():
    with pytest.raises(ValueError):
        master().with_file("/share/x", FileEntry(1, FileClass.PERSONAL, "x"))


def test_keystate_capacity_enforced():
    with pytest.raises(CapacityExceeded):
        KeyState.from_manifest(manifest(), 1_000_000, T0)  # ~1 GB device


def test_device_capacity_must_match_key():
    with pytest.raises(ValueError):
        VirtualDevice("k", Bus.USB, capacity_kib=123, contents=master())


# ---------------------------------------------------------------------------
# properties

_bus = st.sampled_from([Bus.USB, Bus.INTERNAL])


@st.composite
def _inventories(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    buses = [draw(_bus) for _ in range(n)]
    boot_index = draw(st.integers(min_value=0, max_value=n - 1))
    devices = []
    for i, bus in enumerate(buses):
        has_key = bus is Bus.USB and draw(st.booleans())
        devices.append(
            VirtualDevice(
                id=f"dev{i}",
                bus=bus,
                capacity_kib=7_812_500 if has_key else draw(st.integers(1, 10**9)),
                contents=master() if has_key else None,
                is_boot_source=i == boot_index,
            )
        )
    return devices


@given(_inventories())
def test_select_target_gate_property(inventory):
    usb_devices = [d for d in inventory if d.bus is Bus.USB]
    boot = next(d for d in inventory if d.is_boot_source)
    try:
        chosen = select_target(inventory)
    except RefusalNotTwoUsb:
        assert len(usb_devices) != 2
    except RefusalTargetIsSource:
        assert boot.bus is not Bus.USB
    else:
        assert len(usb_devices) == 2
        assert boot.bus is Bus.USB
        device = next(d for d in inventory if d.id == chosen)
        assert device.bus is Bus.USB
        assert not device.is_boot_source


_path_piece = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)


@st.composite
def _loaded_keys(draw):
    key = master()
    for _ in range(draw(st.integers(0, 4))):
        piece = draw(_path_piece)
        kind = draw(st.sampled_from(["share", "personal"]))
        if kind == "share":
            key = key.with_file(
                f"/share/{piece}", FileEntry(draw(st.integers(0, 10**6)), FileClass.SHARE, piece)
            )
        else:
            key = key.with_file(
                f"/home/user/{piece}",
                FileEntry(draw(st.integers(0, 10**6)), FileClass.PERSONAL, piece),
            )
    return key


@given(_loaded_keys())
def test_no_personal_in_copy_set_property(key):
    plan = plan_clone(usb("key0", key, boot=True), usb("blank0"), 4.5)
    personal = key.paths_of(FileClass.PERSONAL)
    assert plan.copy_set.isdisjoint(personal)
    assert plan.copy_set == key.paths_of(FileClass.SYSTEM) | key.paths_of(FileClass.SHARE)


@given(_loaded_keys(), _loaded_keys())
def test_upgrade_personal_untouched_property(src_key, tgt_key):
    inv = (usb("key0", src_key, boot=True), usb("key1", tgt_key))
    plan = plan_upgrade(inv[0], inv[1], 4.5)
    out = execute_plan(plan, inv, T0)
    upgraded = next(d for d in out if d.id == "key1").contents
    before = {p: e for p, e in tgt_key.files if e.file_class is FileClass.PERSONAL}
    after = dict(upgraded.files)
    for path, entry in before.items():
        assert after[path] == entry


@st.composite
def _transfer_keys(draw):
    """A key of varied capacity and version, with share and personal
    files, sometimes booting one of its personal files."""
    capacity_kib = draw(st.integers(2_700_000_000 // 1024 + 1, 10_000_000))
    key = master(capacity_kib, version=draw(st.sampled_from([VERSION, NEWER])))
    personal = []
    for i in range(draw(st.integers(0, 3))):
        file_class = draw(st.sampled_from([FileClass.SHARE, FileClass.PERSONAL]))
        path = f"/share/f{i}" if file_class is FileClass.SHARE else f"/home/user/f{i}"
        free = capacity_kib * 1024 - key.used_bytes()
        key = key.with_file(path, FileEntry(draw(st.integers(0, free)), file_class, path))
        if file_class is FileClass.PERSONAL:
            personal.append(path)
    if personal and draw(st.booleans()):
        key = dataclasses.replace(key, boot_path=draw(st.sampled_from(personal)))
    return key


@st.composite
def _transfer_pairs(draw):
    """A booted key and a second USB device that is blank, holds
    foreign data or holds a key.  A device without a key is sized near
    what a clone copies, so the source's boot file can tip the balance."""
    key = draw(_transfer_keys())
    kind = draw(st.sampled_from(["blank", "foreign", "key"]))
    if kind == "key":
        return usb("key0", key, boot=True), usb("key1", draw(_transfer_keys()))
    copied = sum(e.size_bytes for _, e in key.files if e.file_class is not FileClass.PERSONAL)
    capacity_kib = max(1, (copied + draw(st.integers(-GB, 6 * GB))) // 1024)
    target = usb("key1", capacity_kib=capacity_kib, foreign=kind == "foreign")
    return usb("key0", key, boot=True), target


@given(_transfer_pairs(), st.booleans())
def test_accepted_plan_executes_property(inventory, allow_overwrite):
    """Planning and executing refuse the same transfers: a plan either
    planner returns executes on the inventory it was made from."""
    source, target = inventory
    planners = (
        lambda: plan_clone(source, target, 4.5, allow_overwrite=allow_overwrite),
        lambda: plan_upgrade(source, target, 4.5),
    )
    for make_plan in planners:
        try:
            plan = make_plan()
        except ReplicationError:
            continue
        out = execute_plan(plan, inventory, T0)
        assert out[1].contents.version == source.contents.version


# ---------------------------------------------------------------------------
# the object rule, at every level of an inventory document

# level: (required fields, optional fields), as the README lists them
_INVENTORY_FIELDS = {
    "document": (("devices",), ()),
    "device": (("id", "bus", "capacity_kib"), ("boot_source", "foreign_data", "key")),
    "key": (
        ("version", "files", "image_bytes", "capacity_kib", "boot_path", "genealogy"),
        ("locale", "share_prefix", "compromised"),
    ),
    "file entry": (("size", "class"), ("content",)),
}


def _inventory_objects(doc):
    """(path, level, object) for every JSON object in an inventory document."""
    yield "", "document", doc
    for i, device in enumerate(doc["devices"]):
        yield f"devices[{i}]", "device", device
        if device["key"] is not None:
            yield f"devices[{i}].key", "key", device["key"]
            for path, entry in device["key"]["files"].items():
                yield f"devices[{i}].key.files[{path!r}]", "file entry", entry


@st.composite
def _json_inventories(draw):
    """A booted loaded key beside blank, foreign-data, internal and
    loaded devices."""
    devices = [usb("key0", draw(_loaded_keys()), boot=True)]
    for i in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["blank", "foreign", "internal", "key"]))
        if kind == "internal":
            devices.append(internal(f"hd{i}"))
        else:
            key = draw(_loaded_keys()) if kind == "key" else None
            devices.append(usb(f"dev{i}", key, foreign=kind == "foreign"))
    return tuple(devices)


@settings(max_examples=150, deadline=None)
@given(_json_inventories(), st.data())
def test_inventory_objects_refuse_unknown_and_missing_fields(inventory, data):
    """An untouched document reads back equal; one object given a field it
    does not know, or without one it needs, is refused naming both."""
    text = inventory_to_json(inventory)
    assert inventory_from_json(text) == inventory
    doc = json.loads(text)
    path, level, obj = data.draw(st.sampled_from(list(_inventory_objects(doc))))
    required, optional = _INVENTORY_FIELDS[level]
    assert set(obj) == {*required, *optional}
    prefix = f"{path}: " if path else ""
    if data.draw(st.booleans()):
        name = data.draw(st.text(max_size=12).filter(lambda n: n not in obj))
        obj[name] = data.draw(st.none() | st.booleans() | st.integers() | st.text(max_size=4))
        problem = f"{prefix}unknown field {name!r}"
    else:
        name = data.draw(st.sampled_from(required))
        del obj[name]
        problem = f"{prefix}missing field {name!r}"
    with pytest.raises(ValueError) as exc:
        inventory_from_json(json.dumps(doc))
    assert str(exc.value) == problem
