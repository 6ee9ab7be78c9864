"""Clone and upgrade state machine over a virtual device bus.

The model mirrors the behaviour of a self-replicating live key: the
booted key refuses to act unless exactly two USB devices are present,
copies its whitelisted system files plus the shared directory onto the
target, never touches personal data, and appends the matching spawn,
birth, and upgrade events to the genealogies involved.

Everything here is an immutable snapshot; ``execute_plan`` returns a new
inventory rather than mutating the one it was given.
"""

from __future__ import annotations

import datetime
import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import genealogy as gen
from .units import KIB, MB, _at, _count, _exact, _expect, _json_pieces, _load_json, _object
from .units import _parsed, _shown

__all__ = [
    "Bus",
    "FileClass",
    "FileEntry",
    "ImageManifest",
    "KeyState",
    "VirtualDevice",
    "CloneMode",
    "ClonePlan",
    "ReplicationError",
    "RefusalNotTwoUsb",
    "RefusalTargetIsSource",
    "TargetNotBlank",
    "OverwriteNotConfirmed",
    "CapacityExceeded",
    "DEFAULT_UPGRADE_RATIO",
    "apply_transfer",
    "select_target",
    "plan_clone",
    "plan_upgrade",
    "execute_plan",
    "inventory_to_json",
    "inventory_from_json",
]

DEFAULT_UPGRADE_RATIO = Fraction(4, 5)
_SHARE_PREFIX = "/share/"  # where shared files live when an image names no other place


class ReplicationError(Exception):
    """Base for refusals and failures of the clone/upgrade machinery.

    Each subclass carries a stable ``rule`` name suitable for terse
    diagnostics.
    """

    rule = "replication"


class RefusalNotTwoUsb(ReplicationError):
    """The strict device test: act only when exactly two USB devices are
    attached, otherwise a misdetected device (an internal card reader
    showing up as USB, say) could be overwritten."""

    rule = "not-two-usb"


class RefusalTargetIsSource(ReplicationError):
    rule = "target-is-source"


class TargetNotBlank(ReplicationError):
    rule = "target-not-blank"


class OverwriteNotConfirmed(ReplicationError):
    """The target holds non-key data and the plan was not flagged to
    overwrite it."""

    rule = "overwrite-not-confirmed"


class CapacityExceeded(ReplicationError):
    rule = "capacity-exceeded"


class Bus(enum.Enum):
    USB = "usb"
    INTERNAL = "internal"


class FileClass(enum.Enum):
    SYSTEM = "system"
    SHARE = "share"
    PERSONAL = "personal"


class CloneMode(enum.Enum):
    FRESH = "fresh"
    UPGRADE = "upgrade"


@dataclass(frozen=True)
class FileEntry:
    """One file on a key: its size, its classification, and an abstract
    content token standing in for the actual bytes (equal tokens mean
    equal content)."""

    size_bytes: int
    file_class: FileClass
    content: str = ""

    def __post_init__(self):
        _count("size_bytes", self.size_bytes)
        if not isinstance(self.file_class, FileClass):
            raise ValueError(f"file_class must be a FileClass, got {self.file_class!r}")


def _check_path(name: str, path) -> str:
    """``path`` if it is a non-empty str, else a ValueError naming ``name``."""
    if not _expect(name, path, str):
        raise ValueError(f"{name}: expected a non-empty path, got ''")
    return path


def _check_share_prefix(prefix) -> None:
    if not isinstance(prefix, str) or not prefix.endswith("/"):
        raise ValueError(f"share_prefix must end with '/': {_shown(prefix)}")


@dataclass(frozen=True)
class ImageManifest:
    """Recipe for a built key image: which paths make up the system, where
    shared files live, how large the compressed payload is, and which
    file the boot sector loads."""

    version: gen.ProvenanceHeader
    whitelist: frozenset
    image_bytes: int
    share_prefix: str = _SHARE_PREFIX
    boot_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "whitelist", frozenset(self.whitelist))
        if not self.whitelist:
            raise ValueError("whitelist must be non-empty")
        _count("image_bytes", self.image_bytes, 1)
        _check_share_prefix(self.share_prefix)
        for path in self.whitelist:
            _check_path("whitelist path", path)
            if path.startswith(self.share_prefix):
                raise ValueError(
                    f"whitelist path {path!r} lies inside share prefix {self.share_prefix!r}"
                )
        if self.boot_path is None:
            object.__setattr__(self, "boot_path", min(self.whitelist))
        elif _check_path("boot_path", self.boot_path) not in self.whitelist:
            raise ValueError("boot_path must be a whitelisted path")


@dataclass(frozen=True)
class KeyState:
    """Snapshot of one live key: its image version, classified files,
    genealogy, capacity, runtime locale, boot pointer, and whether its
    system has been tampered with."""

    version: gen.ProvenanceHeader
    files: tuple  # ((path, FileEntry), ...) sorted by path, from pairs or a dict
    image_bytes: int
    genealogy: gen.Genealogy
    capacity_kib: int
    boot_path: str
    locale: str | None = None
    share_prefix: str = _SHARE_PREFIX
    compromised: bool = False

    def __post_init__(self):
        items = self.files.items() if isinstance(self.files, dict) else self.files
        files = sorted(items, key=lambda item: _check_path("file path", item[0]))
        object.__setattr__(self, "files", tuple(files))
        _expect("version", self.version, gen.ProvenanceHeader)
        if self.locale is None:
            object.__setattr__(self, "locale", self.version.locale)
        elif self.locale != self.version.locale:  # the header checked its own
            gen._check_field("locale", self.locale)
        _check_share_prefix(self.share_prefix)
        _count("capacity_kib", self.capacity_kib, 1)
        _count("image_bytes", self.image_bytes, 1)
        seen = set()
        total = 0
        for path, entry in self.files:
            if not isinstance(entry, FileEntry):
                raise ValueError(f"file entry for {path!r} must be a FileEntry")
            if path in seen:
                raise ValueError(f"duplicate path {path!r}")
            seen.add(path)
            total += entry.size_bytes
            if path.startswith(self.share_prefix) and entry.file_class is not FileClass.SHARE:
                raise ValueError(
                    f"path {path!r} under {self.share_prefix!r} must be classified Share"
                )
        if total > self.capacity_kib * KIB:
            raise CapacityExceeded(
                f"files total {_shown(total)} bytes exceed capacity "
                f"{_shown(self.capacity_kib * KIB)} bytes"
            )
        if _check_path("boot_path", self.boot_path) not in seen:
            raise ValueError(f"boot_path {self.boot_path!r} is not a file on the key")

    # -- convenience views ---------------------------------------------

    def file_map(self) -> dict:
        return dict(self.files)

    def paths_of(self, file_class: FileClass) -> frozenset:
        return frozenset(p for p, e in self.files if e.file_class is file_class)

    def used_bytes(self) -> int:
        return sum(e.size_bytes for _, e in self.files)

    @classmethod
    def from_manifest(
        cls,
        manifest: ImageManifest,
        capacity_kib: int,
        born_at: datetime.datetime,
        locale: str | None = None,
    ) -> "KeyState":
        """A master key freshly written from a built image: system files
        carved out of image_bytes, a provenance header, and a single
        birth event."""
        paths = sorted(manifest.whitelist)
        share, remainder = divmod(manifest.image_bytes, len(paths))
        files = {}
        for i, path in enumerate(paths):
            size = share + (remainder if i == 0 else 0)
            files[path] = FileEntry(
                size_bytes=size,
                file_class=FileClass.SYSTEM,
                content=f"{manifest.version.descriptor()}::{path}",
            )
        locale = manifest.version.locale if locale is None else locale
        birth = gen.GenealogyEvent(
            gen.EventKind.BIRTH, born_at, locale, capacity_kib, 1
        )
        return cls(
            version=manifest.version,
            files=files,
            image_bytes=manifest.image_bytes,
            genealogy=gen.Genealogy(provenance=manifest.version, events=(birth,)),
            capacity_kib=capacity_kib,
            boot_path=manifest.boot_path,
            locale=locale,
            share_prefix=manifest.share_prefix,
        )

    def with_file(self, path: str, entry: FileEntry) -> "KeyState":
        files = self.file_map()
        files[path] = entry
        return replace(self, files=files)


@dataclass(frozen=True)
class VirtualDevice:
    """A block device on the simulated bus.  ``contents`` is the key
    living on it, if any; ``foreign_data`` marks non-key data that would
    be destroyed by a clone."""

    id: str
    bus: Bus
    capacity_kib: int
    contents: KeyState | None = None
    is_boot_source: bool = False
    foreign_data: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValueError("device id must be non-empty")
        if not isinstance(self.bus, Bus):
            raise ValueError(f"bus must be a Bus, got {self.bus!r}")
        _count("capacity_kib", self.capacity_kib, 1)
        if self.contents is not None:
            if self.foreign_data:
                raise ValueError("a device holding a key cannot also hold foreign data")
            if self.contents.capacity_kib != self.capacity_kib:
                raise ValueError(
                    "key capacity does not match its device "
                    f"({_shown(self.contents.capacity_kib)} != {_shown(self.capacity_kib)})"
                )


def _check_ids(devices) -> None:
    """A ValueError naming the first device whose id an earlier one has."""
    seen = set()
    for index, d in enumerate(devices):
        if d.id in seen:
            raise ValueError(f"devices[{index}].id: duplicate device id {_shown(d.id)}")
        seen.add(d.id)


def _check_inventory(inventory) -> list:
    devices = list(inventory)
    if not devices:
        raise ValueError("inventory is empty")
    _check_ids(devices)
    boots = [d for d in devices if d.is_boot_source]
    if len(boots) != 1:
        raise ValueError(f"inventory must have exactly one boot source, found {len(boots)}")
    return devices


def _device(inventory, device_id: str) -> VirtualDevice:
    for d in inventory:
        if d.id == device_id:
            return d
    raise ReplicationError(f"no device {device_id!r} in the inventory")


def _boot_source(inventory) -> VirtualDevice:
    for d in inventory:
        if d.is_boot_source:
            return d
    raise ReplicationError("no boot source device in the inventory")


@dataclass(frozen=True)
class ClonePlan:
    """A computed clone or upgrade: what gets copied where, how many
    bytes move, and how long the transfer takes at the planned
    bandwidth.  ``duration_s`` is exact (a rational)."""

    mode: CloneMode
    source: str
    target: str
    copy_set: frozenset
    preserve_set: frozenset
    bytes_total: int
    duration_s: Fraction
    allow_overwrite: bool = False

    def __post_init__(self):
        object.__setattr__(self, "copy_set", frozenset(self.copy_set))
        object.__setattr__(self, "preserve_set", frozenset(self.preserve_set))
        _count("bytes_total", self.bytes_total)
        if self.duration_s < 0:
            raise ValueError("duration_s must be >= 0")


# ---------------------------------------------------------------------------
# operations


def select_target(inventory) -> str:
    """The strict safety gate: with exactly two USB devices attached, one
    of them the booted key, return the other one's id.

    Raises RefusalNotTwoUsb when the USB count differs from two, and
    RefusalTargetIsSource when the booted system is not on either USB
    device (no way to tell source from target)."""
    devices = _check_inventory(inventory)
    usb = [d for d in devices if d.bus is Bus.USB]
    if len(usb) != 2:
        raise RefusalNotTwoUsb(
            f"need exactly 2 USB devices, found {len(usb)}"
        )
    boot = _boot_source(devices)
    if boot.bus is not Bus.USB:
        raise RefusalTargetIsSource(
            "booted system is not on a USB key; source and target are indistinguishable"
        )
    return usb[0].id if usb[1].id == boot.id else usb[1].id  # ids are unique


def _copy_entries(source: KeyState) -> dict:
    return {
        path: entry
        for path, entry in source.files
        if entry.file_class in (FileClass.SYSTEM, FileClass.SHARE)
    }


def _rates(bandwidth_mb_s, upgrade_ratio=DEFAULT_UPGRADE_RATIO) -> tuple:
    """(bandwidth, ratio) read exactly: positive, and in (0, 1]."""
    bandwidth = _exact("bandwidth_mb_s", bandwidth_mb_s)
    ratio = _exact("upgrade_ratio", upgrade_ratio)
    if bandwidth <= 0:
        raise ValueError("bandwidth_mb_s must be positive")
    if not 0 < ratio <= 1:
        raise ValueError("upgrade_ratio must be in (0, 1]")
    return bandwidth, ratio


def _check_transfer(
    mode: CloneMode,
    source: VirtualDevice,
    target: VirtualDevice,
    incoming: int,
    allow_overwrite: bool,
) -> None:
    """Every refusal of a transfer, for planning and executing alike.

    The source must hold a key and the target must be another device:
    blank media for a fresh clone (foreign data only with
    allow_overwrite), a key for an upgrade.  The target's capacity must
    hold both the staging peak, its current files plus the ``incoming``
    bytes, and the final file set, which carries the source's boot file
    even when that lies outside its system set."""
    src_key, tgt_key = source.contents, target.contents
    if src_key is None:
        raise ReplicationError(f"source device {source.id!r} holds no key")
    if target.id == source.id:
        raise RefusalTargetIsSource(f"target {target.id!r} is the source device")
    if mode is CloneMode.FRESH:
        if tgt_key is not None:
            raise TargetNotBlank(
                f"device {target.id!r} already holds a key; plan an upgrade instead"
            )
        if target.foreign_data and not allow_overwrite:
            raise OverwriteNotConfirmed(
                f"device {target.id!r} holds non-key data; confirm overwrite explicitly"
            )
    elif tgt_key is None:
        raise ReplicationError(f"target device {target.id!r} holds no key to upgrade")

    capacity = target.capacity_kib * KIB
    staging_peak = (0 if tgt_key is None else tgt_key.used_bytes()) + incoming
    final_files = _upgraded_files(src_key, () if tgt_key is None else tgt_key.files)
    final_bytes = sum(e.size_bytes for e in final_files.values())
    checks = ((staging_peak, "upgrade staging needs"), (final_bytes, "upgraded key would hold"))
    for need, upgrade in checks:
        if need > capacity:
            need, held = _shown(need), _shown(capacity)
            raise CapacityExceeded(
                f"clone needs {need} bytes, target holds {held}"
                if mode is CloneMode.FRESH
                else f"{upgrade} {need} bytes on a key of {held} bytes"
            )


def _plan(mode, source, target, bandwidth_mb_s, ratio, allow_overwrite) -> ClonePlan:
    """Both planners.  A fresh clone moves the source key's system and
    share files; an upgrade moves ``ratio`` × the source image plus its
    share files and keeps the target's personal files.  The duration is
    exact.  Refused by the check ``execute_plan`` runs too."""
    bandwidth, ratio = _rates(bandwidth_mb_s, ratio)
    src_key, tgt_key = source.contents, target.contents
    # a device without a key copies nothing; the check refuses it
    entries = {} if src_key is None else _copy_entries(src_key)
    if mode is CloneMode.FRESH:
        transfer = sum(e.size_bytes for e in entries.values())
    else:
        share = sum(e.size_bytes for e in entries.values() if e.file_class is FileClass.SHARE)
        transfer = 0 if src_key is None else math.ceil(ratio * src_key.image_bytes + share)
    _check_transfer(mode, source, target, transfer, allow_overwrite)
    return ClonePlan(
        mode=mode,
        source=source.id,
        target=target.id,
        copy_set=frozenset(entries),
        preserve_set=frozenset() if tgt_key is None else tgt_key.paths_of(FileClass.PERSONAL),
        bytes_total=transfer,
        duration_s=Fraction(transfer) / (bandwidth * MB),
        allow_overwrite=allow_overwrite,
    )


def plan_clone(
    source: VirtualDevice, target: VirtualDevice, bandwidth_mb_s, allow_overwrite: bool = False
) -> ClonePlan:
    """Plan a fresh clone: copy the source key's system and share files
    onto blank media.  The target must hold no key (use plan_upgrade for
    that) and holding foreign data requires allow_overwrite."""
    return _plan(CloneMode.FRESH, source, target, bandwidth_mb_s, 1, allow_overwrite)


def plan_upgrade(
    source: VirtualDevice,
    target: VirtualDevice,
    bandwidth_mb_s,
    upgrade_ratio=DEFAULT_UPGRADE_RATIO,
) -> ClonePlan:
    """Plan an upgrade: the source key rewrites the target key's system
    and merges its share directory; the target's personal files stay.
    Capacity must cover the staging peak and the final state."""
    return _plan(CloneMode.UPGRADE, source, target, bandwidth_mb_s, upgrade_ratio, False)


def _upgraded_files(src_key: KeyState, tgt_files: tuple) -> dict:
    """File set of the target after the source writes itself onto it:
    source system, merged share, target personal.  ``tgt_files`` is the
    target key's file tuple, empty for blank media."""
    out = {
        path: entry
        for path, entry in src_key.files
        if entry.file_class is FileClass.SYSTEM
    }
    share = {p: e for p, e in tgt_files if e.file_class is FileClass.SHARE}
    # on a path collision the source's share copy wins
    share.update((p, e) for p, e in src_key.files if e.file_class is FileClass.SHARE)
    out.update(share)
    for path, entry in tgt_files:
        if entry.file_class is FileClass.PERSONAL:
            out[path] = entry
    # a shadow-booted source points outside its system set; the write
    # process carries that boot target along, keeping the tamper visible
    # on the new key
    if src_key.boot_path not in out:
        out[src_key.boot_path] = dict(src_key.files)[src_key.boot_path]
    return out


def apply_transfer(
    src: KeyState, tgt: KeyState | None, capacity_kib: int, now: datetime.datetime
) -> tuple:
    """The booted key ``src`` writes itself onto a device of
    ``capacity_kib``: a fresh clone when ``tgt`` is None (blank media),
    otherwise an upgrade of the key ``tgt``.  Returns (src_after,
    new_key).

    The source logs a spawn.  The new key gets the source's system
    files, both share directories merged (the source wins), the
    target's personal files, and a birth at ``now`` that either starts a
    child of the source's log or closes an upgrade embedding it.  Plans,
    bandwidth and staging space are the caller's concern; only the
    final files are held to ``capacity_kib`` (CapacityExceeded)."""
    spawn = gen.GenealogyEvent(gen.EventKind.SPAWN, now, src.locale, src.capacity_kib, 1)
    birth = gen.GenealogyEvent(gen.EventKind.BIRTH, now, src.locale, capacity_kib, 1)
    src_log, new_log = gen._transfer(
        src.genealogy, None if tgt is None else tgt.genealogy, spawn, birth
    )
    new_key = KeyState(
        version=src.version,
        files=_upgraded_files(src, () if tgt is None else tgt.files),
        image_bytes=src.image_bytes,
        genealogy=new_log,
        capacity_kib=capacity_kib,
        boot_path=src.boot_path,
        locale=src.locale,
        share_prefix=src.share_prefix,
        compromised=src.compromised,
    )
    src_after = object.__new__(KeyState)  # same files; only the log, whose spawn _append checked
    src_after.__dict__.update(src.__dict__, genealogy=src_log)
    return src_after, new_key


def execute_plan(plan: ClonePlan, inventory, now: datetime.datetime):
    """Apply a plan to an inventory, returning the updated inventory.

    Revalidates against current state first, with the same check the
    planners run, so a refused or stale plan fails before anything
    changes; the input inventory is never mutated.  A plan is stale
    when its copy set is no longer exactly the source's system and
    share paths."""
    devices = _check_inventory(inventory)
    source_dev = _device(devices, plan.source)
    target_dev = _device(devices, plan.target)
    _check_transfer(plan.mode, source_dev, target_dev, plan.bytes_total, plan.allow_overwrite)
    src_key = source_dev.contents
    changed = plan.copy_set ^ frozenset(_copy_entries(src_key))
    if changed:
        raise ReplicationError(
            f"plan is stale: the source's system and share files changed at {min(changed)!r}"
        )

    src_after, new_key = apply_transfer(
        src_key, target_dev.contents, target_dev.capacity_kib, now
    )
    new_source = replace(source_dev, contents=src_after)
    new_target = replace(target_dev, contents=new_key, foreign_data=False)
    return tuple(
        new_source if d.id == plan.source else new_target if d.id == plan.target else d
        for d in devices
    )


# ---------------------------------------------------------------------------
# JSON load/dump


def _key_to_json(key: KeyState, genealogy: str) -> dict:
    return {
        "version": key.version.descriptor(),
        "locale": key.locale,
        "image_bytes": key.image_bytes,
        "capacity_kib": key.capacity_kib,
        "boot_path": key.boot_path,
        "share_prefix": key.share_prefix,
        "compromised": key.compromised,
        "files": {
            path: {
                "size": entry.size_bytes,
                "class": entry.file_class.value,
                "content": entry.content,
            }
            for path, entry in key.files
        },
        "genealogy": genealogy,
    }


def _key_from_json(where: str, doc) -> KeyState:
    required = ("version", "files", "image_bytes", "capacity_kib", "boot_path", "genealogy")
    _object(where, doc, required, ("locale", "share_prefix", "compromised"))
    files = {}
    for path, fields in _expect(f"{where}.files", doc["files"], dict).items():
        at = f"{where}.files[{_shown(path)}]"
        _object(at, fields, ("size", "class"), ("content",))
        files[path] = _at(
            at,
            FileEntry,
            size_bytes=_expect(f"{at}.size", fields["size"], int),
            file_class=_parsed(FileClass, f"{at}.class", fields["class"]),
            content=_expect(f"{at}.content", fields.get("content", ""), str),
        )
    genealogy = _parsed(gen.parse, f"{where}.genealogy", doc["genealogy"])
    locale = doc.get("locale")
    return _at(
        where,
        KeyState,
        version=_parsed(gen.ProvenanceHeader.from_descriptor, f"{where}.version", doc["version"]),
        files=files,
        image_bytes=_expect(f"{where}.image_bytes", doc["image_bytes"], int),
        genealogy=genealogy,
        capacity_kib=_expect(f"{where}.capacity_kib", doc["capacity_kib"], int),
        boot_path=_expect(f"{where}.boot_path", doc["boot_path"], str),
        locale=None if locale is None else _expect(f"{where}.locale", locale, str),
        share_prefix=_expect(f"{where}.share_prefix", doc.get("share_prefix", _SHARE_PREFIX), str),
        compromised=_expect(f"{where}.compromised", doc.get("compromised", False), bool),
    )


def inventory_to_json(inventory) -> str:
    """Serialize an inventory as a deterministic JSON document."""
    return "".join(_json_pieces(_inventory_doc(inventory)))


def _inventory_doc(inventory) -> dict:
    """The document ``inventory_to_json`` writes."""
    devices = tuple(inventory)
    # an upgraded key embeds its donor's log, so the keys share lines and blocks
    records = [d.contents.genealogy for d in devices if d.contents is not None]
    genealogies = gen._render(records, escaped=True)
    return {
        "devices": [
            {
                "id": d.id,
                "bus": d.bus.value,
                "capacity_kib": d.capacity_kib,
                "boot_source": d.is_boot_source,
                "foreign_data": d.foreign_data,
                "key": None
                if d.contents is None
                else _key_to_json(d.contents, next(genealogies)),
            }
            for d in devices
        ]
    }


def inventory_from_json(text: str):
    """Parse an inventory document produced by inventory_to_json (or
    written by hand to the same schema).  A field an object in it lacks
    or does not know, a value of the wrong JSON type, a key's genealogy
    that does not parse, a device, key or file its type refuses and a
    repeated device id are each a ValueError naming the item
    (``devices[1]: unknown field 'foriegn_data'``,
    ``devices[0].key.genealogy: line 4: ...``, ``devices[0].key: locale
    must be a single token: 'en US'``)."""
    doc = _object("", _load_json(text), ("devices",))
    devices = []
    for index, item in enumerate(_expect("devices", doc["devices"], list)):
        at = f"devices[{index}]"
        _object(at, item, ("id", "bus", "capacity_kib"), ("boot_source", "foreign_data", "key"))
        key = item.get("key")
        devices.append(
            _at(
                at,
                VirtualDevice,
                id=_expect(f"{at}.id", item["id"], str),
                bus=_parsed(Bus, f"{at}.bus", item["bus"]),
                capacity_kib=_expect(f"{at}.capacity_kib", item["capacity_kib"], int),
                contents=None if key is None else _key_from_json(f"{at}.key", key),
                is_boot_source=_expect(f"{at}.boot_source", item.get("boot_source", False), bool),
                foreign_data=_expect(f"{at}.foreign_data", item.get("foreign_data", False), bool),
            )
        )
    _check_ids(devices)
    return tuple(devices)
