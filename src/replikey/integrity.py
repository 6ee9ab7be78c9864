"""Cross-verification of key contents.

A key cannot vouch for itself: whoever tampered with it controls every
checking tool it carries.  The remedy modeled here is a second party. A
reference manifest (digests of the system files plus the boot pointer)
is published out of band, another key boots and compares the subject
against that manifest, and a draw or a spare key decides who gets to be
the checker.

The module provides the manifest type and its text form, two tamper
models (altering a listed file, and redirecting the boot sector to an
unlisted one), the pairwise verification step, three meeting protocols,
and a seeded simulation that measures how far an infection spreads and
how often it gets caught under each protocol.

All functions are pure; keys are immutable snapshots and every update
returns a new one.
"""

import bisect
import copy
import datetime
import enum
import functools
import hashlib
import random
from dataclasses import dataclass, replace

from . import genealogy as gen
from .replicator import FileClass, FileEntry, KeyState, apply_transfer
from .spreadsim import _DEFAULT_VERSION, _EPOCH, _SQUASHFS, _key_ids, _new_key
from .units import _count, _expect, _json_pieces, _shown

__all__ = [
    "IntegrityError",
    "TamperError",
    "ManifestParseError",
    "IntegrityManifest",
    "TamperKind",
    "TamperAction",
    "Outcome",
    "Verdict",
    "Protocol",
    "MeetingResult",
    "TrustSimConfig",
    "TrustSimResult",
    "content_digest",
    "build_manifest",
    "expected_manifest",
    "manifest_to_text",
    "manifest_from_text",
    "tamper",
    "check_against",
    "verify",
    "meeting",
    "run_trust_sim",
    "trust_sim_result_to_json",
]


class IntegrityError(Exception):
    pass


class TamperError(IntegrityError):
    """The tamper action's path does not fit its kind."""


class ManifestParseError(IntegrityError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


@functools.lru_cache(maxsize=256)
def content_digest(content: str) -> str:
    """Hex digest of a file's content token, cached since few tokens differ."""
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


_HEX = set("0123456789abcdef")


@dataclass(frozen=True)
class IntegrityManifest:
    """Digest list for the system files of one image, plus the path the
    boot sector is expected to load.

    ``version`` is carried when the manifest was built from a key and is
    None when read back from text; verification never consults it, the
    digests themselves pin the content.
    """

    digests: tuple
    boot_pointer: str
    version: gen.ProvenanceHeader | None = None

    def __post_init__(self):
        items = tuple(sorted(dict(self.digests).items()))
        if not items:
            raise ValueError("manifest lists no files")
        if len(items) != len(tuple(self.digests)):
            raise ValueError("duplicate path in manifest")
        for path, digest in items:
            if len(digest) != 64 or not set(digest) <= _HEX:
                raise ValueError(f"bad digest for {_shown(path)}")
        object.__setattr__(self, "digests", items)
        if self.boot_pointer not in dict(items):
            raise ValueError(f"boot pointer {_shown(self.boot_pointer)} is not a listed file")

    def digest_map(self) -> dict:
        return dict(self.digests)

    def paths(self) -> tuple:
        return tuple(p for p, _ in self.digests)


def build_manifest(key: KeyState) -> IntegrityManifest:
    """Digest the key's system files. Personal and share files never
    appear; they differ from key to key by design."""
    digests = {
        path: content_digest(entry.content)
        for path, entry in key.files
        if entry.file_class is FileClass.SYSTEM
    }
    if not digests:
        raise ValueError("key carries no system files to digest")
    return IntegrityManifest(
        digests=tuple(digests.items()),
        boot_pointer=key.boot_path,
        version=key.version,
    )


def expected_manifest(
    version: gen.ProvenanceHeader, system_paths, boot_path: str | None = None
) -> IntegrityManifest:
    """The manifest a cleanly built image of ``version`` would publish
    for the given system paths.

    Stands in for fetching the publisher's digest list when only the
    claimed version is known. A fabricated release built to match its
    own claimed descriptor passes this reconstruction; pass a manifest
    obtained out of band instead when that matters.
    """
    paths = sorted(system_paths)
    if not paths:
        raise ValueError("no system paths given")
    digests = {
        p: content_digest(f"{version.descriptor()}::{p}") for p in paths
    }
    return IntegrityManifest(
        digests=tuple(digests.items()),
        boot_pointer=boot_path if boot_path is not None else paths[0],
        version=version,
    )


# ---------------------------------------------------------------------------
# text form


def manifest_to_text(manifest: IntegrityManifest) -> str:
    """One ``<digest>  <path>`` line per file, then ``boot=<pointer>``.  A
    path (the boot pointer is one) that is empty or holds a line break
    has no line of its own in this format: a ValueError names it."""
    for path in manifest.paths():
        if not path or "\n" in path or "\r" in path:
            raise ValueError(f"path {_shown(path)} cannot be written on a manifest line")
    lines = [f"{digest}  {path}" for path, digest in manifest.digests]
    lines.append(f"boot={manifest.boot_pointer}")
    return "\n".join(lines) + "\n"


def manifest_from_text(text: str) -> IntegrityManifest:
    """Parse the text form back. The version is not part of the text
    format, so it comes back as None.  Lines end at "\\n" alone, and one
    "\\r" before it is dropped, so a path may hold any other character."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the text's final line break, or an empty text
    digests = {}
    boot = None
    for lineno, line in enumerate(lines, start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            raise ManifestParseError(lineno, "blank line")
        if boot is not None:
            raise ManifestParseError(lineno, "content after the boot line")
        if line.startswith("boot="):
            boot = line[len("boot="):]
            if not boot:
                raise ManifestParseError(lineno, "empty boot pointer")
            continue
        if len(line) < 67 or line[64:66] != "  ":
            raise ManifestParseError(lineno, "expected '<digest>  <path>'")
        digest, path = line[:64], line[66:]
        if not set(digest) <= _HEX:
            raise ManifestParseError(lineno, "digest is not lowercase hex")
        if path in digests:
            raise ManifestParseError(lineno, "duplicate path in manifest")
        digests[path] = digest
    if boot is None:
        raise ManifestParseError(len(lines) + 1, "missing boot= trailer")
    try:
        return IntegrityManifest(digests=tuple(digests.items()), boot_pointer=boot)
    except ValueError as exc:  # what is left to refuse is the boot line, the last read
        raise ManifestParseError(lineno, str(exc)) from exc


# ---------------------------------------------------------------------------
# tampering


class TamperKind(enum.Enum):
    MODIFY_FILE = "modify-file"
    SHADOW_BOOT = "shadow-boot"


@dataclass(frozen=True)
class TamperAction:
    """ModifyFile alters the content of an existing file. ShadowBoot
    points the boot sector at ``path``, a new file that no manifest
    lists, and leaves every listed file untouched."""

    kind: TamperKind
    path: str


def tamper(key: KeyState, action: TamperAction) -> KeyState:
    """Apply a tamper action, returning the altered key marked
    compromised. Its own checking tools lie from then on."""
    files = key.file_map()
    if action.kind is TamperKind.MODIFY_FILE:
        if action.path not in files:
            raise TamperError(f"no file {action.path!r} to modify")
        entry = files[action.path]
        altered = FileEntry(
            entry.size_bytes, entry.file_class, f"tampered::{entry.content}"
        )
        return replace(
            key.with_file(action.path, altered), compromised=True
        )
    if action.path in files:
        raise TamperError(
            f"shadow boot target {action.path!r} already exists"
        )
    payload = FileEntry(0, FileClass.PERSONAL, f"shadow::{action.path}")
    new_files = dict(files)
    new_files[action.path] = payload
    return replace(
        key, files=new_files, boot_path=action.path, compromised=True
    )


# ---------------------------------------------------------------------------
# verification


class Outcome(enum.Enum):
    PASS = "pass"
    FAIL_DIGEST = "fail-digest"
    FAIL_BOOT_POINTER = "fail-boot-pointer"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    offending_path: str | None = None

    def __post_init__(self):
        if (self.outcome is Outcome.PASS) != (self.offending_path is None):
            raise ValueError("offending_path is set exactly on failure")

    @property
    def passed(self) -> bool:
        return self.outcome is Outcome.PASS


_PASS = Verdict(Outcome.PASS)


def check_against(subject: KeyState, reference: IntegrityManifest) -> Verdict:
    """Raw comparison of a key against a reference manifest, digests
    first in path order, boot pointer last."""
    files = subject.file_map()
    ref = reference.digest_map()
    system = {
        p for p, e in files.items() if e.file_class is FileClass.SYSTEM
    }
    for path in sorted(set(ref) | system):
        if path not in ref or path not in files:
            return Verdict(Outcome.FAIL_DIGEST, path)
        if content_digest(files[path].content) != ref[path]:
            return Verdict(Outcome.FAIL_DIGEST, path)
    if subject.boot_path not in ref:
        return Verdict(Outcome.FAIL_BOOT_POINTER, subject.boot_path)
    return _PASS


def verify(
    verifier: KeyState, subject: KeyState, reference: IntegrityManifest
) -> Verdict:
    """Run the verifier's checking tools over the subject.

    A compromised verifier reports Pass no matter what; the attacker
    shipped modified versions of every tool that could have told on it.
    The two snapshots must be distinct objects, a key cannot check
    itself.
    """
    if verifier is subject:
        raise ValueError("a key cannot test its own integrity")
    if verifier.compromised:
        return _PASS
    return check_against(subject, reference)


# ---------------------------------------------------------------------------
# meetings


class Protocol(enum.Enum):
    NEWEST_BOOTS = "newest-boots"
    RANDOM_DRAW = "random-draw"
    TWO_KEY_OWNER = "two-key-owner"


@dataclass(frozen=True)
class MeetingResult:
    """What one encounter produced: the verdict of whatever check ran,
    which side booted (0 for the first key, 1 for the second), both keys
    afterwards, and the index of the flagged key if the check failed."""

    verdict: Verdict
    booter: int
    keys: tuple
    flagged: int | None = None


def _default_now(a: KeyState, b: KeyState) -> datetime.datetime:
    stamps = [
        ev.timestamp
        for key in (a, b)
        for ev in key.genealogy.events
        if isinstance(ev, gen.GenealogyEvent)
    ]
    return max(stamps, default=_EPOCH)


def _newer(a: KeyState, b: KeyState) -> int:
    return 1 if b.version.build_date > a.version.build_date else 0


def _reference(subject: KeyState, trusted: IntegrityManifest | None) -> IntegrityManifest:
    if trusted is not None:
        return trusted
    return _expected_cached(subject.version, subject.paths_of(FileClass.SYSTEM))


@functools.lru_cache(maxsize=64)
def _expected_cached(version: gen.ProvenanceHeader, system_paths: frozenset) -> IntegrityManifest:
    """expected_manifest for a (version, system path set) pair, rebuilt
    only when the pair is new; the manifest is immutable, so sharing it
    is safe."""
    return expected_manifest(version, system_paths)


def meeting(
    a: KeyState,
    b: KeyState,
    protocol: Protocol,
    rng: random.Random,
    *,
    trusted: IntegrityManifest | None = None,
    now: datetime.datetime | None = None,
) -> MeetingResult:
    """One encounter between two key owners.

    NewestBoots is the unguarded habit: the newer key boots and upgrades
    the other, no questions asked, so a tampered key that claims the
    newest version spreads freely. RandomDraw flips a fair coin for who
    boots; the booter verifies the other key first and a failed check
    blocks the upgrade and flags the subject. TwoKeyOwner lets the
    upgrade happen and then has the owner's spare key, whose tools are
    clean, check the result.

    ``trusted`` supplies the reference manifest; when omitted it is
    reconstructed from the subject's claimed version, see
    expected_manifest for what that concedes. ``now`` timestamps any
    genealogy records and defaults to the latest event either key
    carries.
    """
    if a is b:
        raise ValueError("a key cannot meet itself")
    keys = [a, b]
    if now is None:
        now = _default_now(a, b)
    newer = _newer(a, b)
    if protocol is Protocol.RANDOM_DRAW:
        booter = 0 if rng.random() < 0.5 else 1
    elif isinstance(protocol, Protocol):
        booter = newer
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    subject = 1 - booter

    verdict = _PASS
    if protocol is Protocol.RANDOM_DRAW:
        verdict = verify(keys[booter], keys[subject], _reference(keys[subject], trusted))
    if verdict.passed and keys[0].version != keys[1].version:
        keys[newer], keys[1 - newer] = apply_transfer(
            keys[newer], keys[1 - newer], keys[1 - newer].capacity_kib, now
        )
    if protocol is Protocol.TWO_KEY_OWNER:
        verdict = check_against(keys[subject], _reference(keys[subject], trusted))
    return MeetingResult(verdict, booter, tuple(keys), None if verdict.passed else subject)


# ---------------------------------------------------------------------------
# trust simulation


@dataclass(frozen=True)
class TrustSimConfig:
    """Population of keys meeting pairwise at random.

    ``tampered_initial`` keys start compromised, carrying a modified
    system file and a version bump so the legacy protocol always lets
    them boot. Flagged keys sit out the rest of the run unless
    ``quarantine_flagged`` is off.
    """

    population: int
    tampered_initial: int
    meetings: int
    protocol: Protocol
    rng_seed: int = 0
    quarantine_flagged: bool = True

    def __post_init__(self):
        _count("population", self.population, 1)
        _count("tampered_initial", self.tampered_initial)
        _count("meetings", self.meetings)
        _expect("rng_seed", self.rng_seed, int)
        _expect("quarantine_flagged", self.quarantine_flagged, bool)
        if self.tampered_initial > self.population:
            raise ValueError("tampered_initial must be within the population")
        if not isinstance(self.protocol, Protocol):
            raise ValueError("protocol must be a Protocol")


@dataclass(frozen=True)
class TrustSimResult:
    """infected_over_time[i] counts compromised keys after i meetings,
    quarantined ones included; its first entry is the seeded count."""

    infected_over_time: tuple
    detections: int
    false_negatives: int
    quarantined: int

    def __post_init__(self):
        object.__setattr__(
            self, "infected_over_time", tuple(self.infected_over_time)
        )


_TAMPERED_VERSION = replace(
    _DEFAULT_VERSION, label="Demo Live 1.1", build_date=datetime.date(2013, 2, 1)
)


def run_trust_sim(config: TrustSimConfig) -> TrustSimResult:
    """Run the meeting schedule: uniform random pairs, no self-meetings,
    deterministic under rng_seed.

    detections counts failed checks. false_negatives counts meetings
    that ended Pass while a participant was compromised. When fewer than
    two keys remain unflagged a meeting slot passes with no encounter.

    Apart from ``meeting`` itself, each meeting costs O(1): the infected
    count is updated from the two keys that met, and the sorted pool of
    unflagged ids changes only when a key is quarantined. Every clean
    key starts equal, and so does every tampered one (a fake newer
    release with one modified file), so each kind is built once and
    copied: the tampered keys up front, a clean key the first time it
    is drawn. The copies are distinct objects, since a key cannot meet
    itself.
    """
    rng = random.Random(config.rng_seed)
    ids = _key_ids(config.population)
    pool = sorted(ids)
    fake = tamper(_new_key(_TAMPERED_VERSION), TamperAction(TamperKind.MODIFY_FILE, _SQUASHFS))
    clean = _new_key(_DEFAULT_VERSION)
    keys = {key_id: copy.copy(fake) for key_id in ids[: config.tampered_initial]}

    def key(key_id: str) -> KeyState:
        if key_id not in keys:
            keys[key_id] = copy.copy(clean)
        return keys[key_id]

    infected = config.tampered_initial
    quarantined = 0
    detections = 0
    false_negatives = 0
    trajectory = [infected]
    for step in range(config.meetings):
        if len(pool) < 2:
            trajectory.append(infected)
            continue
        id_a, id_b = rng.sample(pool, 2)
        a, b = key(id_a), key(id_b)
        now = _EPOCH + datetime.timedelta(minutes=step + 1)
        result = meeting(a, b, config.protocol, rng, now=now)
        keys[id_a], keys[id_b] = after_a, after_b = result.keys
        infected += after_a.compromised + after_b.compromised - a.compromised - b.compromised
        if result.verdict.passed:
            if after_a.compromised or after_b.compromised:
                false_negatives += 1
        else:
            detections += 1
            if config.quarantine_flagged:
                del pool[bisect.bisect_left(pool, (id_a, id_b)[result.flagged])]
                quarantined += 1
        trajectory.append(infected)
    return TrustSimResult(
        infected_over_time=tuple(trajectory),
        detections=detections,
        false_negatives=false_negatives,
        quarantined=quarantined,
    )


def trust_sim_result_to_json(result: TrustSimResult) -> str:
    return "".join(_json_pieces(_trust_doc(result)))


def _trust_doc(result: TrustSimResult) -> dict:
    """The document ``trust_sim_result_to_json`` writes."""
    return {
        "detections": result.detections,
        "false_negatives": result.false_negatives,
        "infected_over_time": list(result.infected_over_time),
        "quarantined": result.quarantined,
    }
