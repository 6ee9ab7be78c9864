"""Pinned CLI outputs: the sha256 of each command's stdout.

The other tests compare reruns of the same code; these digests pin the
exact bytes across changes to the code.  A digest may only change
together with a deliberate change of output format or model, and the
change that does so records why.
"""

import datetime
import hashlib
import json
from itertools import count, cycle

from replikey import genealogy as gen
from replikey import replicator as rep
from replikey.cli import dispatch

UTC = datetime.timezone.utc
T0 = datetime.datetime(2013, 2, 17, 13, 1, tzinfo=UTC)
V0 = "Demo Live 1.0 2013-01-01 en_US.UTF-8 - stable - amd64"
V1 = "Demo Live 1.1 2013-06-01 en_US.UTF-8 - stable - amd64"
V2 = "Demo Live 1.2 2013-07-01 de_DE.UTF-8 - stable - amd64"
V3 = "Demo Live 1.3 2013-08-01 en_US.UTF-8 - stable - amd64"

ROOM = ("sim-room", "--seeds", "4", "--ports", "3")
TRUST = ("trust-sim", "--population", "32", "--tampered", "3", "--meetings", "200",
         "--seed", "7", "--protocol")

REDEPLOY_MULTI = {
    "n_participants": 40,
    "ports_per_host": 3,
    "releases": [
        {"time_s": 0, "version": V1},
        {"time_s": 900, "version": V2},
        {"time_s": 20_000, "version": V3},
    ],
}
REDEPLOY_HORIZON = {
    "n_participants": 16,
    "releases": [{"time_s": 0, "version": V1}, {"time_s": 5_000, "version": V2}],
    "horizon_s": 3_000,
}


def _key(version, extra):
    manifest = rep.ImageManifest(
        version=gen.ProvenanceHeader.from_descriptor(version),
        whitelist=frozenset({"/live/filesystem.squashfs", "/live/vmlinuz"}),
        image_bytes=2_700_000_000,
    )
    key = rep.KeyState.from_manifest(manifest, 7_812_500, T0)
    for path, size, file_class in extra:
        key = key.with_file(path, rep.FileEntry(size, file_class, f"{version}::{path}"))
    return key


def _inventory(target_key):
    source = _key(
        V1,
        [
            ("/share/music/a.ogg", 4_000_000, rep.FileClass.SHARE),
            ("/home/me/notes.txt", 1_000, rep.FileClass.PERSONAL),
        ],
    )
    return (
        rep.VirtualDevice("sdb", rep.Bus.USB, 7_812_500, contents=source, is_boot_source=True),
        rep.VirtualDevice("sdc", rep.Bus.USB, 7_812_500, contents=target_key),
        rep.VirtualDevice("sda", rep.Bus.INTERNAL, 488_281_250, foreign_data=True),
    )


def _noisy_log() -> str:
    """A log written as a hand would, the same on every run: field
    separators, donor indentation and the batch column (padded or bare)
    vary line by line and copy by copy, some lines end in CRLF, blank
    lines fall between, and two donor blocks recur at several depths,
    flagged and not."""
    seps = cycle((" - ", "  -  ", "\t-\t", " -   ", "   - "))
    padded = cycle((True, False, False))
    pads = cycle((1, 3, 2, 4))
    ends = cycle(("", "", "\r", "", " ", "\r\n", ""))
    minute = count(0, 7)

    def event(tag, batch=1, offset=0):
        m = next(minute)
        return f"{tag} 2013-02-17 {m // 60 + offset:02d}:{m % 60:02d}:38+{offset:02d}:00", batch

    chain = [event("i"), event("s", 3), event("s", 12, offset=1), event("s")]
    upgraded = [event("i"), "u p " + V0, chain, event("i"), event("s", 2)]
    top = [
        "p " + V1, event("i"), "u p " + V0, chain, event("i"), "u", upgraded,
        event("i"), "u " + V2, chain, event("i"), "u p " + V3, upgraded,
        "u", chain, event("i", offset=1), event("s", 5),
    ]
    lines = []
    stack = [(iter(top), 0)]
    while stack:
        for item in stack[-1][0]:
            depth = stack[-1][1]
            if isinstance(item, list):
                stack.append((iter(item), depth + next(pads)))
                break
            if isinstance(item, tuple):
                head, batch = item
                width = 10 if next(padded) else 0
                item = next(seps).join((head, "fr_FR.UTF-8", "4023296", f"{batch:>{width}}"))
            lines.append(" " * depth + item + next(ends))
            if len(lines) % 5 == 0:
                lines.append(" " * next(pads))
        else:
            stack.pop()
    return "\n".join(lines) + "\n"


FRESH_INVENTORY = _inventory(None)
UPGRADE_INVENTORY = _inventory(
    _key(
        V0,
        [
            ("/share/music/a.ogg", 3_000_000, rep.FileClass.SHARE),
            ("/share/docs/b.pdf", 2_000_000, rep.FileClass.SHARE),
            ("/home/you/photo.jpg", 5_000_000, rep.FileClass.PERSONAL),
        ],
    )
)

GOLDEN = {
    "room-60-tracked": "6a217fd56dbfb570e93bafd5ea7c8b379849de5908259c739af724a3d1a5393b",
    "room-60-count-only": "5eac89af547aa4a824f16e4526df436b9bb248c44959347a3af732f2cc0f110f",
    "room-1000-tracked": "3046ce0ecf243f7fe3500265382c5a17926a6eae98209cb5656a0c0b6a51902d",
    "room-1000-count-only": "45fd7d86a7cc4efe305ee8d12e0d1b00b11272f8f88c007ac3b972d51ceba0d8",
    "redeploy-multi": "817172cb846d3117cbcba34bd7f91f73beb009366aaec1c0af8a696fbc1bd19f",
    "redeploy-horizon": "47aeff6a6d24d287bf75d7ba2a557e5dbb8593fb08249638f7064ee1e647cc2d",
    "trust-newest-boots": "35dc03594bff5055fee20f0e9cb0205abd1b01bb3b4bbf6035956d00dcd2ac17",
    "trust-random-draw": "d4f4917bdd18c8fbcb222b412777309be4da58348a2798d9048a76e4b65d1de7",
    "trust-two-key-owner": "84b4cb9e7c5025f331dbc47d7163ae356593c7facbed9a975868077e1b32a9bb",
    "clone-exec-fresh": "728231d0e2bedafabf5f92ae0b6dbfe2dfb2d1a0def137b7782ecba4e6216f90",
    "clone-exec-upgrade": "565382a86646959ff0bcf3d42662ffbab6c8de2217f777ee339d01031c4d1f28",
    "genealogy-parse": "878b7ddda30146c72fe8e4d723fda463c4eda64d3257df74f38bcb88fe2687ef",
    "genealogy-stats": "fd1913556ebd5d2a7b14ca257edd3a0b96e842c7083d99f130814f028361ae49",
}


def _argv(name, tmp_path):
    if name.startswith("room-"):
        _, n, mode = name.split("-", 2)
        return [*ROOM, "--n", n] + (["--count-only"] if mode == "count-only" else [])
    if name.startswith("redeploy-"):
        doc = REDEPLOY_MULTI if name == "redeploy-multi" else REDEPLOY_HORIZON
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return ["sim-redeploy", "--config", str(path)]
    if name.startswith("genealogy-"):
        path = tmp_path / "noisy.log"
        path.write_bytes(_noisy_log().encode("utf-8"))
        return [name, str(path)] + (["--format", "json"] if name == "genealogy-stats" else [])
    if name.startswith("trust-"):
        return [*TRUST, name[len("trust-"):]]
    inventory = FRESH_INVENTORY if name == "clone-exec-fresh" else UPGRADE_INVENTORY
    path = tmp_path / "inventory.json"
    path.write_text(rep.inventory_to_json(inventory))
    return ["clone-exec", "--inventory", str(path), "--at", "2013-02-17 13:11:38+00:00"]


def cli_digest(name, tmp_path, capsys):
    code = dispatch(_argv(name, tmp_path))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_cli_output_digests(tmp_path, capsys):
    digests = {name: cli_digest(name, tmp_path, capsys) for name in GOLDEN}
    assert digests == GOLDEN
