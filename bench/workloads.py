"""The benchmark's workloads: seeded inputs, the CLI operations one
round runs, and the check on each operation's output.

Every expected value is worked out here from the generated inputs, by
arithmetic or with the independent genealogy model in genlog; nothing
is compared against a stored copy of the program's output.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import genlog

MB = 10**6
GB = 10**9

# Sizes per workload.  "full" is what the benchmark measures; "tiny"
# keeps the smoke tests fast and exercises the same operations and checks.
SIZES = {
    "full": {
        "room": {"n": 8192},
        "redeploy": {"keys": 64, "releases": 9},
        "trust": {"population": 1024, "tampered": 16, "meetings": 5000},
        "lineage": {"log_lines": 36000, "key_lines": 1500},
    },
    "tiny": {
        "room": {"n": 200},
        "redeploy": {"keys": 16, "releases": 3},
        "trust": {"population": 64, "tampered": 4, "meetings": 300},
        "lineage": {"log_lines": 400, "key_lines": 100},
    },
}

# Nesting depth of the lineage workload's deep log.  replikey's genealogy
# walkers recurse once per level, so at this depth genealogy-stats dies
# with RecursionError; the log does not depend on the seed.
DEEP_LEVELS = 1500

PROTOCOLS = ("newest-boots", "random-draw", "two-key-owner")


@dataclass
class Op:
    """One CLI invocation.  ``argv`` writes its result to ``{out}/<output>``;
    ``check`` returns the problems found in that file's bytes."""

    name: str
    argv: list
    output: str
    check: Callable[[bytes], list]


@dataclass
class Workload:
    ops: list
    # simulated clone and upgrade transfers in one round, from the
    # first round's outputs ({op name: bytes})
    transfers: Callable[[dict], int]


def build(name, seed, size, indir):
    """Write the inputs of workload ``name`` for ``seed`` under ``indir``
    and return its operations."""
    return BUILDERS[name](random.Random(seed), SIZES[size][name], indir)


# ---------------------------------------------------------------------------
# shared helpers


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value):
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _sig6(x):
    """A rational printed to six significant digits, as the program does."""
    return float(f"{float(x):.6g}")


def _load_json(data, problems):
    try:
        return json.loads(data)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_text(want, data):
    """Exact comparison, naming the first line that differs."""
    got = data.decode("utf-8", errors="replace")
    if got == want:
        return []
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return [f"line {lineno}: got {_short(g)}, expected {_short(w)}"]
    return [f"got {len(got_lines)} lines, expected {len(want_lines)}"]


def check_json(want, data):
    problems = []
    doc = _load_json(data, problems)
    if doc is not None and doc != want:
        keys = sorted(set(doc) | set(want)) if isinstance(doc, dict) else []
        for key in keys:
            _expect(problems, key, doc.get(key), want.get(key))
        if not problems:
            problems.append(f"got {_short(doc)}, expected {_short(want)}")
    return problems


def top_level_lines(text):
    """The lines of a genealogy that belong to the key itself, not to an
    embedded donor (canonical text indents donors)."""
    return [line for line in text.split("\n") if line and line[0] != " "]


def own_spawns(text):
    """Spawns the key made itself: top-level "s" lines after its last
    "i" (an upgrade restarts the count too)."""
    count = 0
    for line in top_level_lines(text):
        tag = line.split(" ", 1)[0]
        if tag == "s":
            count += 1
        elif tag in ("i", "u"):
            count = 0
    return count


# ---------------------------------------------------------------------------
# room: one key spreads through a room of blank keys


def room(rng, size, indir):
    n = size["n"] - rng.randrange(max(1, size["n"] // 64))
    image_gb = rng.choice(("2.7", "3.1", "1.9", "4.2"))
    bandwidth = rng.choice(("4.5", "6", "9.5", "12"))
    setup_s = rng.randint(120, 600)
    params = {
        "n": n,
        "image_bytes": int(Fraction(image_gb) * GB),
        "bandwidth": Fraction(bandwidth),
        "setup_s": setup_s,
    }
    argv = [
        "sim-room", "--n", str(n), "--image-gb", image_gb, "--bandwidth", bandwidth,
        "--setup-s", str(setup_s), "-o", "{out}/room.json",
    ]
    op = Op("sim-room", argv, "room.json", partial(check_room, params))
    return Workload([op], lambda outputs: n - 1)


def check_room(p, data):
    problems = []
    doc = _load_json(data, problems)
    if doc is None:
        return problems
    n, image = p["n"], p["image_bytes"]
    rounds = (n - 1).bit_length()  # smallest r with 2**r >= n
    round_s = p["setup_s"] + Fraction(image) / (p["bandwidth"] * MB)
    covered = [min(2**r, n) for r in range(rounds + 1)]
    _expect(problems, "rounds", doc.get("rounds"), rounds)
    _expect(problems, "makespan_s", doc.get("makespan_s"), _sig6(rounds * round_s))
    _expect(problems, "per_round_seeded", doc.get("per_round_seeded"), covered[1:])
    _expect(
        problems,
        "per_round_bytes",
        doc.get("per_round_bytes"),
        [(b - a) * image for a, b in zip(covered, covered[1:])],
    )
    _expect(problems, "bytes_delivered", doc.get("bytes_delivered"), (n - 1) * image)
    logs = doc.get("genealogies") or {}
    _expect(problems, "genealogies", len(logs), n)
    _expect(
        problems, "own spawns over all keys", sum(map(own_spawns, logs.values())), n - 1
    )
    return problems


# ---------------------------------------------------------------------------
# redeploy: releases pushed through a seeded fleet by upgrades


def redeploy(rng, size, indir):
    n, releases = size["keys"], size["releases"]
    image = rng.choice((1_900_000_000, 2_700_000_000, 3_100_000_000))
    bandwidth = rng.choice(("4.5", "6", "9.5"))
    setup_s = rng.randint(120, 600)
    ratio = rng.choice(("4/5", "3/4", "1/2"))
    per_upgrade = math.ceil(Fraction(ratio) * image)
    round_s = setup_s + Fraction(per_upgrade) / (Fraction(bandwidth) * MB)
    rounds_each = (n - 1).bit_length()
    # each release lands after the previous one has reached every key
    times = [rng.randint(0, 3600)]
    for _ in range(releases - 1):
        times.append(times[-1] + math.ceil(rounds_each * round_s) + rng.randint(1, 86_400))
    versions = [
        f"Demo Live 1.{k + 1} 2013-{k + 2:02d}-{rng.randint(1, 28):02d}"
        f" {rng.choice(genlog.LOCALES)} - stable - amd64"
        for k in range(releases)
    ]
    config = {
        "n_participants": n,
        "image_bytes": image,
        "bandwidth_mb_s": bandwidth,
        "setup_delay_s": setup_s,
        "upgrade_ratio": ratio,
        "releases": [{"time_s": t, "version": v} for t, v in zip(times, versions)],
    }
    (indir / "redeploy.json").write_text(json.dumps(config, indent=2) + "\n")
    params = {
        "n": n,
        "versions": versions,
        "times": times,
        "round_s": round_s,
        "per_upgrade": per_upgrade,
    }
    argv = ["sim-redeploy", "--config", str(indir / "redeploy.json"), "-o", "{out}/redeploy.json"]
    op = Op("sim-redeploy", argv, "redeploy.json", partial(check_redeploy, params))
    return Workload([op], lambda outputs: releases * (n - 1))


def check_redeploy(p, data):
    problems = []
    doc = _load_json(data, problems)
    if doc is None:
        return problems
    n, releases = p["n"], len(p["versions"])
    rounds_each = (n - 1).bit_length()
    makespan = p["times"][-1] + rounds_each * p["round_s"] - p["times"][0]
    pairs = [min(2 ** (r - 1), n - 2 ** (r - 1)) for r in range(1, rounds_each + 1)]
    seeded = [min(2**r, n) for r in range(1, rounds_each + 1)]
    _expect(problems, "version_coverage", doc.get("version_coverage"), {p["versions"][-1]: n})
    _expect(problems, "rounds", doc.get("rounds"), releases * rounds_each)
    _expect(problems, "makespan_s", doc.get("makespan_s"), _sig6(makespan))
    _expect(
        problems, "upgrade_bytes", doc.get("upgrade_bytes"), releases * (n - 1) * p["per_upgrade"]
    )
    _expect(problems, "bytes_delivered", doc.get("bytes_delivered"), 0)
    _expect(
        problems,
        "per_round_bytes",
        doc.get("per_round_bytes"),
        [k * p["per_upgrade"] for k in pairs] * releases,
    )
    _expect(
        problems,
        "per_round_seeded",
        doc.get("per_round_seeded"),
        seeded + [n] * (rounds_each * (releases - 1)),
    )
    logs = doc.get("genealogies") or {}
    _expect(problems, "genealogies", len(logs), n)
    wrong = [
        key
        for key, text in logs.items()
        if sum(1 for line in top_level_lines(text) if line.split(" ", 1)[0] == "u")
        != releases
    ]
    _expect(problems, "keys without one top-level upgrade per release", wrong, [])
    return problems


# ---------------------------------------------------------------------------
# trust: tampered keys meeting clean ones under each protocol


def trust(rng, size, indir):
    params = dict(size, sim_seed=rng.randrange(2**31))
    ops = [
        Op(
            f"trust-sim {protocol}",
            [
                "trust-sim",
                "--population", str(size["population"]),
                "--tampered", str(size["tampered"]),
                "--meetings", str(size["meetings"]),
                "--protocol", protocol,
                "--seed", str(params["sim_seed"]),
                "-o", f"{{out}}/trust-{protocol}.json",
            ],
            f"trust-{protocol}.json",
            partial(check_trust, params, protocol),
        )
        for protocol in PROTOCOLS
    ]
    return Workload(ops, trust_transfers)


def trust_transfers(outputs):
    """Upgrades the meetings performed.  Only a tampered-lineage key is
    newer than a clean one, and an upgrade is the only way a key becomes
    compromised, so each upgrade adds exactly one infected key."""
    total = 0
    for data in outputs.values():
        infected = json.loads(data)["infected_over_time"]
        total += infected[-1] - infected[0]
    return total


def check_trust(p, protocol, data):
    problems = []
    doc = _load_json(data, problems)
    if doc is None:
        return problems
    infected = doc.get("infected_over_time") or []
    _expect(problems, "trajectory length", len(infected), p["meetings"] + 1)
    _expect(problems, "initially infected", infected[:1], [p["tampered"]])
    if any(b < a for a, b in zip(infected, infected[1:])):
        problems.append("infected count decreases")
    if infected and infected[-1] > p["population"]:
        problems.append(f"infected count {infected[-1]} exceeds the population")
    if protocol == "newest-boots":
        _expect(problems, "detections", doc.get("detections"), 0)
    if protocol == "two-key-owner":
        _expect(problems, "false_negatives", doc.get("false_negatives"), 0)
    _expect(problems, "quarantined", doc.get("quarantined"), doc.get("detections"))
    return problems


# ---------------------------------------------------------------------------
# lineage: a key owner reading logs and checking keys

SYSTEM_SIZES = {
    "/live/filesystem.squashfs": 2_600_000_000,
    "/live/initrd.img": 60_000_000,
    "/live/vmlinuz": 40_000_000,
}
CAPACITY_KIB = 7_812_500


def _sha256(content):
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


def _key(version, record, history_text, share, personal, system=None, compromised=False):
    """A key document as the inventory format has it, plus its history
    as a genlog record (under "_record", removed before writing)."""
    system = system or {path: f"{version}::{path}" for path in SYSTEM_SIZES}
    files = {
        path: {"size": SYSTEM_SIZES[path], "class": "system", "content": content}
        for path, content in system.items()
    }
    for cls, group in (("share", share), ("personal", personal)):
        for path, (size, content) in group.items():
            files[path] = {"size": size, "class": cls, "content": content}
    return {
        "version": version,
        "locale": version.split(" - ")[0].rsplit(" ", 1)[1],
        "image_bytes": sum(SYSTEM_SIZES.values()),
        "capacity_kib": CAPACITY_KIB,
        "boot_path": "/live/filesystem.squashfs",
        "share_prefix": "/share/",
        "compromised": compromised,
        "files": files,
        "genealogy": history_text,
        "_record": record,
    }


def _device(device_id, bus, key, boot):
    return {
        "id": device_id,
        "bus": bus,
        "capacity_kib": CAPACITY_KIB,
        "boot_source": boot,
        "foreign_data": False,
        "key": key,
    }


def _manifest_text(key):
    system = sorted(
        (path, entry) for path, entry in key["files"].items() if entry["class"] == "system"
    )
    lines = [f"{_sha256(entry['content'])}  {path}" for path, entry in system]
    return "\n".join(lines) + f"\nboot={key['boot_path']}\n"


def _upgraded(source, target, at, at_epoch):
    """Source and target key documents after the source upgrades the
    target at timestamp ``at``: the source logs a spawn; the target takes
    the source's system, merges shares (the source wins on a clash),
    keeps its personal files, and logs the upgrade, embedding the
    source's history, then its rebirth."""
    src_rec, tgt_rec = source["_record"], target["_record"]
    spawn = ("s", at, at_epoch, source["locale"], source["capacity_kib"], 1)
    src_after = genlog.Record(src_rec.provenance, src_rec.events + [spawn])
    rebirth = ("i", at, at_epoch, source["locale"], target["capacity_kib"], 1)
    tgt_after = genlog.Record(
        tgt_rec.provenance, tgt_rec.events + [("u", src_after, True), rebirth]
    )
    files = {p: e for p, e in source["files"].items() if e["class"] == "system"}
    files.update({p: e for p, e in target["files"].items() if e["class"] == "share"})
    files.update({p: e for p, e in source["files"].items() if e["class"] == "share"})
    files.update({p: e for p, e in target["files"].items() if e["class"] == "personal"})
    new_source = dict(source, genealogy=genlog.canonical_text(src_after))
    new_target = dict(
        target,
        version=source["version"],
        locale=source["locale"],
        image_bytes=source["image_bytes"],
        boot_path=source["boot_path"],
        compromised=source["compromised"],
        files=files,
        genealogy=genlog.canonical_text(tgt_after),
    )
    return new_source, new_target


def _public(device, key=None):
    key = dict(key or device["key"])
    key.pop("_record", None)
    return dict(device, key=key)


def lineage(rng, size, indir):
    maker = genlog.HistoryMaker(rng)
    log = maker.history(size["log_lines"], rng.choice(genlog.DESCRIPTORS))
    log_stats = genlog.stats(log)
    (indir / "lineage.log").write_text(genlog.noisy_text(log, rng, rng.randint(0, 4)))
    deep = genlog.nested(DEEP_LEVELS, genlog.Clock(random.Random(0)))
    (indir / "deep.log").write_text(genlog.canonical_text(deep))

    newer, older = genlog.DESCRIPTORS[4], genlog.DESCRIPTORS[3]
    keys = {}
    for name, version in (("a", newer), ("b", older), ("c", newer)):
        record = maker.history(size["key_lines"], version, levels=3)
        keys[name] = (record, genlog.noisy_text(record, rng))
    tampered_path = rng.choice(sorted(SYSTEM_SIZES))
    tampered_system = {path: f"{newer}::{path}" for path in SYSTEM_SIZES}
    tampered_system[tampered_path] = f"tampered::{tampered_system[tampered_path]}"
    key_a = _key(
        newer, *keys["a"],
        share={"/share/readme.txt": (1_200, "readme-a"), "/share/slides.pdf": (3_000_000, "slides")},
        personal={"/home/a/notes.txt": (5_000, "notes-a")},
    )
    key_b = _key(
        older, *keys["b"],
        share={"/share/readme.txt": (900, "readme-b"), "/share/b-only.txt": (10, "b")},
        personal={"/home/b/thesis.tex": (80_000, "thesis"), "/home/b/photo.jpg": (4_000_000, "photo")},
    )
    key_c = _key(
        newer, *keys["c"], share={}, personal={}, system=tampered_system, compromised=True
    )
    devices = [
        _device("key-a", "usb", key_a, True),
        _device("key-b", "usb", key_b, False),
        _device("key-c", "internal", key_c, False),
    ]
    inventory = indir / "inventory.json"
    inventory.write_text(json.dumps({"devices": [_public(d) for d in devices]}, indent=1))
    # the publisher's manifest of the newer version, which key-c claims too
    (indir / "reference.txt").write_text(_manifest_text(key_a))

    at_text, at_epoch = maker.clock.tick(0)
    a_after, b_after = _upgraded(key_a, key_b, at_text, at_epoch)
    upgraded_inventory = {
        "devices": [
            _public(devices[0], a_after),
            _public(devices[1], b_after),
            _public(devices[2], dict(key_c, genealogy=genlog.canonical_text(keys["c"][0]))),
        ]
    }
    deep_stats = genlog.stats(deep)
    log_path, inv, ref = str(indir / "lineage.log"), str(inventory), str(indir / "reference.txt")
    ops = [
        Op("genealogy-parse", ["genealogy-parse", log_path, "-o", "{out}/parse.txt"],
           "parse.txt", partial(check_text, genlog.canonical_text(log))),
        Op("genealogy-stats text", ["genealogy-stats", log_path, "-o", "{out}/stats.txt"],
           "stats.txt", partial(check_text, genlog.stats_text(log_stats))),
        Op("genealogy-stats json",
           ["genealogy-stats", log_path, "--format", "json", "-o", "{out}/stats.json"],
           "stats.json", partial(check_json, log_stats)),
        Op("clone-exec upgrade",
           ["clone-exec", "--inventory", inv, "--mode", "upgrade", "--at", at_text,
            "-o", "{out}/upgraded.json"],
           "upgraded.json", partial(check_json, upgraded_inventory)),
        Op("manifest", ["manifest", "--inventory", inv, "-o", "{out}/manifest.txt"],
           "manifest.txt", partial(check_text, _manifest_text(key_a))),
        Op("verify clean",
           ["verify", "--inventory", inv, "--reference", ref, "-o", "{out}/verify-a.txt"],
           "verify-a.txt", partial(check_text, "verdict=pass\n")),
        Op("verify tampered",
           ["verify", "--inventory", inv, "--device", "key-c", "--reference", ref,
            "-o", "{out}/verify-c.txt"],
           "verify-c.txt",
           partial(check_text, f"verdict=fail-digest\noffending_path={tampered_path}\n")),
        Op("genealogy-stats deep",
           ["genealogy-stats", str(indir / "deep.log"), "-o", "{out}/deep.txt"],
           "deep.txt", partial(check_text, genlog.stats_text(deep_stats))),
    ]
    return Workload(ops, lambda outputs: 1)


BUILDERS = {"room": room, "redeploy": redeploy, "trust": trust, "lineage": lineage}
