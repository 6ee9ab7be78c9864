"""Tests for the command line front end: subcommand behavior, exit
codes, diagnostics, and byte-level determinism."""

import argparse
import contextlib
import datetime
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import replikey
from replikey import cli
from replikey import genealogy as gen
from replikey import integrity as integ
from replikey import replicator as rep
from replikey import spreadsim as sim
from replikey.cli import build_parser, dispatch, entry
from replikey.units import KIB, MAX_DIGITS

DATA = Path(__file__).parent / "data"
SAMPLE = str(DATA / "sample_genealogy.txt")

UTC = datetime.timezone.utc
T0 = datetime.datetime(2013, 2, 17, 13, 1, tzinfo=UTC)
V0 = gen.ProvenanceHeader(
    "Demo Live 1.0", datetime.date(2013, 1, 1), "en_US.UTF-8", "stable", "amd64"
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def master_key():
    manifest = rep.ImageManifest(
        version=V0,
        whitelist=frozenset({"/live/filesystem.squashfs"}),
        image_bytes=2_700_000_000,
    )
    return rep.KeyState.from_manifest(manifest, 7_812_500, T0)


def two_key_inventory():
    return (
        rep.VirtualDevice(
            id="sdb",
            bus=rep.Bus.USB,
            capacity_kib=7_812_500,
            contents=master_key(),
            is_boot_source=True,
        ),
        rep.VirtualDevice(id="sdc", bus=rep.Bus.USB, capacity_kib=7_812_500),
        rep.VirtualDevice(
            id="sda", bus=rep.Bus.INTERNAL, capacity_kib=488_281_250, foreign_data=True
        ),
    )


@pytest.fixture
def inventory_file(tmp_path):
    path = tmp_path / "inventory.json"
    path.write_text(rep.inventory_to_json(two_key_inventory()))
    return str(path)


# ---------------------------------------------------------------------------
# genealogy subcommands


def test_stats_sample_first_line(capsys):
    code, out, err = run(capsys, "genealogy-stats", SAMPLE)
    assert code == 0
    assert out.splitlines()[0] == "births=6 spawns=12 upgrades=3"
    assert "provenance_headers=3" in out
    assert "max_embedding_depth=1" in out
    assert err == ""


def test_stats_json(capsys):
    code, out, _ = run(capsys, "genealogy-stats", SAMPLE, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["births"] == 6
    assert doc["spawns"] == 12
    assert doc["upgrades"] == 3
    assert doc["first_event"] == "2013-02-17 13:01:38+00:00"


def test_parse_canonical_fixed_point(capsys, tmp_path):
    code, out1, _ = run(capsys, "genealogy-parse", SAMPLE)
    assert code == 0
    once = tmp_path / "once.txt"
    once.write_text(out1)
    code, out2, _ = run(capsys, "genealogy-parse", str(once))
    assert code == 0
    assert out1 == out2


def test_parse_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, err = run(capsys, "genealogy-parse", str(empty))
    assert (code, out, err) == (0, "", "")


def test_parse_error_names_file_and_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p one - two - three\nx what\n")
    code, out, err = run(capsys, "genealogy-parse", str(bad))
    assert code == 1
    assert out == ""
    assert str(bad) in err
    assert "line 1" in err


def test_missing_input_file(capsys):
    code, out, err = run(capsys, "genealogy-parse", "/no/such/file")
    assert code == 1
    assert "cannot read /no/such/file" in err


def test_lint_warning_kept_out_of_output(capsys, tmp_path):
    messy = tmp_path / "messy.txt"
    messy.write_text(
        "p Demo Live 1.0 2013-01-01 en_US.UTF-8 - stable - amd64\n"
        "  i 2013-02-17 13:01:38+00:00 - en_US.UTF-8 - 4023296 -          1\n"
        "  s 2013-02-17 12:00:00+00:00 - en_US.UTF-8 - 4023296 -          1\n"
    )
    code, out, err = run(capsys, "genealogy-parse", str(messy))
    assert code == 0
    assert "warning:" in err
    assert "warning" not in out
    with pytest.warns(gen.GenealogyWarning):
        gen.parse(out)


def test_output_flag(capsys, tmp_path):
    out_file = tmp_path / "canon.txt"
    code, out, _ = run(capsys, "genealogy-parse", SAMPLE, "-o", str(out_file))
    assert code == 0
    assert out == ""
    code, stdout_text, _ = run(capsys, "genealogy-parse", SAMPLE)
    assert out_file.read_text() == stdout_text


def test_no_output_file_on_failure(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("\tq\n")
    out_file = tmp_path / "never.txt"
    code, _, _ = run(capsys, "genealogy-parse", str(bad), "-o", str(out_file))
    assert code == 1
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# usage errors


def test_usage_errors_exit_two(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()
    assert dispatch(["sim-room"]) == 2  # --n missing
    capsys.readouterr()
    assert dispatch(["sim-room", "--n", "8", "--bandwidth", "fast"]) == 2
    capsys.readouterr()
    assert dispatch(["trust-sim", "--population", "4", "--meetings", "1"]) == 2
    capsys.readouterr()


# An exponent that Fraction would expand into a billion-digit integer.
_STALL = "1e999999999"


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["sim-room", "--n", "4", "--bandwidth", _STALL],
            f"replikey sim-room: error: argument --bandwidth: value: "
            f"not an exact number: '{_STALL}'",
        ),
        (
            ["clone-plan", "--inventory", "{inventory}", "--ratio", "1e-999999999"],
            "replikey clone-plan: error: argument --ratio: value: "
            "not an exact number: '1e-999999999'",
        ),
    ],
)
def test_oversize_exponent_flag_exits_two_at_once(inventory_file, argv, line):
    done = _python_m_replikey(*(a.format(inventory=inventory_file) for a in argv), timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert [ln for ln in done.stderr.splitlines() if "error" in ln] == [line]
    assert done.stderr.endswith(line + "\n")


# each count flag, with the other flags its command requires
_COUNT_FLAGS = [
    ("--n", ["sim-room"]),
    ("--seeds", ["sim-room", "--n", "5"]),
    ("--ports", ["sim-room", "--n", "5"]),
    ("--population", ["trust-sim", "--meetings", "5", "--protocol", "random-draw"]),
    ("--tampered", ["trust-sim", "--population", "5", "--meetings", "5",
                    "--protocol", "random-draw"]),
    ("--meetings", ["trust-sim", "--population", "5", "--protocol", "random-draw"]),
]


@pytest.mark.parametrize("spelling", ["1_000", "+5", " 5 ", "٥", "5.0", "0x5", ""])
@pytest.mark.parametrize("flag, argv", _COUNT_FLAGS)
def test_count_flags_take_only_ascii_digits(capsys, spelling, flag, argv):
    """A count flag is read in the text grammar of a log line's counts,
    not by ``int``, which takes underscores, a plus sign, spaces and
    other scripts' digits."""
    code, out, err = run(capsys, *argv, f"{flag}={spelling}")
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: argument {flag}: expected an integer in fewer than {MAX_DIGITS} ASCII digits,"
        f" got {spelling!r}\n"
    )


@pytest.mark.parametrize("flag, argv", _COUNT_FLAGS)
def test_count_flags_refuse_a_negative_or_oversize_count_as_usage(capsys, flag, argv):
    for value, shown in (
        ("-1", "value: expected at least 0, got -1\n"),
        ("9" * MAX_DIGITS, f"expected an integer in fewer than {MAX_DIGITS} ASCII digits,"
                           f" got '{'9' * 76}...\n"),
    ):
        code, out, err = run(capsys, *argv, f"{flag}={value}")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: {shown}")


def test_sim_flag_defaults_are_the_config_defaults():
    """sim-room and the clone flags restate no default of SimConfig."""
    from replikey.cli import build_parser

    args = build_parser().parse_args(["sim-room", "--n", "7"])
    config = sim.SimConfig(
        n_participants=7,
        seeds=args.seeds,
        ports_per_host=args.ports,
        image_bytes=int(args.image_gb * 10**9),
        bandwidth_mb_s=args.bandwidth,
        setup_delay_s=args.setup_s,
    )
    assert config == sim.SimConfig(n_participants=7)
    clone = build_parser().parse_args(["clone-plan", "--inventory", "x"])
    assert (clone.bandwidth, clone.ratio) == (config.bandwidth_mb_s, config.upgrade_ratio)


def test_clone_exec_requires_timestamp(capsys, inventory_file):
    code, _, _ = run(capsys, "clone-exec", "--inventory", inventory_file)
    assert code == 2
    code, _, _ = run(
        capsys, "clone-exec", "--inventory", inventory_file, "--at", "yesterday"
    )
    assert code == 2
    code, _, _ = run(
        capsys,
        "clone-exec",
        "--inventory",
        inventory_file,
        "--at",
        "2013-02-17 13:11:38",  # no offset
    )
    assert code == 2


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_entry_is_wired(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["replikey", "--help"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    capsys.readouterr()


def _python_m_replikey(*argv, timeout=60):
    """Run the CLI in a fresh interpreter, outside pytest's warning capture.

    A value that stalls the CLI fails the test after ``timeout`` seconds."""
    package_root = str(Path(replikey.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "replikey", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_python_m_replikey_runs_the_cli(capsys):
    code, expected, _ = run(capsys, "genealogy-stats", SAMPLE)
    assert code == 0
    done = _python_m_replikey("genealogy-stats", SAMPLE)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


@pytest.mark.parametrize(
    "subcommand",
    [
        "genealogy-parse",
        "genealogy-stats",
        "manifest --inventory",
        "sim-redeploy --config",
        "verify --inventory {inventory} --reference",
    ],
)
def test_input_not_utf8_is_one_error_line(capsys, tmp_path, inventory_file, subcommand):
    path = tmp_path / "latin1.txt"
    path.write_bytes("p D\xe9mo Live 1.0 2013-01-01\n".encode("latin-1"))
    argv = subcommand.format(inventory=inventory_file).split()
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (1, "", f"error: {path}: not valid UTF-8\n")


# ---------------------------------------------------------------------------
# simulations


def test_sim_room_sixty_machine_numbers(capsys):
    code, out, _ = run(
        capsys,
        "sim-room",
        "--n", "60",
        "--ports", "1",
        "--image-gb", "2.7",
        "--bandwidth", "4.5",
        "--setup-s", "300",
        "--count-only",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == 6
    assert doc["makespan_s"] == 5400.0
    assert doc["amortized_mb_s"] == 29.5


def test_sim_room_csv(capsys):
    code, out, _ = run(capsys, "sim-room", "--n", "8", "--count-only", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "round,seeded_count,cumulative_bytes"
    assert lines[1] == "1,2,2700000000"
    assert lines[-1].startswith("3,8,")


def test_sim_room_byte_identical(capsys):
    args = ("sim-room", "--n", "16", "--ports", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sim_redeploy(capsys, tmp_path):
    config = tmp_path / "redeploy.json"
    config.write_text(
        json.dumps(
            {
                "n_participants": 60,
                "releases": [
                    {
                        "time_s": 0,
                        "version": "Demo Live 1.1 2013-06-01 en_US.UTF-8 - stable - amd64",
                    }
                ],
            }
        )
    )
    code, out, _ = run(capsys, "sim-redeploy", "--config", str(config))
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == 6
    assert doc["makespan_s"] == 4680.0


def test_sim_redeploy_without_releases_fails(capsys, tmp_path):
    config = tmp_path / "empty.json"
    config.write_text('{"n_participants": 8}')
    code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
    assert code == 1
    assert str(config) in err
    assert out == ""


_V11 = "Demo Live 1.1 2013-06-01 en_US.UTF-8 - stable - amd64"


@pytest.mark.parametrize(
    "release, problem",
    [
        ({"time_s": 0}, "missing field 'version'"),
        ({"version": _V11}, "missing field 'time_s'"),
        (_V11, f"expected an object, got {_V11!r}"),
        ({"time_s": 0, "version": _V11, "note": 1}, "unknown field 'note'"),
    ],
)
def test_sim_redeploy_bad_release_names_it(capsys, tmp_path, release, problem):
    good = {"time_s": 0, "version": _V11}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_participants": 4, "releases": [good, release]}))
    code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err == f"error: {config}: releases[1]: {problem}\n"


@pytest.mark.parametrize(
    "field",
    ["bandwidth_mb_s", "setup_delay_s", "upgrade_ratio", "horizon_s", "releases[0].time_s"],
)
def test_sim_redeploy_zero_denominator_names_field(capsys, tmp_path, field):
    """Neither a zero denominator, nor an exponent too large to expand, nor
    a boolean, nor a spelling that only some Python versions read is a
    number; each is refused naming the field."""
    for value in ("1/0", _STALL, True, "9 / 2", "1_0"):
        doc = {"n_participants": 4, "releases": [{"time_s": 0, "version": _V11}]}
        if field == "releases[0].time_s":
            doc["releases"][0]["time_s"] = value
        else:
            doc[field] = value
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        if value == _STALL:
            done = _python_m_replikey("sim-redeploy", "--config", str(config), timeout=10)
            code, out, err = done.returncode, done.stdout, done.stderr
        else:
            code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == f"error: {config}: {field}: not an exact number: {value!r}\n"


_GOOD_RELEASES = [{"time_s": 0, "version": _V11}]
_V11_BAD_MONTH = _V11.replace("2013-06-01", "2013-13-01")


@pytest.mark.parametrize(
    "doc, problem",
    [
        ({"n_participants": "x"}, "n_participants: expected an integer, got 'x'"),
        ({"n_participants": 4, "seeds": 2.5}, "seeds: expected an integer, got 2.5"),
        (
            {"n_participants": 4, "ports_per_host": True},
            "ports_per_host: expected an integer, got True",
        ),
        (
            {"n_participants": 4, "image_bytes": "2700000000"},
            "image_bytes: expected an integer, got '2700000000'",
        ),
        (
            {"n_participants": 4, "capacity_kib": None},
            "capacity_kib: expected an integer, got None",
        ),
        pytest.param(
            {"n_participants": 4, "releases": 5},
            "releases: expected a list, got 5",
            id="doc5-releases: expected a list",
        ),
        ([], "expected a JSON object"),
        ({"releases": _GOOD_RELEASES}, "missing field 'n_participants'"),
        (
            {"n_participants": 4, "base_version": 5},
            "base_version: expected a string, got 5",
        ),
        (
            {"n_participants": 4, "releases": [{"time_s": 0, "version": 5}]},
            "releases[0].version: expected a string, got 5",
        ),
        (
            {"n_participants": 4, "start_time": 5},
            "start_time: expected a string, got 5",
        ),
        (
            {"n_participants": 4, "track_genealogies": "no"},
            "track_genealogies: expected true or false, got 'no'",
        ),
        ({"n_participants": 4, "port_per_host": 3}, "unknown field 'port_per_host'"),
        ({"n_participants": 4, "rng_seed": 7}, "unknown field 'rng_seed'"),
        (
            {"n_participants": 4, "image_bytes": 9_000_000_000},
            "image_bytes: 9000000000 bytes exceed capacity_kib 7812500 (8000000000 bytes)",
        ),
        (
            {"n_participants": 4, "image_bytes": 7_000_000_000},
            "image_bytes: 7000000000 bytes plus upgrade_ratio 4/5 of them to stage an "
            "upgrade (12600000000 bytes) exceed capacity_kib 7812500 (8000000000 bytes)",
        ),
        (
            {"n_participants": 4, "base_version": "x"},
            "base_version: expected 3 ' - '-separated fields, got 1",
        ),
        (
            {"n_participants": 4, "releases": [{"time_s": 0, "version": _V11_BAD_MONTH}]},
            "releases[0].version: month must be in 1..12",
        ),
        (
            {"n_participants": 4, "start_time": "garbage"},
            "start_time: Invalid isoformat string: 'garbage'",
        ),
        ({"n_participants": 4, "horizon_s": -1}, "horizon_s must be >= 0"),
    ],
)
def test_sim_redeploy_hostile_field_names_it(capsys, tmp_path, doc, problem):
    if isinstance(doc, dict):
        doc = {"releases": _GOOD_RELEASES, **doc}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err == f"error: {config}: {problem}\n"


def test_sim_redeploy_staging_refusal_waits_for_a_round(capsys, tmp_path):
    """The staging refusal waits for a round, so a horizon that ends
    before the first one leaves the run valid."""
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "n_participants": 4,
                "image_bytes": 7_000_000_000,
                "releases": _GOOD_RELEASES,
                "horizon_s": 100,
            }
        )
    )
    code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
    assert (code, err) == (0, "")
    assert json.loads(out)["rounds"] == 0


def test_sim_redeploy_count_only_needs_no_list_per_key(capsys, tmp_path):
    n = 10**12
    for ports in (1, 3):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "n_participants": n,
                    "ports_per_host": ports,
                    "track_genealogies": False,
                    "releases": _GOOD_RELEASES,
                }
            )
        )
        code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["version_coverage"] == {_V11: n}
        assert doc["rounds"] == sim.rounds_closed_form(n, 1, ports)
        assert doc["per_round_seeded"][-1] == n
        assert doc["genealogies"] == {}


def test_clock_past_year_9999_is_one_error_line(capsys, tmp_path):
    code, out, err = run(capsys, "sim-room", "--n", "4", "--setup-s", "1e15")
    assert (code, out) == (1, "")
    assert err == "error: simulated time 1000000000000600 s after start_time is past year 9999\n"
    late = {"time_s": 300_000_000_000, "version": _V11}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_participants": 4, "releases": [*_GOOD_RELEASES, late]}))
    code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {config}: simulated time ")
    assert err.endswith(" s after start_time is past year 9999\n")


def test_count_only_refuses_the_same_clock(capsys, tmp_path):
    """Tracking genealogies or not, a run refuses the same clocks with
    the same line."""
    room = ("sim-room", "--n", "4", "--setup-s", "1e15")
    tracked = run(capsys, *room)
    assert tracked[0] == 1
    assert run(capsys, *room, "--count-only") == tracked
    late = {"time_s": 10**15, "version": _V11}
    for track in (True, False):
        config = tmp_path / f"{track}.json"
        doc = {"n_participants": 4, "releases": [*_GOOD_RELEASES, late]}
        config.write_text(json.dumps({**doc, "track_genealogies": track}))
        code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {config}: simulated time 1000000000000000 s after start_time"
            " is past year 9999\n"
        )


_LONG = 10**4000  # 4,001 digits: within the JSON integer limit, too long to print whole


@pytest.mark.parametrize(
    "argv, doc, field",
    [
        pytest.param(["sim-room", "--n", "4", "--image-gb", "1e4286"], None, "image_bytes",
                     id="room-image-above-capacity"),
        pytest.param(["sim-room", "--n", "4", "--bandwidth", "1e-4290"], None, "start_time",
                     id="room-clock"),
        pytest.param(None, {"bandwidth_mb_s": "1e-4290"}, "start_time", id="clock"),
        pytest.param(
            None,
            {"image_bytes": _LONG, "capacity_kib": _LONG, "bandwidth_mb_s": "1e-4000"},
            "start_time",
            id="clock-of-long-sizes",
        ),
        pytest.param(None, {"image_bytes": 2 * _LONG, "capacity_kib": _LONG // KIB},
                     "image_bytes", id="image-above-capacity"),
        pytest.param(
            None,
            {
                "image_bytes": 9 * 10**4298,
                "capacity_kib": 10**4296,
                "upgrade_ratio": "9" * 2000 + "/" + "1" + "0" * 2000,
            },
            "upgrade_ratio",
            id="staging",
        ),
    ],
)
def test_whole_integers_in_diagnostics_stay_one_short_line(capsys, tmp_path, argv, doc, field):
    """A refusal that shows sizes or a clock shows each integer at most 80
    characters long, so its line stays short and keeps its wording."""
    if argv is None:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_participants": 4, "releases": _GOOD_RELEASES, **doc}))
        argv = ["sim-redeploy", "--config", str(config)]
    for count_only in ([], ["--count-only"]) if argv[0] == "sim-room" else ([],):
        code, out, err = run(capsys, *argv, *count_only)
        assert (code, out) == (1, "")
        message = err.removeprefix("error: ").removeprefix(f"{argv[-1]}: ")
        assert message.endswith("\n") and "\n" not in message[:-1]
        assert len(message) < 300
        assert field in message


def test_tracked_run_over_the_key_limit_is_refused_at_once(capsys, tmp_path):
    """A tracked run of more keys than it can hold is refused before any
    key is built; counting the same keys runs."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_participants": 10**4298, "releases": _GOOD_RELEASES}))
    start = time.perf_counter()
    code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        f"error: {config}: n_participants: a 4299-digit integer keys exceed the"
        f" {sim._MAX_TRACKED_KEYS} a tracked run holds; set track_genealogies: false"
        " (--count-only)\n"
    )
    code, out, err = run(capsys, "sim-room", "--n", str(sim._MAX_TRACKED_KEYS + 1))
    assert (code, out) == (1, "")
    assert "n_participants" in err and "--count-only" in err
    code, out, err = run(capsys, "sim-room", "--n", str(10**12), "--count-only")
    assert (code, err) == (0, "")


def test_sim_redeploy_bad_json_names_line(capsys, tmp_path):
    config = tmp_path / "broken.json"
    config.write_text('{"n_participants": 8,\n  oops\n}')
    code, _, err = run(capsys, "sim-redeploy", "--config", str(config))
    assert code == 1
    assert "line 2" in err


# ---------------------------------------------------------------------------
# replication


def test_clone_plan_fresh(capsys, inventory_file):
    code, out, _ = run(capsys, "clone-plan", "--inventory", inventory_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "fresh"
    assert doc["source"] == "sdb"
    assert doc["target"] == "sdc"
    assert doc["duration_s"] == 600.0
    assert doc["bytes_total"] == 2_700_000_000


def test_clone_exec_then_upgrade_plan(capsys, inventory_file, tmp_path):
    code, out, _ = run(
        capsys,
        "clone-exec",
        "--inventory", inventory_file,
        "--at", "2013-02-17 13:11:38+00:00",
    )
    assert code == 0
    after = tmp_path / "after.json"
    after.write_text(out)
    seeded = rep.inventory_from_json(out)
    child = next(d for d in seeded if d.id == "sdc").contents
    assert child is not None
    assert child.version == V0

    code, out, _ = run(capsys, "clone-plan", "--inventory", str(after), "--mode", "upgrade")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "upgrade"
    assert doc["duration_s"] == 480.0
    assert doc["bytes_total"] == 2_160_000_000


def test_clone_exec_byte_identical(capsys, inventory_file):
    args = (
        "clone-exec",
        "--inventory", inventory_file,
        "--at", "2013-02-17 13:11:38+00:00",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_refusal_names_rule(capsys, tmp_path):
    extra = two_key_inventory() + (
        rep.VirtualDevice(id="sdd", bus=rep.Bus.USB, capacity_kib=7_812_500),
    )
    path = tmp_path / "three.json"
    path.write_text(rep.inventory_to_json(extra))
    code, out, err = run(capsys, "clone-plan", "--inventory", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: not-two-usb:")


# ---------------------------------------------------------------------------
# integrity


def test_manifest_output(capsys, inventory_file):
    code, out, _ = run(capsys, "manifest", "--inventory", inventory_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "boot=/live/filesystem.squashfs"
    assert lines[0].endswith("  /live/filesystem.squashfs")
    assert len(lines[0][:64]) == 64
    back = integ.manifest_from_text(out)
    assert back.boot_pointer == "/live/filesystem.squashfs"


def test_verify_pass(capsys, inventory_file, tmp_path):
    code, man_text, _ = run(capsys, "manifest", "--inventory", inventory_file)
    ref = tmp_path / "ref.txt"
    ref.write_text(man_text)
    code, out, _ = run(
        capsys, "verify", "--inventory", inventory_file, "--reference", str(ref)
    )
    assert code == 0
    assert out == "verdict=pass\n"


def test_verify_fail_still_exits_zero(capsys, tmp_path):
    key = master_key()
    ref = tmp_path / "ref.txt"
    ref.write_text(integ.manifest_to_text(integ.build_manifest(key)))
    bad = integ.tamper(
        key, integ.TamperAction(integ.TamperKind.SHADOW_BOOT, "/evil/sys")
    )
    inventory = (
        rep.VirtualDevice(
            id="sdb",
            bus=rep.Bus.USB,
            capacity_kib=7_812_500,
            contents=bad,
            is_boot_source=True,
        ),
        rep.VirtualDevice(id="sdc", bus=rep.Bus.USB, capacity_kib=7_812_500),
    )
    inv = tmp_path / "tampered.json"
    inv.write_text(rep.inventory_to_json(inventory))
    code, out, _ = run(
        capsys, "verify", "--inventory", str(inv), "--reference", str(ref)
    )
    assert code == 0
    assert out == "verdict=fail-boot-pointer\noffending_path=/evil/sys\n"


def test_verify_bad_reference_file(capsys, inventory_file, tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("not a manifest\n")
    code, out, err = run(
        capsys, "verify", "--inventory", inventory_file, "--reference", str(ref)
    )
    assert code == 1
    assert str(ref) in err
    assert "line 1" in err


def test_verify_unknown_device(capsys, inventory_file, tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text(integ.manifest_to_text(integ.build_manifest(master_key())))
    for argv in (["verify", "--reference", str(ref)], ["manifest"]):
        for device, problem in (
            ("sdz", "replication: no device 'sdz' in the inventory"),
            ("sdc", "device 'sdc' holds no key"),
        ):
            code, out, err = run(
                capsys, *argv, "--inventory", inventory_file, "--device", device
            )
            assert (code, out, err) == (1, "", f"error: {problem}\n")


@pytest.mark.parametrize("path", ["/boot/a\u2028b.cfg", "/boot/\x85\x0c.cfg", ""])
def test_manifest_of_any_path_is_read_by_verify_or_refused(capsys, tmp_path, path):
    """A system path holding a character ``str.splitlines`` breaks at,
    other than "\\n" and "\\r", gets a manifest that verify reads; an
    empty path is refused where the image is built, so no key holds one."""
    whitelist = frozenset({"/live/filesystem.squashfs", path})
    if not path:
        with pytest.raises(ValueError, match="^whitelist path: expected a non-empty path, got ''$"):
            rep.ImageManifest(version=V0, whitelist=whitelist, image_bytes=2_700_000_000)
        return
    manifest = rep.ImageManifest(version=V0, whitelist=whitelist, image_bytes=2_700_000_000)
    key = rep.KeyState.from_manifest(manifest, 7_812_500, T0)
    assert key.boot_path == path
    inventory = tmp_path / "inv.json"
    device = rep.VirtualDevice("sdb", rep.Bus.USB, 7_812_500, contents=key, is_boot_source=True)
    inventory.write_text(rep.inventory_to_json([device]))
    ref = tmp_path / "ref.txt"
    code, out, err = run(capsys, "manifest", "--inventory", str(inventory), "-o", str(ref))
    assert (code, out, err) == (0, "", "")
    code, out, err = run(capsys, "verify", "--inventory", str(inventory), "--reference", str(ref))
    assert (code, out, err) == (0, "verdict=pass\n", "")


def test_manifest_without_boot_source(capsys, tmp_path):
    inventory = tmp_path / "inv.json"
    inventory.write_text(
        rep.inventory_to_json([rep.VirtualDevice("sdc", rep.Bus.USB, 7_812_500)])
    )
    code, out, err = run(capsys, "manifest", "--inventory", str(inventory))
    assert (code, out) == (1, "")
    assert err == "error: replication: no boot source device in the inventory\n"


def test_trust_sim_cli(capsys):
    args = (
        "trust-sim",
        "--population", "16",
        "--tampered", "2",
        "--meetings", "50",
        "--protocol", "random-draw",
        "--seed", "5",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert set(doc) == {
        "detections",
        "false_negatives",
        "infected_over_time",
        "quarantined",
    }
    assert len(doc["infected_over_time"]) == 51
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    _, out3, _ = run(capsys, *args[:-1], "6")
    assert out1 != out3


# ---------------------------------------------------------------------------
# hostile JSON


def _master_doc():
    return json.loads(rep.inventory_to_json(two_key_inventory()))


def _with(value, *path):
    """The two-key inventory document with the field at ``path`` under
    its first device (the boot source) set to ``value``."""
    doc = _master_doc()
    item = doc["devices"][0]
    for name in path[:-1]:
        item = item[name]
    item[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc, problem",
    [
        pytest.param(
            {"devices": [["x"]]},
            "devices[0]: expected an object, got ['x']",
            id="doc0-devices[0]: expected an object",
        ),
        pytest.param(
            {"devices": {"sdb": {}}},
            "devices: expected a list, got {'sdb': {}}",
            id="doc1-devices: expected a list",
        ),
        (_with([1], "key", "files"), "devices[0].key.files: expected an object, got [1]"),
        (
            _with({"/live/filesystem.squashfs": [1]}, "key", "files"),
            "devices[0].key.files['/live/filesystem.squashfs']: expected an object, got [1]",
        ),
        pytest.param(
            {"devices": [{"id": ["sdb"], "bus": "usb", "capacity_kib": 1}]},
            "devices[0].id: expected a string, got ['sdb']",
            id="doc4-devices[0].id: expected a string",
        ),
        (
            {"devices": [{"id": "sdb", "bus": "usb", "capacity_kib": float("inf")}]},
            "devices[0].capacity_kib: expected an integer, got inf",
        ),
        (
            _with("true", "boot_source"),
            "devices[0].boot_source: expected true or false, got 'true'",
        ),
        (
            _with("false", "foreign_data"),
            "devices[0].foreign_data: expected true or false, got 'false'",
        ),
        (
            _with("false", "key", "compromised"),
            "devices[0].key.compromised: expected true or false, got 'false'",
        ),
        (
            _with("x what\n", "key", "genealogy"),
            "devices[0].key.genealogy: line 1: unknown line tag 'x'",
        ),
        pytest.param(
            {"devices": [{"id": "sdb", "capacity_kib": 1}]},
            "devices[0]: missing field 'bus'",
            id="doc10-missing field 'bus'",
        ),
        ([{"devices": []}], "expected a JSON object"),
        (
            _with("x", "key", "version"),
            "devices[0].key.version: expected 3 ' - '-separated fields, got 1",
        ),
        (
            _with("sys", "key", "files", "/live/filesystem.squashfs", "class"),
            "devices[0].key.files['/live/filesystem.squashfs'].class:"
            " 'sys' is not a valid FileClass",
        ),
        (_with("pci", "bus"), "devices[0].bus: 'pci' is not a valid Bus"),
        (_with("sdc", "id"), "devices[1].id: duplicate device id 'sdc'"),
    ],
)
def test_wrongly_typed_inventory_names_item(capsys, tmp_path, doc, problem):
    path = tmp_path / "inventory.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "manifest", "--inventory", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: {problem}\n"


@pytest.mark.parametrize(
    "device, path, problem",
    [
        (1, ("foriegn_data",), "devices[1]: unknown field 'foriegn_data'"),
        (0, ("key", "compromized"), "devices[0].key: unknown field 'compromized'"),
    ],
)
def test_clone_exec_refuses_a_misspelled_guard(capsys, tmp_path, device, path, problem):
    """A misspelled ``foreign_data`` would let the clone overwrite the
    target unasked, and a misspelled ``compromised`` would drop the tamper
    mark from both keys; each is refused and nothing is written."""
    doc = _master_doc()
    item = doc["devices"][device]
    for name in path[:-1]:
        item = item[name]
    item[path[-1]] = True
    inventory, written = tmp_path / "inventory.json", tmp_path / "after.json"
    inventory.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "clone-exec",
        "--inventory", str(inventory),
        "--at", "2013-02-17 13:11:38+00:00",
        "--output", str(written),
    )
    assert (code, out) == (1, "")
    assert err == f"error: {inventory}: {problem}\n"
    assert not written.exists()


_OVERSIZE = f"an integer of {MAX_DIGITS} digits or more"


@pytest.mark.parametrize(
    "subcommand, field, problem",
    [
        (
            "manifest --inventory",
            "capacity_kib",
            f"devices[0].capacity_kib: expected an integer, got {_OVERSIZE}",
        ),
        (
            "sim-redeploy --config",
            "image_bytes",
            f"image_bytes: expected an integer, got {_OVERSIZE}",
        ),
        (
            "sim-redeploy --config",
            "time_s",
            f"releases[0].time_s: not an exact number: {_OVERSIZE}",
        ),
    ],
)
@pytest.mark.parametrize("digits", [MAX_DIGITS, MAX_DIGITS + 1])
def test_json_integer_too_long_names_its_field(
    capsys, tmp_path, subcommand, field, problem, digits
):
    """A JSON integer of MAX_DIGITS digits or more is refused by the field
    check, naming the field, in the same words on every Python version."""
    if subcommand.startswith("manifest"):
        doc = _master_doc()
        doc["devices"][0][field] = "@"
    else:
        doc = {"n_participants": 4, "releases": [{"time_s": 0, "version": _V11}]}
        (doc["releases"][0] if field == "time_s" else doc)[field] = "@"
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc).replace('"@"', "9" * digits))
    code, out, err = run(capsys, *subcommand.split(), str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: {problem}\n"


def test_sim_room_image_too_large_to_print_names_it(capsys):
    code, out, err = run(capsys, "sim-room", "--n", "4", "--image-gb", "1e4294")
    assert (code, out) == (1, "")
    assert err == f"error: image_bytes: expected an integer, got {_OVERSIZE}\n"


def test_inventory_lint_finding_is_one_warning_line(tmp_path):
    genealogy = _master_doc()["devices"][0]["key"]["genealogy"]
    late_spawn = "s 2013-02-17 12:00:00+00:00 - en_US.UTF-8 - 7812500 -          1\n"
    path = tmp_path / "inventory.json"
    path.write_text(json.dumps(_with(genealogy + late_spawn, "key", "genealogy")))
    done = _python_m_replikey("manifest", "--inventory", str(path))
    assert done.returncode == 0
    assert done.stderr == (
        f"warning: {path}: record: event 1 timestamp 2013-02-17 12:00:00+00:00"
        " precedes 2013-02-17 13:01:00+00:00\n"
    )


@pytest.mark.parametrize("subcommand", ["manifest --inventory", "sim-redeploy --config"])
def test_deeply_nested_json_is_one_error_line(capsys, tmp_path, subcommand):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, *subcommand.split(), str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: JSON document nested too deeply\n"


# Number strings with exponents on and far beyond the reader's size limit;
# none takes long to expand, so a reader that lost the limit fails here
# rather than hangs (the stall rows run in a subprocess instead).
_EXPONENTS = ("1e99999", "-2.5E-99999", "1e4295", "1e4294", "1e-4294", "9/2")

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(_EXPONENTS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _slots(doc):
    """``(container, key)`` for every value inside a JSON document."""
    stack = [doc] if isinstance(doc, (dict, list)) else []
    while stack:
        container = stack.pop()
        keys = list(container) if isinstance(container, dict) else range(len(container))
        for key in keys:
            yield container, key
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])


@st.composite
def _hostile_texts(draw, valid):
    """A valid document with a few values replaced or removed, any JSON
    value at all, or arbitrary text."""
    doc = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_json_values)
    choice = draw(st.sampled_from(("mutated", "value", "text")))
    if choice == "text":
        return draw(st.text(max_size=20))
    return json.dumps(doc if choice == "mutated" else draw(_json_values))


def _dispatch_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue()


_FUZZ = settings(max_examples=150, deadline=None)


@_FUZZ
@given(_hostile_texts(_master_doc()))
def test_fuzzed_inventory_exits_cleanly(tmp_path_factory, text):
    base = tmp_path_factory.mktemp("fuzz")
    inventory, reference = base / "inventory.json", base / "ref.txt"
    inventory.write_text(text)
    reference.write_text(integ.manifest_to_text(integ.build_manifest(master_key())))
    for argv in (
        ["manifest", "--inventory", str(inventory)],
        ["verify", "--inventory", str(inventory), "--reference", str(reference)],
        ["clone-plan", "--inventory", str(inventory)],
    ):
        code, err = _dispatch_quietly(argv)
        assert code in (0, 1, 2)
        assert err.count("\n") <= 1


@_FUZZ
@given(
    _hostile_texts(
        {
            "n_participants": 6,
            "seeds": 1,
            "ports_per_host": 2,
            "image_bytes": 2_700_000_000,
            "capacity_kib": 7_812_500,
            "bandwidth_mb_s": "9/2",
            "setup_delay_s": 300,
            "upgrade_ratio": 0.8,
            "horizon_s": None,
            "base_version": V0.descriptor(),
            "start_time": "2013-02-17 13:01:00+00:00",
            "track_genealogies": True,
            "releases": [{"time_s": 0, "version": _V11}, {"time_s": 900, "version": _V11}],
        }
    )
)
def test_fuzzed_sim_config_exits_cleanly(tmp_path_factory, text):
    config = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    config.write_text(text)
    code, err = _dispatch_quietly(["sim-redeploy", "--config", str(config)])
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1


@st.composite
def _mutated_lines(draw, valid: bytes):
    """``valid`` with a few lines dropped, repeated, swapped, indented,
    edited or replaced by arbitrary bytes (so not always UTF-8), or
    arbitrary bytes outright."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    lines = valid.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "repeat", "swap", "indent", "edit", "replace")))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "indent":
            lines[i] = b"  " + lines[i]
        elif op == "edit":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.binary(min_size=1, max_size=3)) + lines[i][at + 1 :]
        else:
            lines[i] = draw(st.binary(max_size=20)) + b"\n"
    return b"".join(lines)


def _assert_one_diagnostic(code, err):
    lines = err.splitlines()
    assert code in (0, 1, 2)
    assert sum(line.startswith("error: ") for line in lines) <= 1
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), err


@_FUZZ
@given(_mutated_lines(Path(SAMPLE).read_bytes()))
def test_fuzzed_genealogy_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "genealogy.txt"
    path.write_bytes(data)
    for subcommand in ("genealogy-parse", "genealogy-stats"):
        _assert_one_diagnostic(*_dispatch_quietly([subcommand, str(path)]))


@_FUZZ
@given(_mutated_lines(integ.manifest_to_text(integ.build_manifest(master_key())).encode()))
def test_fuzzed_manifest_exits_cleanly(tmp_path_factory, data):
    base = tmp_path_factory.mktemp("fuzz")
    inventory, reference = base / "inventory.json", base / "ref.txt"
    inventory.write_text(rep.inventory_to_json(two_key_inventory()))
    reference.write_bytes(data)
    argv = ["verify", "--inventory", str(inventory), "--reference", str(reference)]
    _assert_one_diagnostic(*_dispatch_quietly(argv))


# ---------------------------------------------------------------------------
# the genealogy rules at every entry: --at, a config's start_time, a key's locale


@pytest.mark.parametrize("at", ["2013-02-17 13:11:38.5+00:00", "2013-02-17 13:11:38+00:00:30"])
def test_at_outside_the_timestamp_rule_is_a_usage_error(capsys, inventory_file, tmp_path, at):
    out = tmp_path / "out.json"
    code, stdout, err = run(
        capsys, "clone-exec", "--inventory", inventory_file, "--at", at, "-o", str(out)
    )
    assert (code, stdout) == (2, "")
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].count("--at") == 1
    assert "whole seconds at a whole-minute UTC offset" in errors[0]
    assert not out.exists()


def test_at_in_t_form_is_accepted(capsys, inventory_file):
    code, out, err = run(
        capsys, "clone-exec", "--inventory", inventory_file, "--at", "2013-02-17T13:11:38+00:00"
    )
    assert (code, err) == (0, "")
    assert "2013-02-17 13:11:38+00:00" in json.loads(out)["devices"][1]["key"]["genealogy"]


@pytest.mark.parametrize("start", ["2013-01-01 00:00:00.5+00:00", "2013-01-01 00:00:00+00:00:30"])
@pytest.mark.parametrize("tracked", [True, False])
def test_start_time_outside_the_timestamp_rule_fails_in_both_modes(
    capsys, tmp_path, start, tracked
):
    config = tmp_path / "c.json"
    doc = {"n_participants": 4, "releases": _GOOD_RELEASES, "start_time": start}
    config.write_text(json.dumps({**doc, "track_genealogies": tracked}))
    code, out, err = run(capsys, "sim-redeploy", "--config", str(config))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {config}: start_time: ") and err.count("\n") == 1


_LOCALES = st.text(st.sampled_from(["a", "Z", "_", ".", "8", "-", " ", "\n", "\r", "\t", "é"]),
                   max_size=6) | st.sampled_from(
    ["", " - ", "-x", "x-", "en US", "x - y", "a\nb", "fr_FR.UTF-8", "ü", " ", "x y"]
)


@settings(max_examples=150, deadline=None)
@given(_LOCALES)
def test_a_key_locale_is_refused_on_reading_or_logged(tmp_path_factory, locale):
    """A key's locale the log cannot hold is refused when the inventory is
    read, naming it; any other is one clone-exec writes into the log."""
    text = json.dumps(_with(locale, "key", "locale"))
    path = tmp_path_factory.mktemp("locale") / "inventory.json"
    path.write_text(text)
    plan_code, plan_err = _dispatch_quietly(["clone-plan", "--inventory", str(path)])
    exec_argv = ["clone-exec", "--inventory", str(path), "--at", "2013-02-17 13:11:38+00:00"]
    exec_code, exec_err = _dispatch_quietly(exec_argv)
    try:
        rep.inventory_from_json(text)
    except ValueError as exc:
        assert "locale" in str(exc)
        assert (plan_code, exec_code) == (1, 1)
        assert plan_err == exec_err == f"error: {path}: {exc}\n"
    else:
        assert (plan_code, exec_code, exec_err) == (0, 0, "")


def test_share_prefix_without_a_slash_is_refused(capsys, tmp_path):
    path = tmp_path / "inventory.json"
    path.write_text(json.dumps(_with("share", "key", "share_prefix")))
    code, out, err = run(capsys, "manifest", "--inventory", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: devices[0].key: share_prefix must end with '/': 'share'\n"


@pytest.mark.parametrize(
    "doc, problem",
    [
        (_with("en US", "key", "locale"), "devices[0].key: locale must be a single token: 'en US'"),
        (_with(0, "key", "capacity_kib"), "devices[0].key: capacity_kib: expected at least 1, got 0"),
        (_with(0, "key", "image_bytes"), "devices[0].key: image_bytes: expected at least 1, got 0"),
        (_with("/x", "key", "boot_path"), "devices[0].key: boot_path '/x' is not a file on the key"),
        (
            _with({"/a": {"size": -1, "class": "personal"}}, "key", "files"),
            "devices[0].key.files['/a']: size_bytes: expected at least 0, got -1",
        ),
        (_with(0, "capacity_kib"), "devices[0]: capacity_kib: expected at least 1, got 0"),
        (_with("", "id"), "devices[0]: device id must be non-empty"),
    ],
)
def test_an_inventory_value_its_type_refuses_names_the_item(capsys, tmp_path, doc, problem):
    path = tmp_path / "inventory.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "clone-plan", "--inventory", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: {problem}\n"


@pytest.mark.parametrize("command", ["manifest", "clone-plan", "clone-exec"])
def test_an_empty_file_path_in_an_inventory_is_one_error_line(capsys, tmp_path, command):
    doc = _master_doc()
    doc["devices"][0]["key"]["files"][""] = {"size": 1, "class": "personal"}
    path = tmp_path / "inventory.json"
    path.write_text(json.dumps(doc))
    out_file = tmp_path / "out"
    argv = [command, "--inventory", str(path), "-o", str(out_file)]
    if command == "clone-exec":
        argv += ["--at", _AT.isoformat(" ")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: devices[0].key: file path: expected a non-empty path, got ''\n"
    assert not out_file.exists()


def test_long_integers_in_capacity_texts_stay_one_short_line(capsys, tmp_path):
    """The files-over-capacity text of a key shows long integers by their
    length."""
    doc = _with({"/live/filesystem.squashfs": {"size": 10**4298, "class": "system"},
                 "/b": {"size": 10**4298, "class": "personal"}}, "key", "files")
    doc["devices"][0]["key"]["capacity_kib"] = doc["devices"][0]["capacity_kib"] = 10**4295
    path = tmp_path / "inventory.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "manifest", "--inventory", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: files total a 4299-digit integer bytes exceed capacity")
    assert err.count("\n") == 1 and len(err) < 300


def test_long_capacity_in_a_log_line_stays_one_short_line(capsys, tmp_path):
    path = tmp_path / "log.txt"
    path.write_text(f"i 2013-02-17 13:01:38+00:00 - fr_FR.UTF-8 - -{'9' * 4000} - 1\n")
    code, out, err = run(capsys, "genealogy-stats", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}: line 1: capacity: expected at least 1, got a 4000-digit integer\n"
    )


# ---------------------------------------------------------------------------
# output bytes: a file and standard output get the same pieces


_MULTI_RELEASE = {
    "n_participants": 24,
    "ports_per_host": 2,
    "releases": [
        {"time_s": 0, "version": _V11},
        {"time_s": 900, "version": "Demo Live 1.2 2013-07-01 de_DE.UTF-8 - stable - amd64"},
        {"time_s": 40_000, "version": "Démo Live 1.3 2013-08-01 ja_JP.UTF-8 - stable - amd64"},
    ],
}
_AT = datetime.datetime(2013, 2, 17, 13, 11, 38, tzinfo=UTC)


def _output_case(name, tmp_path, inventory_file):
    """``name``'s argv, and the library's string for its output (None
    for an output only the CLI formats)."""
    if name == "genealogy-parse":  # a provenance label in non-ASCII UTF-8
        text = Path(SAMPLE).read_text().replace("Debian Live", "Débian Live 日本語")
        path = tmp_path / "utf8.txt"
        path.write_bytes(text.encode("utf-8"))
        return [name, str(path)], gen.serialize(gen.parse(text))
    if name.startswith("genealogy-stats"):
        return ["genealogy-stats", SAMPLE, "--format", name.rsplit("-", 1)[1]], None
    if name == "clone-plan":
        return [name, "--inventory", inventory_file], None
    if name == "clone-exec":
        inventory = two_key_inventory()
        plan = rep.plan_clone(inventory[0], inventory[1], sim.SimConfig.bandwidth_mb_s)
        expected = rep.inventory_to_json(rep.execute_plan(plan, inventory, _AT))
        return [name, "--inventory", inventory_file, "--at", _AT.isoformat(" ")], expected
    if name.startswith("sim-room"):
        argv = ["sim-room", "--n", "60", "--ports", "3", "--format", name.rsplit("-", 1)[1]]
        config = sim.SimConfig(n_participants=60, ports_per_host=3)
        return argv, sim.sim_result_to_json(sim.run_room(config)) if "json" in name else None
    if name == "sim-redeploy":
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(_MULTI_RELEASE))
        result = sim.run_redeployment(sim.sim_config_from_json(path.read_text()))
        return [name, "--config", str(path)], sim.sim_result_to_json(result)
    if name == "trust-sim":
        config = integ.TrustSimConfig(32, 3, 200, integ.Protocol.RANDOM_DRAW, 7)
        argv = [name, "--population", "32", "--tampered", "3", "--meetings", "200",
                "--protocol", "random-draw", "--seed", "7"]
        return argv, integ.trust_sim_result_to_json(integ.run_trust_sim(config))
    manifest = integ.manifest_to_text(integ.build_manifest(master_key()))
    if name == "manifest":
        return [name, "--inventory", inventory_file], manifest
    reference = tmp_path / "reference.txt"
    reference.write_text(manifest)
    return [name, "--inventory", inventory_file, "--reference", str(reference)], None


_OUTPUT_NAMES = [
    "genealogy-parse", "genealogy-stats-text", "genealogy-stats-json", "clone-plan",
    "clone-exec", "sim-room-json", "sim-room-csv", "sim-redeploy", "trust-sim",
    "manifest", "verify",
]
_JSON_OUTPUTS = {
    "genealogy-stats-json", "clone-plan", "clone-exec", "sim-room-json", "sim-redeploy",
    "trust-sim",
}


@pytest.mark.parametrize("name", _OUTPUT_NAMES)
def test_file_and_stdout_bytes_are_the_library_string(capsysbinary, tmp_path, inventory_file, name):
    argv, expected = _output_case(name, tmp_path, inventory_file)
    assert dispatch(argv) == 0
    stdout, err = capsysbinary.readouterr()
    out_file = tmp_path / "out"
    assert dispatch([*argv, "-o", str(out_file)]) == 0
    assert capsysbinary.readouterr() == (b"", err)
    assert out_file.read_bytes() == stdout
    if expected is not None:
        assert stdout == expected.encode("utf-8")
    if name == "genealogy-parse":
        assert "p Sage 5.6 Débian Live 日本語".encode("utf-8") in stdout


def test_every_handler_returns_a_list_of_str(tmp_path, inventory_file):
    """Every subcommand's handler returns its output as a list of str
    pieces, never a bare str, which ``writelines`` would write one
    character at a time; a JSON output is ``json.dumps``'s canonical form."""
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    covered = set()
    for name in _OUTPUT_NAMES:
        argv, _ = _output_case(name, tmp_path, inventory_file)
        args = parser.parse_args(argv)
        pieces = args.handler(args)
        assert type(pieces) is list and all(type(p) is str for p in pieces), name
        if name in _JSON_OUTPUTS:
            out = "".join(pieces)
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", name
        covered.add(argv[0])
    assert covered == set(subs.choices)


@pytest.mark.parametrize("name", ["clone-exec", "sim-room", "verify"])
def test_a_handler_failing_after_its_input_is_read_writes_no_file(
    capsys, tmp_path, inventory_file, name
):
    if name == "clone-exec":  # the inventory reads, then the two-USB rule refuses it
        path = tmp_path / "three.json"
        spare = rep.VirtualDevice(id="sdd", bus=rep.Bus.USB, capacity_kib=7_812_500)
        path.write_text(rep.inventory_to_json(two_key_inventory() + (spare,)))
        argv = [name, "--inventory", str(path), "--at", _AT.isoformat(" ")]
    elif name == "sim-room":  # the room runs until its clock passes year 9999
        argv = [name, "--n", "4", "--setup-s", "1e15"]
    else:  # both files read, then the device is not in the inventory
        reference = tmp_path / "reference.txt"
        reference.write_text(integ.manifest_to_text(integ.build_manifest(master_key())))
        argv = [name, "--inventory", inventory_file, "--reference", str(reference),
                "--device", "sdz"]
    out_file = tmp_path / "never.txt"
    code, out, err = run(capsys, *argv, "-o", str(out_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_file.exists()


def _emit_cases():
    group, bound = cli._GROUP, cli._GROUP_CHARS
    tiny = ["{", "\n  ", '"key-0100"', ": ", "1", ",\n    "]
    return {
        "empty": [],
        "tiny": tiny * (group + 5),  # several runs, the last one short
        "large-between-small": ["a"] * (group - 3) + ["b" * (2 << 20)] + ["c"] * group,
        # runs just under and just over the bound: one write, then a piece at a time
        "near-the-bound": ["d" * (bound // group - 1)] * group + ["e" * (bound // group + 1)] * group,
        "non-ascii": ["p Sage 5.6 Débian Live 日本語\n", "\u2028", "é" * 300] * (group // 2),
    }


@pytest.mark.parametrize("name", list(_emit_cases()))
@pytest.mark.parametrize("target", ["file", "-", None])
def test_emit_writes_the_pieces_joined(capsysbinary, tmp_path, name, target):
    pieces = _emit_cases()[name]
    out_file = tmp_path / "out"
    cli._emit(pieces, str(out_file) if target == "file" else target)
    written = out_file.read_bytes() if target == "file" else capsysbinary.readouterr().out
    assert written == "".join(pieces).encode("utf-8")


def test_emit_peaks_below_a_few_groups_on_a_room_document(tmp_path):
    """A document of many small pieces is written a run at a time, never
    joined whole: an 8,192-key room document, many times the group bound,
    is written in a few times that bound."""
    args = build_parser().parse_args(["sim-room", "--n", "8192"])
    pieces = args.handler(args)
    out_file = tmp_path / "room.json"
    cli._emit(pieces, str(out_file))  # imports and caches warm
    tracemalloc.start()
    try:
        cli._emit(pieces, str(out_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out_file.stat().st_size > 8 * cli._GROUP_CHARS
    assert peak < 3 * cli._GROUP_CHARS


def test_sim_redeploy_peak_memory_stays_below_its_output(tmp_path):
    """The CLI writes the renderer's pieces as they are: no whole-document
    string and no encoded copy of it, so a multi-release document, whose
    logs repeat donor history, is written in less memory than its size."""
    releases = [
        {"time_s": k * 100_000,
         "version": f"Demo Live 1.{k + 1} 2013-{k + 2:02d}-01 en_US.UTF-8 - stable - amd64"}
        for k in range(8)
    ]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_participants": 32, "releases": releases}))
    out_file = tmp_path / "out.json"
    argv = ["sim-redeploy", "--config", str(config), "-o", str(out_file)]
    assert dispatch(argv) == 0  # imports and caches warm
    tracemalloc.start()
    try:
        assert dispatch(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out_file.stat().st_size
