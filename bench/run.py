"""Benchmark of the replikey command line, one workload per run.

    python3 bench/run.py --workload {room,redeploy,trust,lineage} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Inputs are generated from the seed under bench/out/ and deleted with
the run's outputs at the end.  The program runs
in fresh child interpreters (bench/child.py) that import replikey from
src/ and call ``replikey.cli.dispatch`` with file outputs, one operation
after another, in whole rounds, for S seconds.  This script then checks
every output against values computed from the inputs and prints one
JSON line: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced rounds (bench/spans.py) and reports the per-layer
metrics from the traced ones, with the difference between the two
kinds as trace.overhead_s; the last traced round's spans are kept in
bench/out/<workload>-spans.tsv.  See bench/README.md for what each metric
means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 11  # interpreter starts per run; the median is setup_s
RUN_LIMIT_S = 170  # every child must finish within this many seconds of the start

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "transfers_per_s": "1/s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _total(totals, key, names):
    return sum(totals.get(name, {}).get(key, 0) for name in names)


def _self_s(*names):
    return "s", lambda t: _total(t, "self_ns", names) / 1e9


def _calls(*names):
    return "count", lambda t: _total(t, "calls", names)


def _per_s(unit, numerator, *names):
    """``numerator`` per second spent inside the spans ``names``."""

    def value(t):
        seconds = _total(t, "incl_ns", names) / 1e9
        return numerator(t) / seconds if seconds else 0.0

    return unit, value


_RECORD = (
    "genealogy.record_birth",
    "genealogy.record_spawn",
    "genealogy.record_upgrade",
    "genealogy.child_genealogy",
)

# Per-layer metrics, each computed from one traced round's span totals.
# "_s" metrics are self time: a span's duration minus its child spans'.
# per_layer adds trace.overhead_s and integrity.meetings_per_s, which
# also need the untraced rounds.
LAYER_METRICS = {
    "genealogy.parse_s": _self_s("genealogy.parse"),
    "genealogy.parse_calls": _calls("genealogy.parse"),
    "genealogy.parse_mb_per_s": _per_s(
        "MB/s", lambda t: _total(t, "bytes", ["genealogy.parse"]) / 1e6, "genealogy.parse"
    ),
    "genealogy.lint_s": _self_s("genealogy.lint"),
    "genealogy.stats_s": _self_s("genealogy.stats"),
    "genealogy.serialize_s": _self_s("genealogy.serialize"),
    "genealogy.serialize_mb": (
        "MB", lambda t: _total(t, "bytes", ["genealogy.serialize"]) / 1e6
    ),
    "genealogy.record_s": _self_s(*_RECORD),
    "genealogy.record_calls": _calls(*_RECORD),
    "replicator.select_target_s": _self_s("replicator.select_target"),
    "replicator.plan_s": _self_s("replicator.plan_clone", "replicator.plan_upgrade"),
    "replicator.execute_plan_s": _self_s("replicator.execute_plan"),
    "replicator.execute_plan_calls": _calls("replicator.execute_plan"),
    "replicator.inventory_json_s": _self_s(
        "replicator.inventory_to_json", "replicator.inventory_from_json"
    ),
    "spreadsim.run_self_s": _self_s("spreadsim.run_room", "spreadsim.run_redeployment"),
    "spreadsim.result_json_self_s": _self_s("spreadsim.sim_result_to_json"),
    "integrity.trust_sim_self_s": _self_s("integrity.run_trust_sim"),
    "integrity.meeting_self_s": _self_s("integrity.meeting"),
    "integrity.meeting_calls": _calls("integrity.meeting"),
    "integrity.manifest_s": _self_s(
        "integrity.build_manifest",
        "integrity.expected_manifest",
        "integrity.manifest_to_text",
        "integrity.manifest_from_text",
    ),
    "integrity.check_s": _self_s("integrity.check_against", "integrity.verify"),
    "integrity.digest_calls": _calls("integrity.content_digest"),
    "cli.dispatch_self_s": _self_s("cli.dispatch"),
}


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(deadline):
    """Median time from starting an interpreter until ``replikey.cli`` is
    imported.  The first start is discarded: it may compile bytecode."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", "import replikey.cli; print('ready', flush=True)"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_env(),
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.close()
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError("cannot import replikey.cli from src/")
        samples.append(t1 - t0)
    return statistics.median(samples[1:])


def run_child(rundir, ops, seconds, trace, deadline, spans_path=None):
    """Run the operations in a fresh interpreter; returns its report and
    the directory holding its first round's outputs.  A traced run
    writes its last traced round's spans to ``spans_path``."""
    first, work = rundir / "first", rundir / "work"
    first.mkdir()
    work.mkdir()
    spec = {
        "ops": [{"name": op.name, "argv": op.argv, "output": op.output} for op in ops],
        "seconds": seconds,
        "trace": trace,
        "first_dir": str(first),
        "work_dir": str(work),
        "report": str(rundir / "report.json"),
        "spans": str(spans_path or rundir / "spans.tsv"),
    }
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    stderr_path = rundir / "stderr.txt"
    with open(stderr_path, "w") as err, subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        stdout=subprocess.DEVNULL,
        stderr=err,
        env=_env(),
        cwd=ROOT,
    ) as proc:
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:  # time-out or termination: stop the child first
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("the workload did not finish in time") from None
            raise
    if proc.returncode != 0:
        tail = stderr_path.read_text()[-2000:]
        raise BenchError(f"the workload's interpreter exited with {proc.returncode}:\n{tail}")
    return json.loads(Path(spec["report"]).read_text()), first


def evaluate(workload, report, first):
    """Check every operation of every round.  Round 1's outputs are
    checked against the expected values; every later round must write
    byte-identical output.  Only an output that passed its check becomes
    the reference, so an operation whose round-1 output is wrong fails
    in every round.  Returns attempted, failed, the problems found, and
    round 1's outputs that passed their checks, by op name."""
    attempted = failed = 0
    problems, outputs, reference = [], {}, {}
    for index, rnd in enumerate(report["rounds"]):
        for op, res in zip(workload.ops, rnd["ops"]):
            attempted += 1
            if res["rc"] != 0:
                failed += 1
                continue
            found = []
            if index == 0:
                data = (first / op.output).read_bytes()
                try:
                    found = op.check(data)
                except Exception as exc:  # output too malformed for the checker
                    found = [f"check raised {type(exc).__name__}: {exc}"]
                if not found:
                    outputs[op.name] = data
                    reference[op.name] = res["sha256"]
            if index > 0 and op.name not in reference:
                found.append("no checked output to compare with")
            elif op.name in reference and res["sha256"] != reference[op.name]:
                found.append("output differs from the first round's")
            if found:
                failed += 1
                problems.extend(f"{op.name}: {p}" for p in found)
    return attempted, failed, problems, outputs


def _round_walls(report, traced=False, indices=None):
    """Seconds of each round of one kind; with ``indices``, only of the
    operations at those positions in the round."""
    return [
        sum(res["seconds"] for i, res in enumerate(rnd["ops"]) if indices is None or i in indices)
        for rnd in report["rounds"]
        if rnd["traced"] == traced
    ]


def end_to_end(workload, report, outputs, setup_s):
    wall = statistics.median(_round_walls(report))
    first_round = report["rounds"][0]["ops"]
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mb": report["peak_rss_bytes"] / 1e6,
        "output_mb": sum(res["bytes"] for res in first_round) / 1e6,
        "transfers_per_s": workload.transfers(outputs) / wall,
    }


def per_layer(workload, report):
    rounds = [rnd["layers"] for rnd in report["rounds"] if rnd["traced"]]
    values = {
        name: statistics.median(fn(t) for t in rounds) for name, (_, fn) in LAYER_METRICS.items()
    }
    values["trace.overhead_s"] = statistics.median(
        _round_walls(report, traced=True)
    ) - statistics.median(_round_walls(report))
    # meetings per second of the untraced trust-sim commands, so that
    # the spans' own cost is not in the rate
    trust_ops = {i for i, op in enumerate(workload.ops) if op.argv[0] == "trust-sim"}
    trust_s = statistics.median(_round_walls(report, indices=trust_ops))
    meetings = values["integrity.meeting_calls"]
    values["integrity.meetings_per_s"] = meetings / trust_s if trust_s else 0.0
    return values


def metric_units():
    """Unit of every metric this benchmark can report, by name."""
    units = dict(END_TO_END_UNITS)
    units.update({name: unit for name, (unit, _) in LAYER_METRICS.items()})
    units["trace.overhead_s"] = "s"
    units["integrity.meetings_per_s"] = "1/s"
    return units


def bench(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    rundir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    if rundir.exists():
        shutil.rmtree(rundir)
    (rundir / "in").mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, args.size, rundir / "in")
        setup_s = None if args.trace else measure_setup(deadline)
        spans_path = OUT / f"{args.workload}-spans.tsv"
        child = run_child(
            rundir, workload.ops, args.seconds, bool(args.trace), deadline, spans_path
        )
        attempted, failed, problems, outputs = evaluate(workload, *child)
        if args.trace:
            values = per_layer(workload, child[0])
        else:
            values = end_to_end(workload, child[0], outputs, setup_s)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = metric_units()
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None):
    # turn termination into SystemExit, so the child is stopped and the
    # run directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "replikey" / "cli.py").is_file():
        print(f"error: no replikey sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
