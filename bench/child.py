"""One benchmark run of one workload, in a fresh interpreter.

Usage: python3 child.py SPEC.json   (with replikey importable, e.g. PYTHONPATH=src)

The spec names the operations (CLI argument lists), how many seconds to
run, whether to trace, and where to write.  Operations run one after
another on this thread, in whole rounds, until the time is up.  Round 1
writes into ``first_dir``, later rounds into ``work_dir``.  Only the
``dispatch`` calls are timed; hashing outputs and collecting garbage
happen between them.  The report goes to ``report`` as JSON.

With tracing on, rounds alternate between untraced and traced (spans.py),
starting untraced, so the two kinds of round see the same machine
conditions and their difference is the cost of tracing.
"""

import gc
import hashlib
import json
import os
import resource
import sys
import time


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run(spec):
    import replikey
    from replikey import cli

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()

    rounds = []
    start = time.perf_counter()
    while True:
        out = spec["work_dir"] if rounds else spec["first_dir"]
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(replikey)
        results = []
        for op in spec["ops"]:
            path = os.path.join(out, op["output"])
            if os.path.exists(path):
                os.remove(path)
            argv = [arg.replace("{out}", out) for arg in op["argv"]]
            error = None
            t0 = time.perf_counter()
            try:
                rc = cli.dispatch(argv)
            except Exception as exc:  # the run goes on; the op counts as failed
                rc, error = None, exc
            t1 = time.perf_counter()
            if error is not None:
                print(f"{op['name']}: {type(error).__name__}: {str(error)[:200]}", file=sys.stderr)
            written = rc == 0 and os.path.exists(path)
            results.append(
                {
                    "seconds": t1 - t0,
                    "rc": rc,
                    "sha256": _digest(path) if written else None,
                    "bytes": os.path.getsize(path) if written else 0,
                }
            )
        layers = None
        if traced:
            tracer.uninstall()
            layers = tracer.take_round()
        rounds.append({"ops": results, "traced": traced, "layers": layers})
        enough = tracer is None or len(rounds) >= 2  # a traced run needs one of each
        if enough and time.perf_counter() - start >= spec["seconds"]:
            break
        gc.collect()

    if tracer:
        tracer.write(spec["spans"])
    return {
        "rounds": rounds,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    report = run(spec)
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
