"""Outside-in timing spans for the traced benchmark run.

``Tracer.install`` replaces public functions in the namespaces of
replikey's modules with wrappers, and ``uninstall`` puts them back.
Callers inside the package look those names up at call time
(``gen.serialize``, ``rep.execute_plan``, a module's own ``verify``), so
internal calls go through the wrappers too.  Each call records a span:
name, start, end and the span that was open when it began.  Spans stay
in memory; ``take_round`` folds one round's spans into per-name totals,
and ``write`` saves the last round's spans.
"""

import functools
import time
from collections import defaultdict

# (module, function) pairs that get a span.  Functions not listed here
# are timed as part of whichever listed function calls them.
SPANNED = {
    "genealogy": (
        "parse", "lint", "stats", "serialize",
        "record_birth", "record_spawn", "record_upgrade", "child_genealogy",
    ),
    "replicator": (
        "select_target", "plan_clone", "plan_upgrade", "execute_plan",
        "inventory_to_json", "inventory_from_json",
    ),
    "spreadsim": ("run_room", "run_redeployment", "sim_result_to_json"),
    "integrity": (
        "run_trust_sim", "meeting", "verify", "check_against",
        "build_manifest", "expected_manifest", "manifest_to_text", "manifest_from_text",
    ),
    "cli": ("dispatch",),
}
# Called too often and too cheaply for a span; only counted.
COUNTED = {"integrity": ("content_digest",)}


# Spans that also record a size: the text parsed (bytes or characters;
# genealogy text is ASCII in practice) and the text serialized.
SIZED = {
    "genealogy.parse": lambda args, result: len(args[0]),
    "genealogy.serialize": lambda args, result: len(result),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, size]
        self.counts = defaultdict(int)
        self._open = []
        self._last_round = []
        self._originals = []  # (module, name, function) replaced by install

    def install(self, package):
        """Wrap the listed functions of ``package`` (the imported replikey)."""
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module_name, names in table.items():
                module = getattr(package, module_name)
                for name in names:
                    fn = getattr(module, name)
                    self._originals.append((module, name, fn))
                    setattr(module, name, make(f"{module_name}.{name}", fn))

    def uninstall(self):
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals.clear()

    def _span(self, name, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns
        size = SIZED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, open_spans[-1] if open_spans else -1, 0]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_spans.pop()
            if size is not None:
                record[4] = size(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take_round(self):
        """Per span name: calls, inclusive and self nanoseconds, bytes; plus
        the counted functions' calls.  Clears the round's spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {}
        for (name, start, end, _, size), inner in zip(spans, child_ns):
            t = totals.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0, "bytes": 0})
            t["calls"] += 1
            t["incl_ns"] += end - start
            t["self_ns"] += end - start - inner
            t["bytes"] += size
        for name, calls in self.counts.items():
            totals[name] = {"calls": calls, "incl_ns": 0, "self_ns": 0, "bytes": 0}
        self._last_round = spans[:]
        spans.clear()
        self.counts.clear()
        return totals

    def write(self, path):
        """Save the last round's spans, one per line: index, name, start
        and end in nanoseconds, parent index (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, _) in enumerate(self._last_round):
                fh.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\n")
