"""The package's public surface: the top-level name list, the
functions README.md names, and the standard library as its only
dependency."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import replikey
from replikey import genealogy, integrity, replicator, spreadsim, units

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_top_level_all_is_the_modules_all():
    names = replikey.__all__
    assert len(names) == len(set(names))
    modules = (genealogy, replicator, spreadsim, integrity)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
    assert all(hasattr(replikey, name) for name in names)


def test_readme_calls_only_functions_that_exist():
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", README.read_text(encoding="utf-8")))
    assert called
    missing = sorted(n for n in called if not hasattr(replikey, n) and not hasattr(units, n))
    assert missing == []


def _imported_modules() -> set:
    """The top-level modules the package's source files import."""
    sources = sorted((ROOT / "src" / "replikey").glob("*.py"))
    assert sources
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert imported
    return {name.split(".")[0] for name in imported}


def test_package_imports_only_the_standard_library():
    assert sorted(_imported_modules() - sys.stdlib_module_names) == []


# Interpreter start plus ``import replikey.cli`` is every command's set-up
# time, so a module added here is a reviewed change.
_IMPORTED = {
    "__future__", "argparse", "bisect", "copy", "dataclasses", "datetime", "enum",
    "fractions", "functools", "hashlib", "json", "math", "random", "re",
    "sys", "warnings",
}


def test_package_imports_exactly_the_reviewed_modules():
    assert sorted(_imported_modules() ^ _IMPORTED) == []


def test_benchmark_spans_wrap_functions_that_exist():
    """Every (module, name) the benchmark's tracer wraps is a function of
    replikey, so a change that removes or renames one fails here."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tables = (spans.SPANNED, spans.COUNTED)
    wrapped = [(m, n) for table in tables for m, names in table.items() for n in names]
    assert wrapped
    missing = [
        (m, n)
        for m, n in wrapped
        if not callable(getattr(importlib.import_module(f"replikey.{m}"), n, None))
    ]
    assert missing == []


def test_the_timestamp_rule_is_defined_once():
    """Only genealogy.py looks at a time's offset or sub-second part."""
    looking = sorted(
        path.name
        for path in (ROOT / "src" / "replikey").glob("*.py")
        if path.name != "genealogy.py"
        and re.search(r"\.(tzinfo|utcoffset|microsecond)\b", path.read_text(encoding="utf-8"))
    )
    assert looking == []
