"""The package's public surface: the top-level name list, the
functions README.md names, and the standard library as its only
dependency."""

import ast
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


def test_package_imports_only_the_standard_library():
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
    top_level = {name.split(".")[0] for name in imported}
    assert sorted(top_level - sys.stdlib_module_names) == []
