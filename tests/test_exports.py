"""The package's public surface: the top-level name list and the
functions README.md names."""

import re
from pathlib import Path

import replikey
from replikey import genealogy, integrity, replicator, spreadsim, units

README = Path(__file__).resolve().parent.parent / "README.md"


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
