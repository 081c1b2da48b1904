"""The runtime imports the standard library and itself only.

numpy and regex may be installed where the tests run, so a stray import of
either would pass every other test; this one reads the imports from the
source instead."""

import ast
import sys
from pathlib import Path

import glossmt

SOURCES = sorted(Path(glossmt.__file__).parent.glob("*.py"))


def imported_top_level_modules(source: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), filename=str(source))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # A relative import (level 1 or more) names glossmt itself.
            modules.add("glossmt" if node.level else node.module.partition(".")[0])
    return modules


def test_every_import_is_the_standard_library_or_glossmt():
    assert len(SOURCES) > 10
    foreign = {
        source.name: sorted(modules)
        for source in SOURCES
        if (modules := imported_top_level_modules(source) - set(sys.stdlib_module_names) - {"glossmt"})
    }
    assert foreign == {}


def test_the_guard_sees_a_third_party_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import os.path\nfrom . import corpus\n\ndef f():\n    import numpy\n    from regex import sub\n")
    assert imported_top_level_modules(source) == {"os", "glossmt", "numpy", "regex"}
