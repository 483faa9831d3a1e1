"""Every module-level import in the package is used, or marked as kept.

A name imported only so that a tracer can patch it where it is called
is marked ``# noqa: F401`` on its import; any other name that a module
imports and never uses is a leftover. Only ``__init__.py``, which
imports to re-export, is exempt. Every name the benchmark tracer patches
must still be there, when ``bench/`` is.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import tactsim

SOURCES = sorted(path for path in Path(tactsim.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(path: Path) -> list:
    """``file:line: name`` for each unmarked module-level import never used as a name."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import csv\nimport json  # noqa: F401\nfrom math import (\n"
                      "    floor, isfinite,\n)\n\nprint(floor(isfinite(1.0)))\n")
    assert unused_imports(module) == ["module.py:1: csv"]


def test_every_traced_call_site_exists():
    """The benchmark tracer patches each of its call sites by name; a
    source change that drops or moves one must show here, not only when
    the benchmark runs."""
    spans_path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    if not spans_path.exists():
        pytest.skip("no bench/ directory")
    importlib.import_module("tactsim.cli")  # the tracer reaches every module through it
    spec = importlib.util.spec_from_file_location("bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attribute}"
               for name, owner, attribute, _ in spans._patch_points(tactsim)
               if attribute not in vars(owner)]
    assert missing == []
