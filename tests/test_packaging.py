"""The declared dependencies cover what the test suites import, so that
``pip install .[test]`` gives a suite that collects."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
# the package itself, the shared fixtures, and perfbench's own modules
LOCAL = {"verletflow", "conftest", "tracing", "spec", "run"}


def imported_packages(path):
    """The top-level package of every absolute import in the file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_packages():
    """Distribution names in ``[project] dependencies`` and the test extra,
    normalized as pip compares them."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.split(r"[^A-Za-z0-9._-]", spec, maxsplit=1)[0].lower().replace("_", "-")
            for spec in specs}


def test_test_imports_are_declared():
    files = sorted(ROOT.glob("tests/*.py")) + [ROOT / "perfbench" / "test_perfbench.py"]
    third_party = set().union(*map(imported_packages, files))
    third_party -= set(sys.stdlib_module_names) | LOCAL
    missing = {name for name in third_party
               if name.lower().replace("_", "-") not in declared_packages()}
    assert not missing, f"imported by the tests but not declared: {sorted(missing)}"


def unused_imports(path):
    """Names a module imports at its top level and never reads, skipping
    ``from __future__``."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (ROOT / "src" / "verletflow").glob("*.py")
                     if p.name != "__init__.py"),  # __init__ imports to re-export
)
def test_package_imports_are_used(module):
    assert unused_imports(ROOT / "src" / "verletflow" / module) == []
