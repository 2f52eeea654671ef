"""The runtime dependencies in ``pyproject.toml`` are exactly the
third-party packages that the modules of the package import; what only
the tests import belongs to the ``test`` extra."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages(paths) -> set[str]:
    """Top-level names of every absolute import in these files, outside
    the standard library."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def _names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_runtime_dependencies_are_the_packages_src_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _names(project["dependencies"])
    imported = _imported_packages((ROOT / "src" / "tsepdm").glob("*.py"))
    assert runtime - imported == set(), "declared but imported by no module of the package"
    assert imported - runtime == set(), "imported by the package but not declared"
    tests = (ROOT / "tests").glob("*.py")
    local = {"tsepdm", *(path.stem for path in (ROOT / "tests").glob("*.py"))}
    test_only = _imported_packages(tests) - local - runtime
    assert test_only - _names(project["optional-dependencies"]["test"]) == set(), (
        "imported by the tests but in neither the dependencies nor the test extra")
