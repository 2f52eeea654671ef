"""Each input rule has one owner: `tsepdm.checks` is the only module of
the package that tells real numbers and integers from other values."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsepdm"
OWNER = "checks"


def _imports_numbers(tree: ast.Module) -> bool:
    """Whether the module imports the ``numbers`` module or a name from it,
    which ``numbers.Real`` and ``numbers.Integral`` need."""
    return any(isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "numbers"
               for node in ast.walk(tree))


def test_only_the_owner_module_reads_numbers_real_or_integral():
    users = {p.stem for p in PACKAGE.glob("*.py") if _imports_numbers(ast.parse(p.read_text()))}
    assert users == {OWNER}
