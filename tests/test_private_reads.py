"""No module of the package reads another module's private names, except the
reads listed here: a ``_name`` a module reads as an attribute or imports
must be one the module defines itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsepdm"

# ``reader -> name`` for each allowed read, with its reason.
ALLOWED = {
    "plant -> _advance": "simulate ticks the modulators on densities it checked where it read "
                         "them: d1 once per half cycle before the loop, d2 at each crossing",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(tree: ast.Module) -> set[str]:
    """Every name the module defines: its functions and classes, and the
    names and attributes it assigns."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every private name the module reads as an attribute or imports."""
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return {name for name in attrs | imported if _private(name)}


def private_reads() -> set[str]:
    """``reader -> name`` for each private name a package module reads but
    does not define."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    return {f"{module} -> {name}" for module, tree in trees.items()
            for name in _read(tree) - _defined(tree)}


def test_no_module_reads_another_modules_private_names():
    # an allowed read that is gone leaves the list as well
    assert private_reads() == set(ALLOWED)
