"""Every public function, class, method and property of the package is read
by the package or the benchmark, except the oracles listed here, and so is
every module-level constant, and every field of its records, except those
of records written out whole."""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tsepdm"

# Members only the tests read; none: the oracles the tests check the package
# against are in tests/oracles.py.
TEST_ORACLES: dict[str, str] = {}

# Records whose fields are all read at once, so no field is read by name.
WHOLE_RECORDS = {
    "plant.PlantParams": "run manifests, through dataclasses.asdict",
    "experiments.ExperimentPreset": "sweep manifests, through dataclasses.asdict",
    "analysis.FluctuationReport": "the benchmark's sweep digest, through dataclasses.astuple",
    "plant.GateEvent": "the simulate --events file, through zip(*events)",
}


def _public_members(tree: ast.Module):
    """Names of the public top-level functions and classes, and of the
    public methods and properties of every top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _records(tree: ast.Module):
    """``(class name, field names)`` of each top-level dataclass and NamedTuple."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (
                any(ast.unparse(getattr(d, "func", d)) in ("dataclass", "dataclasses.dataclass")
                    for d in node.decorator_list)
                or any(ast.unparse(b) == "NamedTuple" for b in node.bases)):
            yield node.name, [item.target.id for item in node.body
                              if isinstance(item, ast.AnnAssign)]


def _constants(tree: ast.Module):
    """Names of the module-level constants: the upper-case names (a leading
    underscore allowed) that a top-level assignment binds."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            yield from (n.id for n in ast.walk(target)
                        if isinstance(n, ast.Name) and n.id.lstrip("_").isupper())


def _names_read(tree: ast.Module) -> set[str]:
    """Every identifier the module reads, as a name or an attribute; binding
    a name, as the assignment of a constant does, is not a read of it."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | _attributes_read(tree)


def _attributes_read(tree: ast.Module) -> set[str]:
    """Every identifier the module reads as an attribute."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


@functools.cache
def _package() -> dict[str, ast.Module]:
    """The parsed modules of the package, by module name."""
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


@functools.cache
def _readers() -> tuple[ast.Module, ...]:
    """The package and benchmark modules; a read in a name's own module counts."""
    bench = sorted((ROOT / "bench").glob("**/*.py"))
    return (*_package().values(), *(ast.parse(p.read_text(), str(p)) for p in bench))


def unread_members() -> set[str]:
    """``module.member`` for each public member that no module of the package
    or the benchmark reads."""
    read = set().union(*map(_names_read, _readers()))
    return {f"{module}.{name}" for module, tree in _package().items()
            for name in _public_members(tree) if name not in read}


def unread_constants() -> set[str]:
    """``module.CONSTANT`` for each module-level constant that no module of
    the package or the benchmark reads."""
    read = set().union(*map(_names_read, _readers()))
    return {f"{module}.{name}" for module, tree in _package().items()
            for name in _constants(tree) if name not in read}


def records() -> dict[str, list[str]]:
    """Field names of each ``module.Record`` of the package."""
    return {f"{module}.{name}": fields for module, tree in _package().items()
            for name, fields in _records(tree)}


def unread_fields() -> set[str]:
    """``module.Record.field`` for each field of a record not written out whole
    that no module of the package or the benchmark reads as an attribute."""
    read = set().union(*map(_attributes_read, _readers()))
    return {f"{record}.{name}" for record, fields in records().items()
            if record not in WHOLE_RECORDS for name in fields if name not in read}


def test_every_public_member_is_read_or_a_listed_oracle():
    # a listed oracle that gains a reader leaves the list as well
    assert unread_members() == set(TEST_ORACLES)


def test_every_module_constant_is_read():
    assert unread_constants() == set()


def test_every_record_field_is_read_or_its_record_written_whole():
    # a listed record that is gone, or no longer a record, leaves the list
    assert set(WHOLE_RECORDS) <= set(records())
    assert unread_fields() == set()
