"""Every public function, class, method and property of the package is read
by the package or the benchmark, except the oracles listed here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tsepdm"

# Members only the tests read, each the oracle of an acceptance check.
TEST_ORACLES = {
    "analysis.gate_waveform_spectrum": "criterion 5: sidebands of the gated carrier",
    "analysis.band_level_db": "criterion 5: notch-band suppression in dB",
    "gssa.resonant_peak_prediction": "the Bode-peak tests: the k ws / 2 rule",
    "plant.resonance_report": "criterion 7: tank tuning to the switching frequency",
    "plant.phasor_steady_state": "criterion 7: first-harmonic phasor of the full-power run",
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


def _names_read(tree: ast.Module) -> set[str]:
    """Every identifier the module reads, as a name or an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def unread_members() -> set[str]:
    """``module.member`` for each public member that no module of the package
    or the benchmark reads; a read in its own module counts."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("**/*.py"))
    read = set().union(*(_names_read(ast.parse(p.read_text(), str(p))) for p in sources))
    return {f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
            for name in _public_members(ast.parse(p.read_text(), str(p)))
            if name not in read}


def test_every_public_member_is_read_or_a_listed_oracle():
    # a listed oracle that gains a reader leaves the list as well
    assert unread_members() == set(TEST_ORACLES)
