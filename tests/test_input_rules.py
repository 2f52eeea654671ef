"""Each input rule has one owner: `tsepdm.checks` is the only module of
the package that tells real numbers and integers from other values, and
every sequence of reals the package takes is checked by its
`check_reals`."""

import ast
import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tsepdm import experiments, gssa, modulator, ntf, plant

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


NTF1 = ntf.build_first_order()
DURATION = 2e-5  # 12 half cycles
N_HALF = len(plant.half_cycle_ends(plant.DEFAULT_PARAMS, DURATION))


def _simulate(**drives):
    cfg = plant.SimConfig(duration=DURATION, collect_samples=False)
    return plant.simulate(plant.DEFAULT_PARAMS, cfg, modulator.PulseDensityModulator(NTF1),
                          modulator.PulseDensityModulator(NTF1), **{"d1": 1.0, "d2": 1.0} | drives)


@functools.cache
def _model():
    return gssa.build_envelope_model(plant.DEFAULT_PARAMS)


# Every sequence of reals the package takes: the name its errors give, a
# valid sequence, whether that length is the only one taken, and the call.
ENTRY_POINTS = {
    "run": ("densities", [0.5] * 4, False, lambda v: modulator.run(NTF1, v)),
    "run_const_grid": ("densities", [0.5] * 4, False,
                       lambda v: modulator.run_const_grid(NTF1, v, 4)),
    "simulate-d1": ("d1", [1.0] * N_HALF, True, lambda v: _simulate(d1=v)),
    "simulate-vg": ("vg", [50.0] * N_HALF, True, lambda v: _simulate(vg=v)),
    "SimConfig": ("initial_state", [0.0] * 4, True, lambda v: plant.SimConfig(initial_state=v)),
    "ExperimentPreset": ("densities", [0.5] * 4, False,
                         lambda v: experiments.ExperimentPreset("x", "primary", densities=v)),
    "amplitude_bode": ("delta_omega", [1e5] * 4, False,
                       lambda v: gssa.amplitude_bode(_model(), "u1->i1", v)),
    "simulate_envelope": ("initial", [0.0] * 8, True, lambda v: gssa.simulate_envelope(
        plant.DEFAULT_PARAMS, 1.0, 1.0, 1e-6, dt=1e-7, initial=v)),
    "tf-num": ("num", [1.0, -1.0], False,
               lambda v: ntf.RationalTransferFunction(num=v, den=(1.0, 0.0))),
    "tf-den": ("den", [1.0, 0.0], False,
               lambda v: ntf.RationalTransferFunction(num=(1.0, -1.0), den=v)),
}


def _entry_1(base, value):
    """The valid sequence ``base`` with entry 1 set to ``value``, as a list."""
    return [value if i == 1 else v for i, v in enumerate(base)]


# case: (the bad sequence made from a valid one, the error, the message,
# formatted with the name, the valid length n and n1 = n + 1)
NOT_REAL = r"{name}\[1\] must be a real number, got "
OUTSIDE = r"{name}\[1\] must be in .*, got "
BAD_SEQUENCES = {
    "str": (lambda base: _entry_1(base, "0.5"), TypeError, NOT_REAL + "'0.5'"),
    "bool": (lambda base: _entry_1(base, True), TypeError, NOT_REAL + "True"),
    "np.bool_": (lambda base: _entry_1(base, np.True_), TypeError,
                 NOT_REAL + re.escape(repr(np.True_))),
    "complex": (lambda base: _entry_1(base, 0.5 + 0j), TypeError, NOT_REAL + r"\(0.5\+0j\)"),
    "None": (lambda base: _entry_1(base, None), TypeError, NOT_REAL + "None"),
    "nan-list": (lambda base: _entry_1(base, math.nan), ValueError, OUTSIDE + "nan"),
    "nan-array": (lambda base: np.array(_entry_1(base, math.nan)), ValueError, OUTSIDE + "nan"),
    "inf-list": (lambda base: _entry_1(base, math.inf), ValueError, OUTSIDE + "inf"),
    "inf-array": (lambda base: np.array(_entry_1(base, math.inf)), ValueError, OUTSIDE + "inf"),
    "-inf-list": (lambda base: _entry_1(base, -math.inf), ValueError, OUTSIDE + "-inf"),
    "-inf-array": (lambda base: np.array(_entry_1(base, -math.inf)), ValueError,
                   OUTSIDE + "-inf"),
    "2-d": (lambda base: [base, base], ValueError,
            r"{name} must be (one-dimensional|of shape \({n},\)), got shape \(2, {n}\)"),
    "longer": (lambda base: base + base[:1], ValueError,
               r"{name} must be of shape \({n},\), got shape \({n1},\)"),
}
# "longer" only where the length is fixed: elsewhere any length is taken
CASES = [(entry, case) for entry, (_, _, fixed_length, _) in ENTRY_POINTS.items()
         for case in BAD_SEQUENCES if fixed_length or case != "longer"]


@pytest.mark.parametrize("entry, case", CASES, ids=[f"{e}-{c}" for e, c in CASES])
def test_sequences_of_reals_refuse_bad_entries_and_shapes(entry, case):
    # a str or bool entry is refused as it would be alone, a complex or None
    # one too, and NaN or an infinity as outside the entry's interval; each
    # is named by its index. A sequence of another shape is refused as a
    # whole, and one of another length where the length is fixed.
    name, base, _, call = ENTRY_POINTS[entry]
    make, error, message = BAD_SEQUENCES[case]
    message = message.format(name=name, n=len(base), n1=len(base) + 1)
    with pytest.raises(error, match=f"^{message}$"):
        call(make(base))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_sequences_of_reals_take_lists_and_arrays_alike(entry):
    _, base, _, call = ENTRY_POINTS[entry]
    call(base)
    call(tuple(base))
    call(np.array(base))
