"""Results do not depend on the sizes of the blocks the package works in:
each block constant, set to other values, gives the same bytes."""

import functools

import numpy as np
import pytest

from tsepdm import datafiles, gssa, modulator, plant
from tsepdm.ntf import NtfDesignSpec, build_first_order, build_third_order

NTFS = {"first": build_first_order(), "tse": build_third_order(NtfDesignSpec(0.075, 0.9))}

# (initial state, d1, d2) of 2 ms runs. From the first, a few half cycles
# see no crossing; with the notch NTF one of them is 63, which ends a chunk
# of 64. From the second, i2 crosses in the last step of half cycle 0, so
# the next pass has no step left in it; with one-half-cycle chunks its
# product reaches the last row of the window.
RUNS = [((-2.4057942757603423, -3.973076986884435, -74.50848662857456, 126.13357141965645),
         0.203, 1.0),
        ((-0.4, -1.7, 117.1, -1900.3), 1.0, 1.0)]


def simulate_runs(tmp_path, kind, collect):
    outputs = []
    for x0, d1, d2 in RUNS:
        secondary = modulator.PulseDensityModulator(NTFS[kind])
        tr = plant.simulate(plant.DEFAULT_PARAMS,
                            plant.SimConfig(duration=2e-3, initial_state=x0,
                                            collect_samples=collect),
                            modulator.PulseDensityModulator(NTFS[kind]), secondary, d1, d2)
        outputs += [a.tobytes() for a in (tr.t, tr.states, tr.u, tr.s1, tr.cross_half,
                                          tr.cross_t, tr.s2, tr.envelope_i1, tr.envelope_i2,
                                          np.array(secondary.state))]
    return outputs


def lanes(tmp_path):
    y, e = modulator.run_const_grid(NTFS["tse"], np.linspace(0.0, 1.0, 7), 600)
    return [y.tobytes(), e.tobytes()]


def bode(tmp_path):
    model = gssa.build_envelope_model(plant.DEFAULT_PARAMS)
    return [gssa.bode_grid_rows(model, which, 0.01, 0.25, 150).tobytes()
            for which in gssa.CHANNELS]


def rows(tmp_path):
    n = 2600
    out = tmp_path / "rows.csv"
    datafiles.write_rows(out, ["i", "x", "y", "s"],
                         (np.arange(n), np.linspace(-1.0, 1.0, n),
                          np.arange(n, dtype=np.int8) % 3 - 1, ["a", "b"] * (n // 2)))
    return [out.read_bytes()]


@pytest.mark.parametrize("module, name, run", [
    *(pytest.param(plant, "CHUNK", functools.partial(simulate_runs, kind=kind, collect=collect),
                   id=f"CHUNK-{kind}-{'samples' if collect else 'no-samples'}")
      for kind in NTFS for collect in (True, False)),
    pytest.param(modulator, "LANE_BLOCK", lanes, id="LANE_BLOCK"),
    pytest.param(gssa, "BODE_BLOCK", bode, id="BODE_BLOCK"),
    pytest.param(datafiles, "CHUNK_ROWS", rows, id="CHUNK_ROWS"),
])
def test_results_do_not_depend_on_block_constants(monkeypatch, tmp_path, module, name, run):
    outputs = []
    for size in (getattr(module, name), 5, 1):
        monkeypatch.setattr(module, name, size)
        outputs.append(run(tmp_path))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
