"""Sweep harness, presets, and the dynamic tracking experiment."""

import dataclasses

import numpy as np
import pytest

from tsepdm import experiments


def test_standard_density_grid():
    grid = experiments.standard_density_grid()
    assert len(grid) == 45
    assert grid[0] == 0.203
    assert grid[-1] == 0.993
    assert 0.963 in grid
    assert grid.count(0.903) == 1
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_parse_density_grid():
    assert experiments.parse_density_grid("standard") == experiments.standard_density_grid()
    assert experiments.parse_density_grid("0.1:0.2:0.5") == (0.1, 0.3, 0.5)
    with pytest.raises(ValueError):
        experiments.parse_density_grid("0.5:0:0.6")
    with pytest.raises(ValueError):
        experiments.parse_density_grid("nonsense")
    with pytest.raises(ValueError):
        experiments.parse_density_grid("0.8:0.2:1.4")


def test_parse_density_grid_rejects_points_merged_by_rounding():
    with pytest.raises(ValueError, match="0:0.0005:0.003"):
        experiments.parse_density_grid("0:0.0005:0.003")
    assert experiments.parse_density_grid("0:0.001:0.003") == (0.0, 0.001, 0.002, 0.003)


def test_make_ntf():
    assert experiments.make_ntf("first").order == 1
    assert experiments.make_ntf("tse", rho=0.065).order == 3
    with pytest.raises(ValueError):
        experiments.make_ntf("fourth")


def test_preset_validation():
    with pytest.raises(ValueError):
        experiments.ExperimentPreset(name="x", side="both")
    with pytest.raises(ValueError):
        experiments.ExperimentPreset(name="x", side="primary", densities=(1.5,))
    with pytest.raises(ValueError):
        experiments.ExperimentPreset(name="x", side="primary", ntf_kind="tse",
                                     rho=2.0)


@pytest.mark.slow
def test_sweep_reports_ordered_and_reproducible(prototype):
    preset = experiments.ExperimentPreset(
        name="mini", side="primary", densities=(0.7, 0.5, 0.9),
        ntf_kind="tse", duration=4e-3, settle=2e-3, window=2e-3)
    seq = experiments.run_density_sweep(prototype, preset, workers=None)
    par = experiments.run_density_sweep(prototype, preset, workers=2)
    assert [r.d for r in seq] == [0.5, 0.7, 0.9]
    assert seq == par  # worker pool must not change any value
    assert all(r.side == "i1" for r in seq)
    assert all(r.i_min <= r.i_mean <= r.i_max for r in seq)


@pytest.mark.slow
def test_sweep_secondary_side_measures_i2(prototype):
    preset = experiments.ExperimentPreset(
        name="mini2", side="secondary", densities=(0.6,),
        ntf_kind="first", duration=4e-3, settle=2e-3, window=2e-3)
    (rep,) = experiments.run_density_sweep(prototype, preset)
    assert rep.side == "i2"
    assert rep.fluctuation_pct >= 0.0


@pytest.mark.slow
def test_dynamic_response_tracks_command(prototype):
    p15 = dataclasses.replace(prototype, Vg=15.0, Vo=15.0)
    resp = experiments.run_dynamic_response(p15, "tse")
    assert resp.amplitude_error_pct <= 10.0
    assert resp.corr_i1 > 0.9
    # mean tick density matches the commanded mean over whole periods
    sel = resp.tick_t >= 2e-3
    assert np.mean(resp.tick_y[sel]) == pytest.approx(0.5, abs=0.02)


def test_dynamic_response_requires_room_for_a_period(prototype):
    with pytest.raises(ValueError):
        experiments.run_dynamic_response(prototype, "tse", duration=2.5e-3,
                                         mod_freq=500.0)
