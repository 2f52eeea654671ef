"""Sweep harness, presets, and the dynamic tracking experiment."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsepdm import analysis, experiments, plant


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


_GRID_NUMBERS = st.one_of(st.floats(), st.floats(-0.2, 1.2), st.floats(0.0, 0.1),
                          st.decimals(0, 1, places=3).map(float))


@given(spec=st.one_of(st.tuples(_GRID_NUMBERS, _GRID_NUMBERS, _GRID_NUMBERS)
                      .map(lambda t: ":".join(map(repr, t))),
                      st.text(max_size=12)))
def test_parse_density_grid_is_unique_sorted_in_range_or_raises(spec):
    try:
        grid = experiments.parse_density_grid(spec)
    except ValueError:
        return
    assert all(0.0 <= d <= 1.0 for d in grid)
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_parse_density_grid_rejects_unbounded_point_counts():
    for spec in ("0:1e-300:1", "0:0.0001:1", "-1e308:1:1e308", "0:1:inf", "nan:0.1:1"):
        with pytest.raises(ValueError):
            experiments.parse_density_grid(spec)
    assert len(experiments.parse_density_grid("0:0.001:1")) == 1001


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
    # the notch settings go into manifests, so they are checked for either kind
    with pytest.raises(ValueError, match=r"^notch_ratio must be in \(0, 1\)"):
        experiments.ExperimentPreset(name="x", side="primary", ntf_kind="first", rho=5.0)
    # the preset's SimConfig is built, and so checked, when the preset is made
    with pytest.raises(ValueError, match=r"^steps_per_half_cycle must be in \[32, inf\)"):
        experiments.ExperimentPreset(name="x", side="primary", steps_per_half_cycle=16)
    # integer settings take integers, numpy's too, and densities real numbers
    for steps in (64.0, True, "64"):
        with pytest.raises(TypeError, match="steps_per_half_cycle must be an integer"):
            experiments.ExperimentPreset(name="x", side="primary", steps_per_half_cycle=steps)
    experiments.ExperimentPreset(name="x", side="primary", steps_per_half_cycle=np.int64(64))
    with pytest.raises(TypeError, match="^window must be a real number"):
        experiments.ExperimentPreset(name="x", side="primary", window=True)
    for densities in ((True,), (0.5, "0.5"), (0.5 + 0j,), (np.False_,)):
        with pytest.raises(TypeError, match=r"^densities\[\d\] must be a real number"):
            experiments.ExperimentPreset(name="x", side="primary", densities=densities)


@pytest.mark.parametrize("duration, settle, window", [
    (1e-3, 2e-3, 3e-3), (2e-3, 2e-3, 3e-3), (5e-3, -1e-4, 3e-3),
    (5e-3, 2e-3, 0.0), (5e-3, 2e-3, -1e-3), (math.inf, 2e-3, 3e-3),
    (math.nan, 2e-3, 3e-3), (5e-3, math.nan, 3e-3), (5e-3, 2e-3, math.nan),
    (5e-3, 2e-3, math.inf),
])
def test_preset_rejects_empty_analysis_window(duration, settle, window):
    with pytest.raises(ValueError, match=r"^(need settle < duration|settle must be in \[0, inf\)"
                                         r"|window must be in \(0, inf\)"
                                         r"|duration must be in \(0, inf\))"):
        experiments.ExperimentPreset(name="x", side="primary", duration=duration,
                                     settle=settle, window=window)


@pytest.mark.parametrize("duration, settle, window", [
    (5e-3, 2e-3, 3e-3), (4e-4, 1e-4, 3e-4), (1e-3, 0.0, 5e-3)])
def test_preset_accepts_a_window_after_settle(duration, settle, window):
    experiments.ExperimentPreset(name="x", side="primary", duration=duration,
                                 settle=settle, window=window)


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(prototype, monkeypatch, workers):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a sweep point")

    monkeypatch.setattr(experiments, "run_sweep_point", no_simulation)
    preset = experiments.ExperimentPreset(name="x", side="primary", densities=(0.5,))
    with pytest.raises(ValueError, match=r"workers must be in \[1, inf\)"):
        experiments.run_density_sweep(prototype, preset, workers=workers)


@pytest.mark.parametrize("workers, n_points, pool_sizes", [
    (8, 2, [2]), (8, 1, []), (2, 3, [2]), (3, 3, [3]), (1, 3, [])])
def test_sweep_starts_no_more_workers_than_points(prototype, monkeypatch, workers, n_points,
                                                  pool_sizes):
    # a stand-in pool that maps in this process records each pool's size
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def stub_point(params, preset, d):
        return analysis.FluctuationReport(d=d, side="i1", i_max=1.0, i_min=1.0,
                                          i_mean=1.0, fluctuation_pct=0.0)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "run_sweep_point", stub_point)
    densities = (0.7, 0.5, 0.6)[:n_points]
    preset = experiments.ExperimentPreset(name="x", side="primary", densities=densities)
    reports = experiments.run_density_sweep(prototype, preset, workers=workers)
    assert made == pool_sizes
    assert [rep.d for rep in reports] == sorted(densities)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rejects_a_window_after_the_last_half_cycle(prototype, monkeypatch, workers):
    # 3.1008 ms runs round(1860.48) = 1860 half cycles, so the last envelope
    # time is 3.1 ms: settle < duration holds, yet no envelope time is in
    # the window; neither a simulation nor a pool may start
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a sweep point")

    monkeypatch.setattr(experiments, "simulate", no_simulation)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_simulation)
    preset = experiments.ExperimentPreset(name="x", side="primary", densities=(0.5,),
                                          duration=3.1008e-3, settle=3.1005e-3, window=1e-3)
    with pytest.raises(ValueError, match="analysis window is empty"):
        experiments.run_density_sweep(prototype, preset, workers=workers)


def test_sweep_points_build_no_gate_events(prototype, monkeypatch):
    # a sweep point reads only the envelopes; its gate events stay columns
    def no_events(*args):
        raise AssertionError("built a GateEvent")

    monkeypatch.setattr(plant, "GateEvent", no_events)
    preset = experiments.ExperimentPreset(name="x", side="secondary", densities=(0.963,),
                                          duration=1e-3, settle=5e-4, window=5e-4)
    report = experiments.run_sweep_point(prototype, preset, 0.963)
    assert report.d == 0.963 and report.i_mean > 0.0


def test_sweep_window_check_reads_the_simulated_envelope_axis(prototype):
    # the window holds only the last half-cycle end (3.1 ms), which the
    # check must accept and the fluctuation report must then read
    preset = experiments.ExperimentPreset(name="x", side="primary", densities=(0.5,),
                                          duration=3.1008e-3, settle=3.0995e-3,
                                          window=1e-3, steps_per_half_cycle=32)
    (report,) = experiments.run_density_sweep(prototype, preset)
    assert report.i_min == report.i_max == report.i_mean > 0.0


@pytest.mark.slow
def test_sweep_reports_ordered_and_reproducible(prototype):
    preset = experiments.ExperimentPreset(
        name="mini", side="primary", densities=(0.7, 0.5, 0.9),
        ntf_kind="tse", duration=4e-3, settle=2e-3, window=2e-3)
    seq = experiments.run_density_sweep(prototype, preset)
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
def test_dynamic_response_tracks_command(prototype, monkeypatch):
    traces = []

    def recording_simulate(*args, **kwargs):
        traces.append(plant.simulate(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(experiments, "simulate", recording_simulate)
    rail = experiments.DYNAMIC_RAIL
    p15 = dataclasses.replace(prototype, Vg=rail, Vo=rail)
    resp = experiments.run_dynamic_response(p15, "tse")
    assert resp.amplitude_error_pct <= 10.0
    assert resp.corr_i1 > 0.9
    # the secondary ticks of the sinusoidal-d2 run hold the commanded mean
    # density over the whole periods after 2 ms
    (trace,) = traces
    y2 = [ev.y for ev in trace.events if ev.side == "secondary" and ev.t >= 2e-3]
    assert np.mean(y2) == pytest.approx(0.5, abs=0.02)


def test_dynamic_response_requires_room_for_a_period(prototype, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("simulate called before the arguments were checked")

    monkeypatch.setattr(experiments, "simulate", never)
    with pytest.raises(ValueError, match="too short"):
        experiments.run_dynamic_response(prototype, "tse", duration=2.5e-3,
                                         mod_freq=500.0)
    for mod_freq in (0.0, math.nan, -500.0):
        with pytest.raises(ValueError, match=r"^mod_freq must be in \(0, inf\), got"):
            experiments.run_dynamic_response(prototype, "tse", mod_freq=mod_freq)
