"""Coupled-tank network equations, integrator, and co-simulation loop."""

import ctypes
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm
from scipy.optimize import brentq, fsolve

from oracles import phasor_steady_state, resonance_report
from tsepdm import experiments, gssa, plant
from tsepdm.modulator import PulseDensityModulator, gate_split, run
from tsepdm.ntf import NtfDesignSpec, build_first_order, build_third_order


def fresh_mods(tf=None):
    tf = tf or build_first_order()
    return PulseDensityModulator(tf), PulseDensityModulator(tf)


def per_half_cycle(f, params, duration):
    """``f`` read at the start hc half of each half cycle of a run of
    ``duration``, the one value per half cycle `simulate` takes for d1 and vg."""
    half = 0.5 / params.fs
    return [f(hc * half) for hc in range(len(plant.half_cycle_ends(params, duration)))]


def test_prototype_defaults_and_mutual_inductance(prototype):
    assert prototype.L1 == 31.7e-6 and prototype.L2 == 29.7e-6
    assert prototype.C1 == 8.88e-9 and prototype.C2 == 9.47e-9
    assert prototype.R1 == 0.1 and prototype.R2 == 0.1
    assert prototype.Vg == 50.0 and prototype.Vo == 50.0
    assert prototype.k == 0.15 and prototype.fs == 300e3
    assert prototype.M == pytest.approx(4.60e-6, rel=1e-3)
    assert prototype.ws == pytest.approx(2 * math.pi * 300e3)


def test_params_validation():
    with pytest.raises(ValueError):
        plant.PlantParams(k=1.0)
    with pytest.raises(ValueError):
        plant.PlantParams(k=0.0)
    with pytest.raises(ValueError):
        plant.PlantParams(L1=-1e-6)
    for name in ("L1", "L2", "C1", "C2", "R1", "R2", "Vg", "Vo", "fs"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^{name} must be in \(0, inf\), got"):
                plant.PlantParams(**{name: bad})
    with pytest.raises(ValueError):
        plant.PlantParams(k=math.nan)


@pytest.mark.parametrize("name, value", [
    ("Vg", True), ("Vg", "50"), ("k", np.True_), ("L1", 1e-6 + 0j), ("fs", None),
])
def test_params_reject_non_real_values(name, value):
    with pytest.raises(TypeError, match=f"^{name} must be a real number"):
        plant.PlantParams(**{name: value})


# Values that are not real numbers: a str (numerals too), a bool (numpy's
# too), a complex value (also with a zero imaginary part) or None.
_NON_REAL = st.one_of(st.text("0123456789.e-", max_size=6), st.booleans(),
                      st.booleans().map(np.bool_), st.complex_numbers(), st.none())
# The preset and the dynamic run check rho and r as the NtfDesignSpec's.
_SPEC_NAMES = {"rho": "notch_ratio", "r": "pole_radius"}
_PRESET_SETTINGS = [f.name for f in dataclasses.fields(experiments.ExperimentPreset)
                    if f.name not in ("name", "side", "densities", "ntf_kind")]


def _preset(**kwargs):
    return experiments.ExperimentPreset(name="x", side="primary", **kwargs)


def _envelope(**kwargs):
    args = {"a1": 1.0, "a2": 1.0, "duration": 1e-6, "dt": 1e-7} | kwargs
    return gssa.simulate_envelope(plant.DEFAULT_PARAMS, **args)


@functools.cache
def _envelope_model():
    return gssa.build_envelope_model(plant.DEFAULT_PARAMS)


def _bode(**kwargs):
    args = {"ratio_min": 0.01, "ratio_max": 0.25, "n_points": 4} | kwargs
    return gssa.bode_grid_rows(_envelope_model(), "u1->i1", **args)


# (name in the error, call that sets the value) for every real-valued setting
_REAL_SETTINGS = (
    [(f.name, lambda v, name=f.name: plant.PlantParams(**{name: v}))
     for f in dataclasses.fields(plant.PlantParams)]
    + [(name, lambda v, name=name: plant.SimConfig(**{name: v}))
       for name in ("steps_per_half_cycle", "duration", "blanking_fraction")]
    + [(f"initial_state[{i}]", lambda v, i=i: plant.SimConfig(
        initial_state=tuple(v if j == i else 0.0 for j in range(4)))) for i in range(4)]
    + [(f.name, lambda v, name=f.name: NtfDesignSpec(**{name: v}))
       for f in dataclasses.fields(NtfDesignSpec)]
    + [(_SPEC_NAMES.get(name, name), lambda v, name=name: _preset(**{name: v}))
       for name in _PRESET_SETTINGS]
    + [("densities[0]", lambda v: _preset(densities=(v,)))]
    + [(_SPEC_NAMES.get(name, name), lambda v, name=name: experiments.run_dynamic_response(
        plant.DEFAULT_PARAMS, "tse", **{name: v}))
       for name in ("rho", "r", "duration", "mod_freq", "steps_per_half_cycle")]
    + [(name, lambda v, name=name: _envelope(**{name: v}))
       for name in ("a1", "a2", "duration", "dt")]
    + [(name, lambda v, name=name: _bode(**{name: v}))
       for name in ("ratio_min", "ratio_max", "n_points")])


@given(value=_NON_REAL)
def test_real_settings_reject_non_real_values(value):
    for label, call in _REAL_SETTINGS:
        with pytest.raises(TypeError, match=rf"^{re.escape(label)} must be a"):
            call(value)


def test_params_take_int_and_numpy_values():
    p = plant.PlantParams(Vg=50, Vo=np.float64(50.0), fs=np.int64(300_000))
    assert (p.Vg, p.Vo, p.fs) == (50, 50.0, 300_000)


@pytest.mark.parametrize("duration", [0.0, -1e-3, math.nan, math.inf])
def test_sim_config_rejects_bad_duration(duration):
    with pytest.raises(ValueError, match=r"^duration must be in \(0, inf\), got"):
        plant.SimConfig(duration=duration)


@pytest.mark.parametrize("state", [
    (math.nan, 0.0, 0.0, 0.0), (0.0, math.inf, 0.0, 0.0), (0.0, 0.0, 0.0, -math.inf),
    (0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0)])
def test_sim_config_rejects_bad_initial_state(state):
    # rejected before anything runs, not after a diverged half cycle
    with pytest.raises(ValueError, match="initial_state must be 4 finite numbers"):
        plant.SimConfig(initial_state=state)


def derivatives(state, u1, u2, params):
    """State rates A x + B (u1, u2) of the network equations."""
    A, B = plant.system_matrices(params)
    return A @ np.asarray(state, dtype=float) + B @ np.array([u1, u2])


def test_derivatives_closed_form_from_rest(prototype):
    # independent oracle: hand-inverted 2x2 inductance matrix
    det = prototype.L1 * prototype.L2 - prototype.M ** 2
    rates = derivatives([0.0, 0.0, 0.0, 0.0], 50.0, 0.0, prototype)
    assert rates[0] == pytest.approx(prototype.L2 * 50.0 / det, rel=1e-12)
    assert rates[1] == pytest.approx(-prototype.M * 50.0 / det, rel=1e-12)
    assert rates[2] == 0.0 and rates[3] == 0.0


def test_derivatives_dissipation_identity(prototype):
    # dE/dt = u1 i1 - u2 i2 - R1 i1^2 - R2 i2^2 must hold algebraically
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.normal(scale=[5.0, 5.0, 300.0, 300.0])
        u1, u2 = rng.normal(scale=50.0, size=2)
        f = derivatives(x, u1, u2, prototype)
        grad = np.array([
            prototype.L1 * x[0] + prototype.M * x[1],
            prototype.M * x[0] + prototype.L2 * x[1],
            prototype.C1 * x[2],
            prototype.C2 * x[3],
        ])
        de_dt = grad @ f
        expected = (u1 * x[0] - u2 * x[1]
                    - prototype.R1 * x[0] ** 2 - prototype.R2 * x[1] ** 2)
        assert de_dt == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_derivatives_decouple_as_k_vanishes(prototype):
    weak = dataclasses.replace(prototype, k=1e-9)
    x = [2.0, -3.0, 100.0, -50.0]
    f = derivatives(x, 40.0, 10.0, weak)
    assert f[0] == pytest.approx((40.0 - weak.R1 * 2.0 - 100.0) / weak.L1, rel=1e-6)
    assert f[1] == pytest.approx((-10.0 + weak.R2 * 3.0 + 50.0) / weak.L2, rel=1e-6)


def analytic_rlc_current(t, L, C, R, i0, v0):
    """Underdamped series RLC, zero drive: current from (i0, v0)."""
    alpha = R / (2 * L)
    w0 = 1.0 / math.sqrt(L * C)
    wd = math.sqrt(w0 ** 2 - alpha ** 2)
    # i'' + 2 alpha i' + w0^2 i = 0 with i(0) = i0, i'(0) = -(R i0 + v0)/L
    di0 = -(R * i0 + v0) / L
    a = i0
    b = (di0 + alpha * i0) / wd
    return math.exp(-alpha * t) * (a * math.cos(wd * t) + b * math.sin(wd * t))


def test_rk4_matches_analytic_rlc():
    # the simulator's step: the collapsed RK4 map x <- M x
    L, C, R = 31.7e-6, 8.88e-9, 0.1
    A = np.array([[-R / L, -1.0 / L], [1.0 / C, 0.0]])
    period = 2 * math.pi * math.sqrt(L * C)
    i0, v0 = 3.0, 100.0

    def integrate(h):
        n = int(round(period / h))
        M, _ = plant.rk4_affine_maps(A, np.zeros((2, 1)), h)
        x = np.array([i0, v0])
        for _ in range(n):
            x = M @ x
        return x[0], n * h

    h = period / 256
    got, t_end = integrate(h)
    expected = analytic_rlc_current(t_end, L, C, R, i0, v0)
    assert got == pytest.approx(expected, abs=3e-3 * abs(i0))

    # order check: halving the step shrinks the error ~16x
    got_half, t_half = integrate(h / 2)
    err = abs(got - analytic_rlc_current(t_end, L, C, R, i0, v0))
    err_half = abs(got_half - analytic_rlc_current(t_half, L, C, R, i0, v0))
    ratio = err / err_half
    assert 12.0 < ratio < 20.0


def rk4_step(x, deriv, h):
    """One classical four-stage RK4 step: the oracle of the collapsed maps."""
    k1 = deriv(x)
    k2 = deriv(x + 0.5 * h * k1)
    k3 = deriv(x + 0.5 * h * k2)
    k4 = deriv(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_affine_maps_equal_generic_rk4(prototype):
    A, B = plant.system_matrices(prototype)
    h = 1e-8
    M, N = plant.rk4_affine_maps(A, B, h)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(scale=[5, 5, 200, 200])
        u = rng.normal(scale=50.0, size=2)
        direct = rk4_step(x, lambda s: A @ s + B @ u, h)
        assert np.allclose(M @ x + N @ u, direct, rtol=1e-12, atol=1e-12)


def eye_rk4_affine_maps(A, B, h):
    """`rk4_affine_maps` as written with a fresh ``np.eye`` per term."""
    n = A.shape[0]
    hA = h * A
    M = np.eye(n)
    term = np.eye(n)
    for kk in range(1, 5):
        term = term @ hA / kk
        M = M + term
    S = np.eye(n)
    acc = np.eye(n)
    for kk in range(1, 4):
        acc = acc @ hA / (kk + 1)
        S = S + acc
    N = h * (S @ B)
    return M, N


_A, _B = plant.system_matrices(plant.DEFAULT_PARAMS)
_H = 0.5 / plant.DEFAULT_PARAMS.fs / 256
_PROP = plant._propagator(plant.DEFAULT_PARAMS, 256)
_V = plant.DEFAULT_PARAMS.Vg


def _generator_pair(n):
    entries = st.floats(-1e7, 1e7)
    return st.tuples(hnp.arrays(float, (n, n), elements=entries),
                     hnp.arrays(float, (n, 2), elements=entries))


def _signed_zeros(a):
    """``a`` with every zero entry replaced by -0.0."""
    return np.where(a == 0.0, -0.0, a)


# Where hA holds -0.0, the oracle's I @ hA may hold +0.0 instead.
@given(AB=st.integers(1, 6).flatmap(_generator_pair), h=st.floats(1e-12, 1e-5))
@example(AB=(np.full((4, 4), -0.0), np.full((4, 2), -0.0)), h=1e-6)
@example(AB=(np.array([[-0.0, 1e7], [-1e7, -0.0]]), np.array([[1.0, -0.0], [-0.0, 1.0]])),
         h=1e-5)
@example(AB=(_signed_zeros(_A), _signed_zeros(_B)), h=_H)
def test_rk4_affine_maps_equal_eye_oracle_bit_for_bit(AB, h):
    A, B = AB
    M, N = plant.rk4_affine_maps(A, B, h)
    M_ref, N_ref = eye_rk4_affine_maps(A, B, h)
    assert np.array_equal(M, M_ref)
    assert np.array_equal(N, N_ref)


def test_stacked_rk4_affine_maps_equal_eye_oracle_bit_for_bit():
    # the (m, 1, 1) widths of a crossing split, down to a width near 0
    widths = np.array([1e-300, 0.3 * _H, (1.0 - 2.0 ** -53) * _H]).reshape(-1, 1, 1)
    M, N = plant.rk4_affine_maps(_A, _B, widths)
    M_ref, N_ref = eye_rk4_affine_maps(_A, _B, widths)
    assert M.shape == (3, 4, 4) and N.shape == (3, 4, 2)
    assert np.array_equal(M, M_ref)
    assert np.array_equal(N, N_ref)


def crossing_state(j, z, u_new, alpha):
    """The state after a crossing at fraction ``alpha`` of step j of a
    segment from z = (x, u), as the no-sample loop computes it: ``Q[j]``
    applied to (z, u_new), whose row 9 r + n is the alpha^n coefficient of
    state r, contracted with the powers alpha^0..alpha^8."""
    coef = _PROP.Q[j].dot(np.r_[z, u_new]).reshape(4, 9)
    return coef.dot(alpha ** np.arange(9.0))


_STEPS = _PROP.K.shape[0] - 1
_STATE = st.tuples(*(st.floats(-lim, lim) for lim in (20.0, 20.0, 2000.0, 2000.0)))
_BRIDGE = st.tuples(*(st.sampled_from((-_V, 0.0, _V)),) * 2)


@settings(max_examples=300, deadline=None)
@given(x=_STATE, u_old=_BRIDGE, u_new=_BRIDGE, j=st.integers(0, _STEPS),
       alpha=st.floats(0.0, 1.0, exclude_min=True))
@example(x=(3.0, -2.0, 400.0, -900.0), u_old=(_V, _V), u_new=(_V, -_V), j=0, alpha=1e-300)
@example(x=(3.0, -2.0, 400.0, -900.0), u_old=(-_V, 0.0), u_new=(-_V, _V), j=_STEPS, alpha=1.0)
def test_crossing_table_equals_two_step_rk4_affine_maps(x, u_old, u_new, j, alpha):
    # The oracle: j steps by the stacked maps K, then the split step as two
    # RK4 sub-steps from one stacked rk4_affine_maps call, over alpha h
    # under u_old and (1 - alpha) h under u_new. The error is relative to
    # the magnitude of the oracle's summed terms; subnormal results carry no
    # relative precision, hence the floor at the smallest normal float.
    z = np.r_[x, u_old]
    K = _PROP.K[j]
    widths = np.array((alpha * _H, (1.0 - alpha) * _H)).reshape(2, 1, 1)
    (Ma, Mb), (Na, Nb) = plant.rk4_affine_maps(_A, _B, widths)
    expected = Mb @ (Ma @ (K @ z) + Na @ u_old) + Nb @ u_new
    scale = (np.abs(Mb) @ (np.abs(Ma) @ (np.abs(K) @ np.abs(z)) + np.abs(Na) @ np.abs(u_old))
             + np.abs(Nb) @ np.abs(u_new))
    err = np.abs(crossing_state(j, z, u_new, alpha) - expected)
    assert np.all(err <= 1e-14 * scale + np.finfo(float).tiny)


def two_sub_step_split(A, B, h, x, u_old, u_new, alpha):
    """The state after a step of width h from x split at fraction alpha, as
    two RK4 sub-steps from one stacked `rk4_affine_maps` call: alpha h under
    u_old, then (1 - alpha) h under u_new."""
    widths = np.array((alpha * h, (1.0 - alpha) * h)).reshape(2, 1, 1)
    (Ma, Mb), (Na, Nb) = plant.rk4_affine_maps(A, B, widths)
    return Mb @ (Ma @ x + Na @ u_old) + Nb @ u_new


def oracle_split_kernel(prop):
    """A stand-in for ``prop.split_kernel()`` that runs `two_sub_step_split`."""
    def split(x, u_old, u_new, alpha, out):
        out[:] = two_sub_step_split(prop.A, prop.B, prop.h, x, u_old, u_new, alpha)
    return split


def check_split_kernel(x, u_old, u_new, alpha, in_place=False, twice=False):
    """Assert that a split kernel, called as `simulate` calls it, gives the
    bits of `two_sub_step_split`, signed zeros included. The kernel reads
    x, u_old and u_new from the slots of one 8-slot vector and writes the
    first four of another; ``in_place`` puts x in those four slots already,
    as a crossing after step 0 of its segment does. ``twice`` first runs the
    kernel on another crossing, which must leave nothing behind."""
    split = _PROP.split_kernel()
    z8, o8 = np.full(8, np.nan), np.full(8, np.nan)
    if twice:
        z8[:] = (-9.0, 7.0, 1500.0, -40.0, -_V, _V, _V, 0.0)
        split(z8[:4], z8[4:6], z8[6:], 0.75, o8[:4])
    z8[:4], z8[4:6], z8[6:] = x, u_old, u_new
    expected = two_sub_step_split(_A, _B, _H, np.array(x, dtype=float), z8[4:6].copy(),
                                  z8[6:].copy(), alpha)
    if in_place:
        o8[:4] = x
    split(o8[:4] if in_place else z8[:4], z8[4:6], z8[6:], alpha, o8[:4])
    assert o8[:4].tobytes() == expected.tobytes()
    assert np.isnan(o8[4:]).all()


_SIGNED_STATE = st.tuples(*(st.one_of(st.just(-0.0), st.floats(-lim, lim))
                            for lim in (20.0, 20.0, 2000.0, 2000.0)))


@settings(max_examples=300, deadline=None)
@given(x=_SIGNED_STATE, u_old=_BRIDGE, u_new=_BRIDGE,
       alpha=st.floats(1e-300, 1.0 - 2.0 ** -53), in_place=st.booleans())
@example(x=(-0.0, 2.0, -0.0, -900.0), u_old=(_V, 0.0), u_new=(_V, -_V), alpha=1e-300,
         in_place=False)
@example(x=(3.0, -0.0, 400.0, -0.0), u_old=(-_V, _V), u_new=(0.0, _V), alpha=1.0 - 2.0 ** -53,
         in_place=False)
@example(x=(-0.0, -0.0, -0.0, -0.0), u_old=(0.0, 0.0), u_new=(0.0, -0.0), alpha=0.5,
         in_place=False)
@example(x=(3.0, -2.0, 400.0, -900.0), u_old=(_V, _V), u_new=(_V, -_V), alpha=0.3,
         in_place=True)
def test_split_kernel_equals_two_sub_step_oracle_bit_for_bit(x, u_old, u_new, alpha, in_place):
    check_split_kernel(x, u_old, u_new, alpha, in_place)


def test_split_kernel_carries_nothing_from_one_crossing_to_the_next():
    for in_place in (False, True):
        check_split_kernel((3.0, -2.0, 400.0, -900.0), (_V, -_V), (_V, _V), 1e-300,
                           in_place, twice=True)


@pytest.mark.parametrize("kind", ["first", "tse"])
@pytest.mark.parametrize("d1, d2", [(0.963, 1.0), (1.0, 0.6)])
@pytest.mark.parametrize("steps", [64, 256])
def test_collecting_runs_equal_runs_on_the_two_sub_step_oracle(monkeypatch, kind, d1, d2,
                                                               steps):
    # The `simulate --trace/--events` files are compared byte for byte
    # between versions, so a collecting run must give the bits of one that
    # splits each crossing with the oracle.
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    cfg = plant.SimConfig(steps_per_half_cycle=steps, duration=1e-3)
    runs = [plant.simulate(plant.DEFAULT_PARAMS, cfg, *fresh_mods(tf), d1, d2)]
    monkeypatch.setattr(plant._AffinePropagator, "split_kernel", oracle_split_kernel)
    runs.append(plant.simulate(plant.DEFAULT_PARAMS, cfg, *fresh_mods(tf), d1, d2))
    kernel, oracle = runs
    assert len(kernel.cross_t) > 250
    for name in ("t", "states", "u", "envelope_i1", "envelope_i2", "s1", "cross_half",
                 "cross_t", "s2"):
        got, want = getattr(kernel, name), getattr(oracle, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_propagator_is_built_once_per_params_and_steps_and_read_only():
    assert plant._propagator(plant.DEFAULT_PARAMS, 256) is _PROP
    assert plant._propagator(plant.PlantParams(), 256) is _PROP  # equal params, one entry
    assert plant._propagator(plant.DEFAULT_PARAMS, 64) is not _PROP
    assert _PROP.Q.shape == (_STEPS + 1, 36, 8)
    assert _PROP.stack.shape == ((_STEPS + 1) * 4, 6) and _PROP.stack.flags.c_contiguous
    assert _PROP.K.shape == (_STEPS + 1, 4, 6) and np.shares_memory(_PROP.K, _PROP.stack)
    assert np.array_equal(_PROP.K[0], np.eye(4, 6))
    assert _PROP.ST.shape == (6, (_STEPS + 1) * 2) and _PROP.ST.flags.c_contiguous
    for a in (_PROP.A, _PROP.B, _PROP.K, _PROP.Q, _PROP.stack, _PROP.ST):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


_FINITE_STATE = st.tuples(*(st.floats(-lim, lim) for lim in (1e3, 1e3, 1e5, 1e5)))
_DRIVE = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


def check_segment_stack(n, x, u):
    """Assert what the half-cycle loop relies on for a segment of n steps
    from state x under drive u.

    The full-state stack, written in place into rows of a larger array by
    ``np.dot(..., out=...)`` as the loop does, gives the rows ``np.matmul``
    gives, x in its first row and the per-step products after it, bit for
    bit; ``K[j].dot(z)``, the state handed on, equals row j. Runs
    without samples write a whole half cycle of i1/i2 with the column-major
    ``np.dot(z, ST, out=...)`` from any row: it leaves the rows around it
    alone, gives x in its first row, and agrees with the full-state rows to
    rounding. The loop keeps z in the first six of eight slots
    (x, u, u1, u2_new); the hand-off's ``K[n].dot(z6, out=...)`` from that
    view into another vector's first four slots equals ``K[n].dot(z)``, and
    the split's ``Q[j].dot`` on all eight slots equals ``Q[j].dot`` on
    ``np.r_[z, u_new]``, bit for bit (u_new keeps u1 and flips u2).
    """
    z = np.array([*x, *u])
    K = _PROP.K
    z8, o8 = np.full(8, np.nan), np.full(8, np.nan)
    z8[:6] = z
    z8[6:] = u_new = (u[0], -u[1])
    K[n].dot(z8[:6], out=o8[:4])
    assert np.isnan(o8[4:]).all()
    assert np.array_equal(o8[:4], K[n].dot(z))
    for j in {0, n - 1, n}:
        assert np.array_equal(_PROP.Q[j].dot(z8), _PROP.Q[j].dot(np.r_[z, u_new]))
    stack = _PROP.stack[:4 * (n + 1)]
    rows = np.full(4 * (n + 3), np.nan)
    seg = rows[4:4 * (n + 2)]
    np.dot(stack, z, out=seg)
    assert np.isnan(rows[:4]).all() and np.isnan(rows[-4:]).all()
    assert np.array_equal(seg, np.matmul(stack, z))
    seg = seg.reshape(n + 1, 4)
    assert np.array_equal(seg[0], x)
    for j in range(1, n + 1):
        assert np.array_equal(seg[j], K[j][:, :4] @ z[:4] + K[j][:, 4:] @ z[4:])
        assert np.array_equal(K[j].dot(z), seg[j])
        assert np.array_equal(K[j] @ z, seg[j])
    rows = np.full(2 * (n + _STEPS + 2), np.nan)
    currents = rows[2 * n: 2 * (n + _STEPS + 1)]  # from row n, as from sample pos
    np.dot(z, _PROP.ST, out=currents)
    assert np.isnan(rows[:2 * n]).all() and np.isnan(rows[-2:]).all()
    currents = currents.reshape(-1, 2)
    assert np.array_equal(currents[0], x[:2])
    full = np.matmul(_PROP.stack, z).reshape(-1, 4)[:, :2]
    scale = (np.abs(_PROP.stack) @ np.abs(z)).reshape(-1, 4)[:, :2]
    assert np.all(np.abs(currents - full) <= 1e-14 * scale + np.finfo(float).tiny)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 256), x=_FINITE_STATE, u=_DRIVE)
@example(n=1, x=(1e-3, -2e-3, 3e-3, -4e-3), u=(_V, -_V))
@example(n=255, x=(3.0, -2.0, 400.0, -900.0), u=(-_V, 0.0))
@example(n=256, x=(1e-3, -2e-3, 3e-3, -4e-3), u=(_V, -_V))
def test_segment_stack_rows_equal_per_step_products(n, x, u):
    check_segment_stack(n, x, u)


@settings(max_examples=200, deadline=None)
@given(fracs=st.lists(st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                                st.floats(1e-300, 1e-12), st.floats(1.0 - 1e-12, 1.0)),
                      min_size=1, max_size=4))
@example(fracs=[1e-300, 1.0 - 2.0 ** -53])
def test_stacked_rk4_affine_maps_equal_scalar_calls(fracs):
    # A crossing builds both sub-step maps in one call on an (m, 1, 1)
    # stack of widths, including widths near 0 and near a full step.
    taus = [frac * _H for frac in fracs]
    M, N = plant.rk4_affine_maps(_A, _B, np.array(taus).reshape(-1, 1, 1))
    assert M.shape == (len(taus), 4, 4) and N.shape == (len(taus), 4, 2)
    for tau, M_k, N_k in zip(taus, M, N):
        M_ref, N_ref = plant.rk4_affine_maps(_A, _B, tau)
        assert np.array_equal(M_k, M_ref)
        assert np.array_equal(N_k, N_ref)


# no crossing in half cycle 0, the first one in step 0 of half cycle 1, so
# both drives change on row steps + 1
_STEP_0_CROSSING_X0 = (1.7, -1.4, 510.3, 668.4)


def _rippled_rail(t):
    return 50.0 * (1.0 + 0.05 * math.cos(2.0 * math.pi * 20e3 * t))


# A 3 MHz clock on the 300 kHz tank, undriven (d1 = 0): the free ring
# crosses i2 every ~4.6 switching periods, so a sync gap opens after each
# crossing. A 1 V secondary rail barely damps the ring.
_FAST_CLOCK = dataclasses.replace(plant.DEFAULT_PARAMS, fs=3e6, Vo=1.0)
_D2_DROP = 60e-6


def _d2_drops(t):
    return 1.0 if t < _D2_DROP else 0.6


@pytest.mark.parametrize("kind", ["first", "tse"])
@pytest.mark.parametrize("x0, d1, d2, rail, params", [
    ((0.0, 0.0, 0.0, 0.0), 0.963, 1.0, None, plant.DEFAULT_PARAMS),
    ((3.0, -2.0, 400.0, -900.0), 0.7, 0.6, None, plant.DEFAULT_PARAMS),
    # i2 crosses in the last step of half cycle 0
    ((-0.4, -1.7, 117.1, -1900.3), 1.0, 1.0, None, plant.DEFAULT_PARAMS),
    (_STEP_0_CROSSING_X0, 1.0, 1.0, None, plant.DEFAULT_PARAMS),
    ((3.0, -2.0, 400.0, -900.0), 0.7, 0.6, _rippled_rail, plant.DEFAULT_PARAMS),
    ((3.0, -2.0, 400.0, -900.0), 0.0, _d2_drops, None, _FAST_CLOCK),
], ids=["x00-0.963-1.0", "x01-0.7-0.6", "x02-1.0-1.0", "step-0-crossing", "rippled-rail",
        "sync-gaps-d2-drops"])
def test_sample_rows_follow_one_step_maps_and_event_drives(kind, x0, d1, d2, rail, params):
    # Segments are written in place and the rows after an accepted crossing
    # are overwritten by the next segment. No stale row may survive: every
    # step without a crossing inside is one RK4 map of the row before under
    # the drive booked on it, and every drive row is the one the events set.
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    half = 0.5 / params.fs
    # 70 half cycles of the 300 kHz clock
    cfg = plant.SimConfig(duration=70 * 0.5 / plant.DEFAULT_PARAMS.fs, initial_state=x0)
    vg = rail and per_half_cycle(rail, params, cfg.duration)
    tr = plant.simulate(params, cfg, *fresh_mods(tf), d1, d2, vg=vg)
    steps, x, u = cfg.steps_per_half_cycle, tr.states, tr.u
    h = half / steps
    assert np.array_equal(x[0], x0)
    primary = [ev for ev in tr.events if ev.side == "primary"]
    secondary = [ev for ev in tr.events if ev.side == "secondary"]
    assert len(secondary) > 60
    if x0 == _STEP_0_CROSSING_X0:
        assert steps < secondary[0].t / h < steps + 1

    # steps k (sample k-1 to k) holding a crossing, within rounding of t/h
    split = np.zeros(len(x), dtype=bool)
    for ev in secondary:
        pos = ev.t / h
        split[int(math.floor(pos - 1e-6)) + 1: int(math.ceil(pos + 1e-6)) + 1] = True
    assert split.sum() < 1.1 * len(secondary)

    M, N = plant.rk4_affine_maps(_A, _B, h)
    step = x[:-1] @ M.T + u[1:] @ N.T
    scale = np.abs(x[:-1]) @ np.abs(M.T) + np.abs(u[1:]) @ np.abs(N.T)
    plain = ~split[1:]
    assert np.all(np.abs(x[1:] - step)[plain] <= 1e-12 * scale[plain])

    # drive rows: u1 from the half cycle's primary tick, u2 from the last
    # crossing at or before the step (the split step takes the new drive)
    u1 = np.array([float(rail(ev.t) if rail else params.Vg) * ev.s for ev in primary])
    if rail:
        assert len(set(np.abs(u1[u1 != 0.0]))) > 1
    assert u[0, 0] == u1[0] and u[0, 1] == 0.0
    np.testing.assert_array_equal(u[1:, 0], np.repeat(u1, steps))
    u2 = np.zeros(len(x))
    for ev in secondary:
        u2[int(math.floor(ev.t / h)) + 1:] = params.Vo * ev.s
    np.testing.assert_array_equal(u[:, 1], u2)

    # starved: the first half-cycle end more than 3 Tsw after the latest
    # crossing at or before it (or after t = 0) where d2 < 1
    gaps = [t for t in tr.envelope_t.tolist()
            if t - max([0.0] + [ev.t for ev in secondary if ev.t <= t]) > 3.0 / params.fs]
    starved = [t for t in gaps if (d2(t) if callable(d2) else d2) < 1.0][:1]
    assert tr.diagnostics == [f"secondary sync starved: no i2 crossing in 3 switching "
                              f"periods before t={t:.6e}s; c2 frozen" for t in starved]
    if callable(d2):  # gaps after crossings while d2 = 1 name no end; a later one does
        assert secondary[0].t < gaps[0] < _D2_DROP < starved[0]


@pytest.mark.parametrize("kind", ["first", "tse"])
@pytest.mark.parametrize("d1, d2", [(0.963, 1.0), (1.0, 0.963)])
def test_no_sample_run_matches_sample_run(prototype, kind, d1, d2):
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    full, fast = [plant.simulate(prototype, plant.SimConfig(duration=1e-3, collect_samples=c),
                                 *fresh_mods(tf), d1, d2)
                  for c in (True, False)]
    assert fast.states.shape == (0, 4)
    assert [ev[:4] for ev in fast.events] == [ev[:4] for ev in full.events]
    np.testing.assert_allclose([ev.t for ev in fast.events],
                               [ev.t for ev in full.events], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fast.envelope_i1, full.envelope_i1, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fast.envelope_i2, full.envelope_i2, rtol=1e-12, atol=0.0)
    assert fast.diagnostics == full.diagnostics


@pytest.mark.parametrize("n_half", [1, plant.CHUNK - 1, plant.CHUNK, plant.CHUNK + 1,
                                    2 * plant.CHUNK + 3])
@settings(max_examples=8, deadline=None)
@given(x0=st.tuples(*(st.floats(-lim, lim) for lim in (20.0, 20.0, 2000.0, 2000.0))),
       kind=st.sampled_from(["first", "tse"]),
       d1=st.sampled_from([0.5, 0.963, 1.0]), d2=st.sampled_from([0.6, 0.963, 1.0]))
# i2 crosses in the last step of half cycle 0, where |i1| peaks
@example(x0=(-0.4, -1.7, 117.1, -1900.3), kind="first", d1=1.0, d2=1.0)
# i2 crosses in the first step of half cycle 1, the first pass's second half
@example(x0=_STEP_0_CROSSING_X0, kind="first", d1=1.0, d2=1.0)
def test_no_sample_run_matches_sample_run_at_chunk_edges(n_half, x0, kind, d1, d2):
    # The no-sample run reduces envelope peaks per CHUNK half cycles; runs
    # ending before, on and after a chunk boundary must agree with the
    # sample-collecting run, also where a pass splits at the last step of
    # its first half cycle or the first step of its second.
    params = plant.DEFAULT_PARAMS
    half = 0.5 / params.fs
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    full, fast = [plant.simulate(params, plant.SimConfig(duration=n_half * half,
                                                         initial_state=x0,
                                                         collect_samples=c),
                                 *fresh_mods(tf), d1, d2)
                  for c in (True, False)]
    assert [ev[:4] for ev in fast.events] == [ev[:4] for ev in full.events]
    np.testing.assert_allclose([ev.t for ev in fast.events],
                               [ev.t for ev in full.events], rtol=1e-12, atol=0.0)
    expected_t = [(hc + 1) * half for hc in range(n_half)]
    assert np.array_equal(full.envelope_t, expected_t)
    assert np.array_equal(fast.envelope_t, expected_t)
    np.testing.assert_allclose(fast.envelope_i1, full.envelope_i1, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fast.envelope_i2, full.envelope_i2, rtol=1e-12, atol=0.0)
    # each envelope peak is the largest |current| over the half cycle's samples
    steps = plant.SimConfig.steps_per_half_cycle  # both runs take the default
    for hc in (0, n_half - 1):
        window = np.abs(full.states[hc * steps:(hc + 1) * steps + 1, :2])
        assert np.array_equal(window.max(axis=0),
                              [full.envelope_i1[hc], full.envelope_i2[hc]])


@pytest.mark.parametrize("x0, skipped", [((0.0, 1.0, 0.0, 0.0), plant.CHUNK - 1),
                                         ((3.0, -2.0, 400.0, -900.0), plant.CHUNK - 2)])
def test_no_sample_run_matches_sample_run_across_crossing_gaps(x0, skipped):
    # Undriven, the 3 MHz clock's ring crosses i2 every ~9 half cycles, so
    # some passes find no crossing in either half cycle they write: each
    # ends its first, and the next pass propagates the second again. The
    # last crossing before `skipped` lies an even number of half cycles
    # before it, and none falls in `skipped` or the one after it: a gap
    # across the chunk edge, where the window moves between the two, or
    # one ending on it.
    half = 0.5 / _FAST_CLOCK.fs
    full, fast = [plant.simulate(_FAST_CLOCK, plant.SimConfig(duration=(2 * plant.CHUNK + 3) * half,
                                                              initial_state=x0, collect_samples=c),
                                 *fresh_mods(), 0.0, 0.6)
                  for c in (True, False)]
    last = full.cross_half[full.cross_half <= skipped].max()
    assert (skipped - last) % 2 == 0
    assert not np.isin(full.cross_half, np.arange(last + 1, skipped + 2)).any()
    assert [ev[:4] for ev in fast.events] == [ev[:4] for ev in full.events]
    np.testing.assert_allclose(fast.cross_t, full.cross_t, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fast.envelope_i1, full.envelope_i1, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fast.envelope_i2, full.envelope_i2, rtol=1e-12, atol=0.0)
    assert fast.diagnostics == full.diagnostics != []


@pytest.mark.parametrize("collect", [True, False])
def test_run_is_a_prefix_of_a_longer_run(collect):
    # Bit for bit, also when i2 crosses in the last step of the short run's
    # last half cycle (half cycle 0 here, where |i1| peaks): the pass after
    # the crossing has no step of that half cycle left, writes the state
    # after the crossing into its end row and ends it.
    params = plant.DEFAULT_PARAMS
    half = 0.5 / params.fs
    short, long = [plant.simulate(params, plant.SimConfig(duration=n * half,
                                                          initial_state=(-0.4, -1.7, 117.1, -1900.3),
                                                          collect_samples=collect),
                                  *fresh_mods(), 1.0, 1.0)
                   for n in (1, plant.CHUNK + 2)]
    assert short.events[-1].t > half * (1.0 - 1.0 / plant.SimConfig.steps_per_half_cycle)
    assert short.events == long.events[:len(short.events)]
    n = len(short.t)
    assert np.array_equal(short.states, long.states[:n])
    assert np.array_equal(short.u, long.u[:n])
    assert short.envelope_i1[0] == long.envelope_i1[0]
    assert short.envelope_i2[0] == long.envelope_i2[0]


@pytest.mark.parametrize("collect", [True, False])
def test_runs_build_no_array_per_pass(monkeypatch, collect):
    # The run state lives in two vectors made once per run, so the np.array
    # calls of a run are its setup and assembly: as many for 2 ms as for
    # 0.5 ms, four times the passes.
    calls = []
    array = np.array

    def counting_array(*args, **kwargs):
        calls.append(None)
        return array(*args, **kwargs)

    monkeypatch.setattr(np, "array", counting_array)
    counts = []
    for duration in (0.5e-3, 2e-3):
        mods = fresh_mods(build_third_order(NtfDesignSpec(0.075, 0.9)))
        calls.clear()
        trace = plant.simulate(plant.DEFAULT_PARAMS,
                               plant.SimConfig(duration=duration, collect_samples=collect),
                               *mods, 0.963, 1.0)
        counts.append(len(calls))
        assert len(trace.cross_t) > 100 * duration / 0.5e-3
    assert counts[0] == counts[1]


@pytest.mark.parametrize("kind, undone_all, undone_late", [("first", 249, 169),
                                                           ("tse", 3, 0)])
def test_undone_crossings_at_criterion_8_first_order_worst_density(kind, undone_all,
                                                                   undone_late):
    # Characterises a known defect, not a wanted behaviour. At low i2
    # amplitude the opposing drive can pull i2 back through zero inside the
    # split step, so the row after an accepted crossing has i2 on its
    # pre-crossing sign again and the rectifier feeds the tank until the
    # next accepted crossing. At criterion 8's first-order worst point
    # (d1 = 0.963, d2 = 1) a 3 ms run undoes 249 of its 1941 crossings, 169
    # of them after 1 ms; the notch NTF undoes at most 3, none after 1 ms.
    # The no-sample twin takes the same gates.
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    full, fast = [plant.simulate(plant.DEFAULT_PARAMS,
                                 plant.SimConfig(duration=3e-3, collect_samples=c),
                                 *fresh_mods(tf), 0.963, 1.0)
                  for c in (True, False)]
    rows = np.searchsorted(full.t, full.cross_t, "right")  # first row after each crossing
    i2 = full.states[:, 1]
    undone = np.sign(i2[rows]) == np.sign(i2[rows - 1])
    late = full.cross_t > 1e-3
    if kind == "first":
        assert len(rows) == 1941
        assert undone.sum() == undone_all
    else:
        assert undone.sum() <= undone_all
    assert (undone & late).sum() == undone_late
    assert np.array_equal(fast.s2, full.s2)
    np.testing.assert_allclose(fast.cross_t, full.cross_t, rtol=1e-12, atol=0.0)


def blas_core():
    """The kernel OpenBLAS picked at run time, or None where it cannot be read."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def kernel_runs():
    """Gate sequence, event times and envelopes of 1 ms runs with and
    without samples, for both NTFs."""
    runs = []
    for tf in (build_first_order(), build_third_order(NtfDesignSpec(0.075, 0.9))):
        for collect in (True, False):
            tr = plant.simulate(plant.DEFAULT_PARAMS,
                                plant.SimConfig(duration=1e-3, collect_samples=collect),
                                *fresh_mods(tf), 0.963, 1.0)
            runs.append({"gates": [list(ev[:4]) for ev in tr.events],
                         "t": [ev.t for ev in tr.events],
                         "i1": tr.envelope_i1.tolist(), "i2": tr.envelope_i2.tolist()})
    return runs


_OTHER_KERNEL = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import test_gssa, test_plant
rng = np.random.default_rng(11)
lims = np.array([1e3, 1e3, 1e5, 1e5])
for n in [1, 2, 3, 64, 255, 256] + rng.integers(1, 257, 200).tolist():
    test_plant.check_segment_stack(n, (rng.uniform(-1, 1, 4) * lims).tolist(),
                                   rng.uniform(-1e3, 1e3, 2).tolist())
bridge = [-test_plant._V, 0.0, test_plant._V]
for k in range(200):
    x = rng.uniform(-1, 1, 4) * [20.0, 20.0, 2000.0, 2000.0]
    x[rng.random(4) < 0.2] = -0.0
    alpha = [rng.uniform(), 10.0 ** rng.uniform(-300, 0), 1e-300, 1.0 - 2.0 ** -53][k % 4]
    test_plant.check_split_kernel(x.tolist(), rng.choice(bridge, 2).tolist(),
                                  rng.choice(bridge, 2).tolist(), alpha, k % 2 == 1)
print(json.dumps({"core": test_plant.blas_core(), "runs": test_plant.kernel_runs(),
                  "envelope": test_gssa.envelope_bit_identities()}))
"""


def test_runs_agree_across_blas_kernels():
    # Byte identity holds for the same inputs on the same BLAS kernel. Under
    # another OpenBLAS kernel the segment stack keeps its properties, gate
    # sequences are identical, and event times and envelopes agree to
    # rounding (measured at most 1.2e-15 and 5.4e-13 relative). The split
    # kernel's bits equal the two-sub-step oracle's, and the envelope route's
    # bit identities (complex RK4 against its real form, blocked Bode rows
    # against per-frequency solves) hold under that kernel too.
    src = str(Path(plant.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _OTHER_KERNEL, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    other = json.loads(proc.stdout)
    if other["core"] != "Sandybridge":
        pytest.skip(f"OpenBLAS kernel cannot be forced here (runs on {other['core']!r})")
    for got, want in zip(other["runs"], kernel_runs(), strict=True):
        assert got["gates"] == want["gates"]
        np.testing.assert_allclose(got["t"], want["t"], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got["i1"], want["i1"], rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(got["i2"], want["i2"], rtol=1e-11, atol=0.0)
    assert other["envelope"] == {"rk4": True, "bode": True}


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("k", [0, plant.CHUNK + 5])
def test_divergence_names_the_first_non_finite_half_cycle(prototype, collect, k):
    half = 0.5 / prototype.fs
    cfg = plant.SimConfig(duration=(k + 3) * half, collect_samples=collect)

    def rail(t):  # from half cycle k on, the largest float rail overflows vC1
        return sys.float_info.max if t >= (k - 0.5) * half else prototype.Vg

    with np.errstate(all="ignore"), pytest.raises(
            plant.SimulationDiverged, match=rf"\(half cycle {k}\)$"):
        plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 1.0,
                       vg=per_half_cycle(rail, prototype, cfg.duration))


def test_zero_state_zero_drive_stays_zero(prototype):
    cfg = plant.SimConfig(duration=0.2e-3, collect_samples=True)
    trace = plant.simulate(prototype, cfg, *fresh_mods(), 0.0, 0.0)
    assert np.all(trace.states == 0.0)
    assert np.all(trace.envelope_i1 == 0.0)


def test_full_power_matches_phasor_oracle(prototype, full_power_trace):
    I1, I2 = phasor_steady_state(prototype)
    tail = full_power_trace.envelope_t > 2.5e-3
    a1 = full_power_trace.envelope_i1[tail].mean()
    a2 = full_power_trace.envelope_i2[tail].mean()
    assert a1 == pytest.approx(abs(I1), rel=0.02)
    assert a2 == pytest.approx(abs(I2), rel=0.02)


@pytest.mark.parametrize("kind", ["first", "tse"])
@pytest.mark.parametrize("steps, current_gap, voltage_gap, crossing_gap", [
    (64, 6e-5, 3e-6, 2e-5), (256, 3e-6, 1.5e-7, 1e-6)])
def test_settled_full_power_run_matches_exact_periodic_orbit(
        prototype, kind, steps, current_gap, voltage_gap, crossing_gap):
    # At d1 = d2 = 1 the plant settles onto a half-period antiperiodic orbit:
    # from the half-cycle start x0, the exact flow over [0, tau] under
    # (Vg, u2) and then over [tau, half] under (Vg, -u2) returns -x0, and
    # i2(tau) = 0. Before the crossing the rectifier drive carries the sign
    # of i2, u2 = Vo sign(i2(0)). The exact flow is expm of the augmented
    # generator [[A, B], [0, 0]]. Gaps measured for both NTFs (the same run,
    # since y = 1 on every tick) after 8 ms, norm-relative for the currents
    # and the capacitor voltages, tau in half cycles: 3.05e-5, 1.35e-6,
    # 9.3e-6 at 64 steps; 1.38e-6, 5.35e-8, 4.3e-7 at 256 steps.
    p = prototype
    half = 0.5 / p.fs
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    n_half = 2400
    tr = plant.simulate(p, plant.SimConfig(steps_per_half_cycle=steps, duration=n_half * half),
                        *fresh_mods(tf), 1.0, 1.0)
    hc = n_half - 2  # an even half cycle: u1 = +Vg
    x_sim = tr.states[hc * steps]
    (t_x,) = [ev.t for ev in tr.events
              if ev.side == "secondary" and hc * half <= ev.t < (hc + 1) * half]
    tau_sim = t_x / half - hc

    A, B = plant.system_matrices(p)
    generator = np.zeros((6, 6))
    generator[:4, :4] = A
    generator[:4, 4:] = B
    u2 = p.Vo * np.sign(x_sim[1])
    scale = np.abs(x_sim)

    def residual(v):  # unknowns (x0 / scale, tau / half)
        x0, tau = v[:4] * scale, v[4] * half
        x_tau = (expm(generator * tau) @ np.r_[x0, p.Vg, u2])[:4]
        x_half = (expm(generator * (half - tau)) @ np.r_[x_tau, p.Vg, -u2])[:4]
        return np.r_[(x_half + x0) / scale, x_tau[1] / scale[1]]

    # full_output: a stalled-progress note is no failure; the residual decides
    v, *_ = fsolve(residual, np.r_[x_sim / scale, tau_sim], xtol=1e-14, full_output=True)
    assert np.abs(residual(v)).max() <= 1e-12
    x0, tau = v[:4] * scale, v[4]
    assert 0.0 < tau < 1.0
    assert np.linalg.norm(x_sim[:2] - x0[:2]) <= current_gap * np.linalg.norm(x0[:2])
    assert np.linalg.norm(x_sim[2:] - x0[2:]) <= voltage_gap * np.linalg.norm(x0[2:])
    assert abs(tau_sim - tau) <= crossing_gap


class ExactTank:
    """The exact flow of the tank under a constant drive, in modal form.

    A has four distinct eigenvalues, A = V diag(lam) V^-1, so from x0 under
    u the state is x(t) = V e^{lam t} w0 + xp, with xp = -A^-1 B u and
    w0 = V^-1 (x0 - xp).
    """

    def __init__(self, params):
        A, B = plant.system_matrices(params)
        self.lam, self.V = np.linalg.eig(A)
        self.V_inv = np.linalg.inv(self.V)
        self.A_inv_B = np.linalg.solve(A, B)

    def modes(self, x0, u):
        xp = -self.A_inv_B @ u
        return self.V_inv @ (x0 - xp), xp

    def states(self, w0, xp, tau):
        """The states at the times ``tau`` after the segment start, (len(tau), 4)."""
        return ((np.exp(np.outer(tau, self.lam)) * w0) @ self.V.T).real + xp

    def i2(self, w0, xp, tau):
        return (self.V[1] @ (np.exp(self.lam * tau) * w0)).real + xp[1]


def exact_run(params, tf, d1, d2, n_half, blanking=plant.SimConfig.blanking_fraction, scan=64):
    """Secondary events (t, y, s) and constant-drive segments (start, end, w0,
    xp) of a run from rest integrated exactly, with fresh modulators ticked
    as `plant.simulate` ticks them. Each crossing is the first sign change of
    i2 after the blanking window, on a scan of ``scan`` points per segment,
    refined by brentq on the closed form."""
    tank = ExactTank(params)
    half = 0.5 / params.fs
    primary, secondary = PulseDensityModulator(tf), PulseDensityModulator(tf)
    x, u2, blanking_until = np.zeros(4), 0.0, -math.inf
    events, segments = [], []
    for hc in range(n_half):
        y1 = primary.step(d1)
        u1 = params.Vg * (-y1 if hc % 2 else y1)
        start, end = hc * half, (hc + 1) * half
        while True:
            w0, xp = tank.modes(x, np.array([u1, u2]))
            tau = np.linspace(max(0.0, blanking_until - start), end - start, scan + 1)
            i2 = tank.states(w0, xp, tau)[:, 1] if tau[0] < tau[-1] else np.zeros(1)
            changes = np.flatnonzero(i2[:-1] * i2[1:] < 0.0)
            if not changes.size:
                segments.append((start, end, w0, xp))
                x = tank.states(w0, xp, [end - start])[0]
                break
            k = changes[0]
            root = brentq(lambda t: tank.i2(w0, xp, t), tau[k], tau[k + 1],
                          xtol=1e-24, rtol=4 * np.finfo(float).eps)
            segments.append((start, start + root, w0, xp))
            x = tank.states(w0, xp, [root])[0]
            start += root
            blanking_until = start + blanking * half
            y2 = secondary.step(d2)
            s2 = y2 if i2[k + 1] > i2[k] else -y2
            u2 = params.Vo * s2
            events.append((start, y2, s2))
    return tank, events, segments


def exact_grid_envelopes(params, tank, segments, n_half, steps):
    """Per half cycle, max |i1| and max |i2| of the exact flow over the
    simulator's samples t0 + k h, k = 0..steps."""
    h = 0.5 / params.fs / steps
    n = n_half * steps + 1
    currents = np.empty((n, 2))
    for start, end, w0, xp in segments:
        k = np.arange(math.ceil(start / h - 1e-9), min(math.floor(end / h + 1e-9), n - 1) + 1)
        currents[k] = tank.states(w0, xp, k * h - start)[:, :2]
    a = np.abs(currents)
    env = np.maximum(a[:-1].reshape(n_half, steps, 2).max(axis=1), a[steps::steps])
    return env[:, 0], env[:, 1]


@pytest.mark.parametrize("side, kind, rho, d", [
    ("primary", "tse", 0.075, 0.963), ("secondary", "tse", 0.065, 0.983),
    ("primary", "first", 0.075, 0.963), ("secondary", "tse", 0.075, 0.503)])
def test_no_sample_runs_match_exact_event_driven_reference(prototype, side, kind, rho, d):
    # 1 ms runs that skip pulses, against the exact flow between drive
    # changes: the same gate sequence, and crossing times (in half cycles)
    # and sample-grid envelopes (relative to their peak) within about twice
    # the gaps measured over these four cases, where the first-order case
    # is the largest: 1.9e-4 and 3.8e-5 at 64 steps, 1.13e-5 and 2.6e-6 at
    # 256 steps. Both fall with the step size, as the RK4 sub-steps'
    # linearly interpolated crossings make them O(h^2).
    half = 0.5 / prototype.fs
    n_half = round(1e-3 / half)
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(rho, 0.9)))
    d1, d2 = (d, 1.0) if side == "primary" else (1.0, d)
    tank, events, segments = exact_run(prototype, tf, d1, d2, n_half)
    for steps, crossing_gap, envelope_gap in ((64, 4e-4, 8e-5), (256, 2.5e-5, 5e-6)):
        cfg = plant.SimConfig(steps_per_half_cycle=steps, duration=n_half * half,
                              collect_samples=False)
        tr = plant.simulate(prototype, cfg, *fresh_mods(tf), d1, d2)
        secondary = [ev for ev in tr.events if ev.side == "secondary"]
        assert [(ev.y, ev.s) for ev in secondary] == [(y, s) for _, y, s in events]
        assert max(abs(ev.t - t) for ev, (t, _, _) in zip(secondary, events)) <= crossing_gap * half
        for sim, ref in zip((tr.envelope_i1, tr.envelope_i2),
                            exact_grid_envelopes(prototype, tank, segments, n_half, steps)):
            assert np.max(np.abs(sim - ref)) <= envelope_gap * ref.max()


def test_full_power_phase_matches_phasor_oracle(prototype, full_power_trace):
    # At full density with carrier phase +1 the drive fundamental is exactly
    # sin(ws t), so fitting i1 on a (sin, cos) basis yields the drive-relative
    # phase directly. The rectifier locks to raw i2 zero crossings, which the
    # ~2% third-harmonic content displaces from the fundamental zeros, so the
    # converged gap to the fundamental-only oracle is 2.2 degrees
    # (step-size independent); bounded here at 3 degrees.
    tr = full_power_trace
    ws = prototype.ws
    mask = tr.t > tr.t[-1] - 20.0 / prototype.fs
    t = tr.t[mask]
    basis = np.column_stack([np.sin(ws * t), np.cos(ws * t)])
    ci, *_ = np.linalg.lstsq(basis, tr.states[mask, 0], rcond=None)
    delta = math.atan2(ci[1], ci[0])
    I1, _ = phasor_steady_state(prototype)
    expected = math.atan2(I1.imag, I1.real)
    assert delta == pytest.approx(expected, abs=math.radians(3.0))


def test_resonance_report(prototype):
    rep = resonance_report(prototype)
    assert rep["f01"] == pytest.approx(
        1.0 / (2 * math.pi * math.sqrt(31.7e-6 * 8.88e-9)), rel=1e-12)
    assert rep["f02"] == pytest.approx(
        1.0 / (2 * math.pi * math.sqrt(29.7e-6 * 9.47e-9)), rel=1e-12)
    assert rep["f01"] == pytest.approx(300.0e3, abs=0.5e3)
    assert rep["f02"] == pytest.approx(300.1e3, abs=0.5e3)


def test_resonance_report_unit_values():
    p = plant.PlantParams(L1=1.0, C1=1.0)
    assert resonance_report(p)["f01"] == pytest.approx(1.0 / (2 * math.pi))


@settings(max_examples=20, deadline=None)
@given(direction=st.tuples(*(st.floats(-1.0, 1.0) for _ in range(4))).filter(
           lambda v: max(map(abs, v)) >= 0.1),
       decade=st.floats(-2.0, 2.0), steps=st.sampled_from([32, 64, 256]),
       blanking=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
@example(direction=(0.8, -0.4, 0.3, -0.16), decade=0.0, steps=256, blanking=0.25)
def test_undriven_energy_non_increasing(direction, decade, steps, blanking):
    # undriven, the tank only loses energy, whatever state it starts from
    # (currents to 5 A and voltages to 500 V at decade 0, over four decades)
    # and however its crossings are blanked and split
    prototype = plant.DEFAULT_PARAMS
    x0 = tuple(v * lim * 10.0 ** decade for v, lim in zip(direction, (5.0, 5.0, 500.0, 500.0)))
    cfg = plant.SimConfig(steps_per_half_cycle=steps, duration=0.5e-3, blanking_fraction=blanking,
                          initial_state=x0)
    trace = plant.simulate(prototype, cfg, *fresh_mods(), 0.0, 0.0)
    s = trace.states
    energy = 0.5 * (prototype.L1 * s[:, 0] ** 2 + 2 * prototype.M * s[:, 0] * s[:, 1]
                    + prototype.L2 * s[:, 1] ** 2
                    + prototype.C1 * s[:, 2] ** 2 + prototype.C2 * s[:, 3] ** 2)
    growth = np.diff(energy) / energy[0]
    assert growth.max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["first", "tse"]), collect=st.booleans(),
       steps=st.sampled_from([32, 64]),
       d=st.sampled_from([(0.963, 1.0), (1.0, 0.963), (0.7, 0.6), (0.5, 1.0)]),
       x0=st.tuples(*(st.floats(-lim, lim).filter(lambda v: v == 0.0 or abs(v) > 1e-6)
                      for lim in (20.0, 20.0, 2000.0, 2000.0))),
       rippled=st.booleans(), k=st.integers(-8, 8))
def test_runs_scale_exactly_with_rails_and_initial_state(kind, collect, steps, d, x0, rippled, k):
    # Scaling Vg, Vo, the rail and the initial state by c = 2^k leaves every
    # gate and crossing the same bytes and scales states, drives and
    # envelopes by c, bit for bit: the maps do not depend on the rails, a
    # crossing's fraction is a ratio of currents, and a product with a power
    # of two is exact. An absolute threshold in the switching logic breaks it.
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    params = plant.DEFAULT_PARAMS
    c = 2.0 ** k
    cfg = plant.SimConfig(steps_per_half_cycle=steps, duration=0.3e-3, initial_state=x0,
                          collect_samples=collect)
    rail = per_half_cycle(_rippled_rail, params, cfg.duration) if rippled else None
    base = plant.simulate(params, cfg, *fresh_mods(tf), *d, vg=rail)
    scaled = plant.simulate(dataclasses.replace(params, Vg=c * params.Vg, Vo=c * params.Vo),
                            dataclasses.replace(cfg, initial_state=tuple(c * v for v in x0)),
                            *fresh_mods(tf), *d, vg=rail and [c * v for v in rail])
    assert len(base.cross_t) > 0
    for name in ("s1", "cross_half", "cross_t", "s2"):
        assert getattr(scaled, name).tobytes() == getattr(base, name).tobytes(), name
    for name in ("states", "u", "envelope_i1", "envelope_i2"):
        assert getattr(scaled, name).tobytes() == (c * getattr(base, name)).tobytes(), name
    assert scaled.diagnostics == base.diagnostics


def test_envelope_mean_converges_with_step_refinement(prototype):
    means = []
    for steps in (256, 512):
        cfg = plant.SimConfig(duration=2e-3, steps_per_half_cycle=steps,
                              collect_samples=False)
        trace = plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 1.0)
        tail = trace.envelope_t > 1.5e-3
        means.append(trace.envelope_i1[tail].mean())
    assert abs(means[1] - means[0]) / means[0] < 1e-3


def test_simulation_deterministic(prototype):
    tf = build_third_order(NtfDesignSpec(0.075, 0.9))
    cfg = plant.SimConfig(duration=1e-3, collect_samples=True)
    tr1 = plant.simulate(prototype, cfg, *fresh_mods(tf), 0.963, 1.0)
    tr2 = plant.simulate(prototype, cfg, *fresh_mods(tf), 0.963, 1.0)
    assert np.array_equal(tr1.states, tr2.states)
    assert np.array_equal(tr1.envelope_i1, tr2.envelope_i1)
    assert tr1.events == tr2.events


def test_secondary_sync_spacing_and_blanking(prototype, full_power_trace):
    times = np.array([ev.t for ev in full_power_trace.events
                      if ev.side == "secondary"])
    half = 0.5 / prototype.fs
    # one crossing per half cycle at steady state
    assert len(times) == pytest.approx(2 * prototype.fs * 3e-3, abs=4)
    gaps = np.diff(times)
    assert gaps.min() >= 0.25 * half  # blanking suppresses early retriggers
    assert abs(np.median(gaps) - half) < 0.1 * half


@pytest.mark.parametrize("kind", ["first", "tse"])
@pytest.mark.parametrize("d2", [0.6, 1.0])
# At 0.0945 and d2 = 1 the window after the fourth crossing ends inside the
# step of the next sign change, before it: the next crossing is accepted in
# the step that holds the window's end, which a scan starting there must see.
@pytest.mark.parametrize("blanking", [0.05, 0.25, 0.45, 0.0945])
def test_each_crossing_is_the_first_sign_change_after_the_blanking_window(
        prototype, blanking, d2, kind):
    # Brute force over the sample run's whole i2 column: each accepted
    # crossing is the first sign change at or after the previous crossing
    # plus the blanking window, however far into its pass the scan starts.
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    cfg = plant.SimConfig(duration=1e-3, blanking_fraction=blanking)
    full, fast = [plant.simulate(prototype, dataclasses.replace(cfg, collect_samples=c),
                                 *fresh_mods(tf), 0.963, d2)
                  for c in (True, False)]
    steps = cfg.steps_per_half_cycle
    half = 0.5 / prototype.fs
    h = half / steps
    M, N = plant.rk4_affine_maps(*plant.system_matrices(prototype), h)

    def crossing_time(k, left, right):  # the linear interpolation in step k
        return (k // steps) * half + (k % steps + left / (left - right)) * h

    i2 = full.states[:, 1]
    changes = np.flatnonzero(i2[:-1] * i2[1:] < 0.0)
    prev, first = -math.inf, 0  # the previous crossing; the first step after it
    for t_x in full.cross_t.tolist():
        until = prev + blanking * half
        assert t_x >= until
        k = int(t_x / h)
        # the row after step k was written again after the split: step k
        # ends, under the drives before it, in M x + N u
        right = (M @ full.states[k] + N @ (full.u[k + 1, 0], full.u[k, 1]))[1]
        assert i2[k] * right < 0.0
        assert crossing_time(k, i2[k], right) == pytest.approx(t_x, abs=1e-6 * h)
        earlier = changes[(changes >= first) & (changes < k)]
        assert all(crossing_time(j, i2[j], i2[j + 1]) < until for j in earlier.tolist())
        prev, first = t_x, k + 1
    later = changes[changes >= first].tolist()
    assert all(crossing_time(j, i2[j], i2[j + 1]) < prev + blanking * half for j in later)
    # the no-sample run logs the same gates, at times equal to rounding
    assert np.array_equal(fast.s1, full.s1)
    assert np.array_equal(fast.cross_half, full.cross_half)
    assert np.array_equal(fast.s2, full.s2)
    np.testing.assert_allclose(fast.cross_t, full.cross_t, rtol=1e-12, atol=0.0)


def test_active_rectifier_polarity(prototype, full_power_config, full_power_trace):
    # u2 * i2 >= 0 away from commutation instants in steady state
    tr = full_power_trace
    h = 0.5 / prototype.fs / full_power_config.steps_per_half_cycle
    mask = tr.t > 2e-3
    sec_times = np.array([ev.t for ev in tr.events if ev.side == "secondary"])
    idx = np.flatnonzero(mask)
    power = tr.u[idx, 1] * tr.states[idx, 1]
    t_sel = tr.t[idx]
    near = np.zeros(len(idx), dtype=bool)
    for et in sec_times[sec_times > 2e-3 - 1e-6]:
        near |= np.abs(t_sel - et) <= 1.5 * h
    bad = (power < -1e-6) & ~near
    assert not np.any(bad)


def test_starvation_diagnostic_logged(prototype):
    cfg = plant.SimConfig(duration=0.2e-3, collect_samples=False)
    trace = plant.simulate(prototype, cfg, *fresh_mods(), 0.0, 0.5)
    assert any("starved" in msg for msg in trace.diagnostics)
    assert not [ev for ev in trace.events if ev.side == "secondary"]


def test_density_outside_range_rejected(prototype):
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=False)
    with pytest.raises(ValueError):
        plant.simulate(prototype, cfg, *fresh_mods(), 1.2, 1.0)
    # an undriven run (d1 = 0 from the zero state) accepts no crossing, so no
    # crossing reads d2: a constant d2 is checked before the loop
    cfg = plant.SimConfig(duration=4 * 0.5 / prototype.fs, collect_samples=False)
    for d2, error, message in [(2.0, ValueError, "must be in [0, 1], got 2.0"),
                               (math.nan, ValueError, "must be in [0, 1], got nan"),
                               ("x", TypeError, "must be a real number, got 'x'")]:
        with pytest.raises(error, match=re.escape(f"d2(0.0) {message}")):
            plant.simulate(prototype, cfg, *fresh_mods(), 0.0, d2)


@pytest.mark.parametrize("form", ["constant", "callable", "per-half-cycle"])
@pytest.mark.parametrize("name, value", [
    ("d1", "0.5"), ("d1", True), ("d1", 0.5j), ("d2", "0.5"), ("d2", False),
    ("d2", np.True_), ("vg", "50"), ("vg", True),
])
def test_non_real_drives_are_rejected(prototype, name, value, form):
    # like PlantParams(Vg="50"): a str or bool drive is an error, not a number.
    # d1 is read once per half cycle, so it takes no callable of time (not a
    # real number, at any value it returns); d2, read at crossings, takes no
    # sequence; the rail takes neither a callable nor one number, since the
    # constant rail is PlantParams.Vg
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=False)
    n_half = len(plant.half_cycle_ends(prototype, cfg.duration))
    drive = {"constant": value, "callable": lambda t: value, "per-half-cycle": [value] * n_half}
    drives = {"d1": 1.0, "d2": 1.0, "vg": None, name: drive[form]}
    match = (r"^vg must be one rail per half cycle" if name == "vg" and form != "per-half-cycle"
             else rf"^{name}\(.*\) must be a real number")
    with pytest.raises(TypeError, match=match):
        plant.simulate(prototype, cfg, *fresh_mods(), **drives)


@pytest.mark.parametrize("name", ["d1", "vg"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_per_half_cycle_drive_of_another_length_is_rejected(prototype, name, extra):
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=False)
    n_half = len(plant.half_cycle_ends(prototype, cfg.duration))
    drives = {"d1": 1.0, "d2": 1.0, name: [1.0] * (n_half + extra)}
    with pytest.raises(ValueError, match=rf"^{name} must hold {n_half} values, "
                                         rf"got {n_half + extra}$"):
        plant.simulate(prototype, cfg, *fresh_mods(), **drives)


def test_int_and_numpy_drives_run_as_floats(prototype):
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=False)
    n_half = len(plant.half_cycle_ends(prototype, cfg.duration))
    ref = plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 0.5, vg=[50.0] * n_half)
    for d1, vg in ((1, np.full(n_half, 50.0, dtype=np.float32)),
                   (np.ones(n_half, dtype=int), [50] * n_half)):
        alt = plant.simulate(prototype, cfg, *fresh_mods(), d1, np.float64(0.5), vg=vg)
        assert alt.events == ref.events
        assert np.array_equal(alt.envelope_i1, ref.envelope_i1)
        assert np.array_equal(alt.envelope_i2, ref.envelope_i2)


@pytest.mark.slow
def test_first_order_worst_case_beats_near_half_k_ws(prototype):
    # skipping at d = 0.963 lands the pattern tone on the beat resonance:
    # the envelope oscillates near 0.075 * fs = 22.5 kHz
    tf = build_first_order()
    cfg = plant.SimConfig(duration=5e-3, collect_samples=False)
    trace = plant.simulate(prototype, cfg, *fresh_mods(tf), 0.963, 1.0)
    mask = trace.envelope_t > 2e-3
    env = trace.envelope_i1[mask] - trace.envelope_i1[mask].mean()
    freqs = np.fft.rfftfreq(len(env), d=0.5 / prototype.fs)
    mag = np.abs(np.fft.rfft(env))
    mag[0] = 0.0
    peak_freq = freqs[np.argmax(mag)]
    assert 21e3 <= peak_freq <= 24e3
    # and the swing is the abnormal oscillation, far beyond normal ripple
    rep_env = trace.envelope_i1[mask]
    assert (rep_env.max() - rep_env.min()) / rep_env.mean() > 0.5


@pytest.mark.parametrize("kind", ["first", "tse"])
def test_primary_carrier_is_gate_split_carrier(prototype, kind):
    # one carrier rule: the primary bridge's signed pulses are gate_split's
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    d1 = 0.7
    tr = plant.simulate(prototype, plant.SimConfig(duration=0.2e-3, collect_samples=False),
                        *fresh_mods(tf), d1, 1.0)
    s = [ev.s for ev in tr.events if ev.side == "primary"]
    y, _ = run(tf, d1, len(s))
    assert 0 < np.count_nonzero(y) < len(s)
    assert np.array_equal(s, gate_split(y))


@pytest.mark.parametrize("kind", ["first", "tse"])
def test_callable_d2_is_read_at_each_crossing(prototype, kind):
    # a constant d2 ticks CHUNK crossings ahead, a callable one at each
    # crossing, on its value at that crossing
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))

    def d2(t):
        return 0.6 + 0.3 * math.sin(2.0 * math.pi * 25e3 * t)

    tr = plant.simulate(prototype, plant.SimConfig(duration=0.3e-3, collect_samples=False),
                        *fresh_mods(tf), 1.0, d2)
    secondary = [ev for ev in tr.events if ev.side == "secondary"]
    assert len(secondary) > plant.CHUNK
    ref = PulseDensityModulator(tf)
    assert [ev.y for ev in secondary] == [ref.step(d2(ev.t)) for ev in secondary]


def _sine_d2(t):
    return 0.6 + 0.3 * math.sin(2.0 * math.pi * 25e3 * t)


@pytest.mark.parametrize("d2", [0.7, _sine_d2], ids=["constant", "callable"])
def test_modulators_are_left_after_the_last_tick_the_run_used(prototype, d2):
    # The primary ticks once per half cycle and the secondary once per
    # accepted crossing. A constant d2 ticks CHUNK crossings ahead; a run
    # that uses only part of its last block leaves the secondary after the
    # last crossing all the same.
    tf = build_third_order(NtfDesignSpec(0.075, 0.9))
    primary, secondary = fresh_mods(tf)
    tr = plant.simulate(prototype, plant.SimConfig(duration=0.1e-3, collect_samples=False),
                        primary, secondary, 0.8, d2)
    assert len(tr.cross_t) % plant.CHUNK != 0
    ref1, ref2 = fresh_mods(tf)
    for _ in tr.envelope_t:
        ref1.step(0.8)
    for t in tr.cross_t.tolist():
        ref2.step(d2(t) if callable(d2) else d2)
    assert np.array(primary.state).tobytes() == np.array(ref1.state).tobytes()
    assert np.array(secondary.state).tobytes() == np.array(ref2.state).tobytes()


def test_trace_drive_column_matches_events(prototype, full_power_config, full_power_trace):
    # the u1 column right after each primary tick equals Vg * s of the event
    tr = full_power_trace
    h = 0.5 / prototype.fs / full_power_config.steps_per_half_cycle
    assert tr.t.shape == tr.u.shape[:1] == tr.states.shape[:1]
    assert tr.t[-1] == pytest.approx(full_power_config.duration)
    for ev in tr.events[:40]:
        if ev.side != "primary":
            continue
        idx = int(round(ev.t / h))
        assert tr.u[idx + 1, 0] == ev.s * prototype.Vg


def test_rail_modulation_hook(prototype):
    # a modulated primary rail changes the drive samples accordingly
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=True)
    dw = 2 * math.pi * 20e3
    vg = per_half_cycle(lambda t: 50.0 * (1.0 + 0.05 * math.cos(dw * t)), prototype, cfg.duration)
    trace = plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 1.0, vg=vg)
    u1 = np.abs(trace.u[trace.u[:, 0] != 0.0, 0])
    assert u1.max() > 50.0
    assert u1.min() < 50.0 * 1.0 + 1e-9


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("rail", [math.nan, math.inf, 0.0, -50.0])
def test_rail_must_be_finite_and_positive(prototype, rail, collect):
    # the rail obeys PlantParams' rule for Vg, read like the densities
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=collect)
    with pytest.raises(ValueError, match=r"^vg\(0\.0\) must be in \(0, inf\), got"):
        plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 1.0,
                       vg=per_half_cycle(lambda t: rail, prototype, cfg.duration))


def test_rail_turning_bad_mid_run_is_rejected_at_its_tick(prototype):
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=False)
    t_bad = 10 * (0.5 / prototype.fs)   # the tick of half cycle 10
    vg = per_half_cycle(lambda t: 50.0 if t < t_bad else math.nan, prototype, cfg.duration)
    with pytest.raises(ValueError, match=re.escape(f"vg({t_bad}) must be in (0, inf), got nan")):
        plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 1.0, vg=vg)


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("bad", [1.5, math.nan])
def test_density_turning_bad_mid_run_is_rejected_at_its_tick(prototype, collect, bad):
    # the primary pulses are computed before the loop, from every tick's d1
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=collect)
    t_bad = 10 * (0.5 / prototype.fs)   # the tick of half cycle 10
    d1 = per_half_cycle(lambda t: 0.9 if t < t_bad else bad, prototype, cfg.duration)
    with pytest.raises(ValueError, match=re.escape(f"d1({t_bad}) must be in [0, 1], got {bad}")):
        plant.simulate(prototype, cfg, *fresh_mods(), d1, 1.0)
