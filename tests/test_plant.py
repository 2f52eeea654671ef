"""Coupled-tank network equations, integrator, and co-simulation loop."""

import ctypes
import dataclasses
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
from scipy.optimize import fsolve

from tsepdm import plant
from tsepdm.modulator import PulseDensityModulator, gate_split, run
from tsepdm.ntf import NtfDesignSpec, build_first_order, build_third_order


def fresh_mods(tf=None):
    tf = tf or build_first_order()
    return PulseDensityModulator(tf), PulseDensityModulator(tf)


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
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
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
# (record, field, initial_state entry or None) for every real-valued setting
_REAL_SETTINGS = ([(plant.PlantParams, f.name, None)
                   for f in dataclasses.fields(plant.PlantParams)]
                  + [(plant.SimConfig, name, None)
                     for name in ("steps_per_half_cycle", "duration", "blanking_fraction")]
                  + [(plant.SimConfig, "initial_state", i) for i in range(4)])


@given(setting=st.sampled_from(_REAL_SETTINGS), value=_NON_REAL)
def test_real_settings_reject_non_real_values(setting, value):
    record, field, entry = setting
    label = field if entry is None else f"initial_state[{entry}]"
    if entry is not None:
        value = tuple(value if i == entry else 0.0 for i in range(4))
    with pytest.raises(TypeError, match=rf"^{re.escape(label)} must be a"):
        record(**{field: value})


def test_params_take_int_and_numpy_values():
    p = plant.PlantParams(Vg=50, Vo=np.float64(50.0), fs=np.int64(300_000))
    assert (p.Vg, p.Vo, p.fs) == (50, 50.0, 300_000)


@pytest.mark.parametrize("duration", [0.0, -1e-3, math.nan, math.inf])
def test_sim_config_rejects_bad_duration(duration):
    with pytest.raises(ValueError, match="duration must be finite and positive"):
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
_PROP = plant._AffinePropagator(_A, _B, _H, 256)
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


def test_cached_identity_is_read_only():
    eye = plant._identity(4)
    assert eye is plant._identity(4)
    assert np.array_equal(eye, np.eye(4))
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0
    plant.rk4_affine_maps(_A, _B, _H)
    assert np.array_equal(eye, np.eye(4))


@settings(max_examples=300, deadline=None)
@given(x=st.tuples(*(st.floats(-lim, lim) for lim in (20.0, 20.0, 2000.0, 2000.0))),
       u=st.tuples(*(st.sampled_from((-_V, 0.0, _V)),) * 2),
       frac=st.floats(0.0, 1.0, exclude_min=True))
def test_horner_split_equals_rk4_affine_maps(x, u, frac):
    # Relative to the magnitude of the summed terms, the rounding scale of
    # both evaluation orders; subnormal results carry no relative precision,
    # hence the floor at the smallest normal float.
    x, u, tau = np.array(x), np.array(u), frac * _H
    M, N = plant.rk4_affine_maps(_A, _B, tau)
    expected = M @ x + N @ u
    scale = np.abs(M) @ np.abs(x) + np.abs(N) @ np.abs(u)
    err = np.abs(_PROP.split(x, u, tau) - expected)
    assert np.all(err <= 1e-14 * scale + np.finfo(float).tiny)


_FINITE_STATE = st.tuples(*(st.floats(-lim, lim) for lim in (1e3, 1e3, 1e5, 1e5)))
_DRIVE = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


def check_segment_stack(n, x, u):
    """Assert what the half-cycle loop relies on for a segment of n steps
    from state x under drive u.

    The full-state stack, written in place into rows of a larger array by
    ``np.dot(..., out=...)`` as the loop does, gives the rows ``np.matmul``
    gives, x in its first row and the per-step products after it, bit for
    bit; ``G[j - 1].dot(z)``, the state handed on, equals row j. The i1/i2
    stack of runs without samples agrees with them to rounding.
    """
    z = np.array([*x, *u])
    G = _PROP.G
    stack = _PROP.stack(4)[:4 * (n + 1)]
    rows = np.full(4 * (n + 3), np.nan)
    seg = rows[4:4 * (n + 2)]
    np.dot(stack, z, out=seg)
    assert np.isnan(rows[:4]).all() and np.isnan(rows[-4:]).all()
    assert np.array_equal(seg, np.matmul(stack, z))
    seg = seg.reshape(n + 1, 4)
    assert np.array_equal(seg[0], x)
    for i in range(n):
        assert np.array_equal(seg[i + 1], G[i][:, :4] @ z[:4] + G[i][:, 4:] @ z[4:])
        assert np.array_equal(G[i].dot(z), seg[i + 1])
        assert np.array_equal(G[i] @ z, seg[i + 1])
    currents = np.empty(2 * (n + 1))
    np.dot(_PROP.stack(2)[:2 * (n + 1)], z, out=currents)
    scale = (np.abs(stack) @ np.abs(z)).reshape(n + 1, 4)[:, :2]
    err = np.abs(currents.reshape(n + 1, 2) - seg[:, :2])
    assert np.all(err <= 1e-14 * scale + np.finfo(float).tiny)


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


@pytest.mark.parametrize("kind", ["first", "tse"])
@pytest.mark.parametrize("x0, d1, d2, vg_of_t", [
    ((0.0, 0.0, 0.0, 0.0), 0.963, 1.0, None),
    ((3.0, -2.0, 400.0, -900.0), 0.7, 0.6, None),
    # i2 crosses in the last step of half cycle 0
    ((-0.4, -1.7, 117.1, -1900.3), 1.0, 1.0, None),
    (_STEP_0_CROSSING_X0, 1.0, 1.0, None),
    ((3.0, -2.0, 400.0, -900.0), 0.7, 0.6, _rippled_rail),
], ids=["x00-0.963-1.0", "x01-0.7-0.6", "x02-1.0-1.0", "step-0-crossing", "rippled-rail"])
def test_sample_rows_follow_one_step_maps_and_event_drives(kind, x0, d1, d2, vg_of_t):
    # Segments are written in place and the rows after an accepted crossing
    # are overwritten by the next segment. No stale row may survive: every
    # step without a crossing inside is one RK4 map of the row before under
    # the drive booked on it, and every drive row is the one the events set.
    params = plant.DEFAULT_PARAMS
    tf = (build_first_order() if kind == "first"
          else build_third_order(NtfDesignSpec(0.075, 0.9)))
    half = 0.5 / params.fs
    cfg = plant.SimConfig(duration=70 * half, initial_state=x0)
    tr = plant.simulate(params, cfg, *fresh_mods(tf), d1, d2, vg_of_t=vg_of_t)
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
    rail = vg_of_t or (lambda t: params.Vg)
    u1 = np.array([float(rail(ev.t)) * ev.s for ev in primary])
    if vg_of_t:
        assert len(set(np.abs(u1[u1 != 0.0]))) > 1
    assert u[0, 0] == u1[0] and u[0, 1] == 0.0
    np.testing.assert_array_equal(u[1:, 0], np.repeat(u1, steps))
    u2 = np.zeros(len(x))
    for ev in secondary:
        u2[int(math.floor(ev.t / h)) + 1:] = params.Vo * ev.s
    np.testing.assert_array_equal(u[:, 1], u2)


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
def test_no_sample_run_matches_sample_run_at_chunk_edges(n_half, x0, kind, d1, d2):
    # The no-sample run reduces envelope peaks per CHUNK half cycles; runs
    # ending before, on and after a chunk boundary must agree with the
    # sample-collecting run.
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


@pytest.mark.parametrize("collect", [True, False])
def test_run_is_a_prefix_of_a_longer_run(collect):
    # Bit for bit, also when i2 crosses in the last step of the short run's
    # last half cycle (half cycle 0 here, where |i1| peaks): no later segment
    # writes that sample, so the post-crossing state must be written there.
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
import test_plant
rng = np.random.default_rng(11)
lims = np.array([1e3, 1e3, 1e5, 1e5])
for n in [1, 2, 3, 64, 255, 256] + rng.integers(1, 257, 200).tolist():
    test_plant.check_segment_stack(n, (rng.uniform(-1, 1, 4) * lims).tolist(),
                                   rng.uniform(-1e3, 1e3, 2).tolist())
print(json.dumps({"core": test_plant.blas_core(), "runs": test_plant.kernel_runs()}))
"""


def test_runs_agree_across_blas_kernels():
    # Byte identity holds for the same inputs on the same BLAS kernel. Under
    # another OpenBLAS kernel the segment stack keeps its properties, gate
    # sequences are identical, and event times and envelopes agree to
    # rounding (measured at most 1.2e-15 and 5.4e-13 relative).
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


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("k", [0, plant.CHUNK + 5])
def test_divergence_names_the_first_non_finite_half_cycle(prototype, collect, k):
    half = 0.5 / prototype.fs
    cfg = plant.SimConfig(duration=(k + 3) * half, collect_samples=collect)

    def rail(t):  # from half cycle k on, the largest float rail overflows vC1
        return sys.float_info.max if t >= (k - 0.5) * half else prototype.Vg

    with np.errstate(all="ignore"), pytest.raises(
            plant.SimulationDiverged, match=rf"\(half cycle {k}\)$"):
        plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 1.0, vg_of_t=rail)


def test_zero_state_zero_drive_stays_zero(prototype):
    cfg = plant.SimConfig(duration=0.2e-3, collect_samples=True)
    trace = plant.simulate(prototype, cfg, *fresh_mods(), 0.0, 0.0)
    assert np.all(trace.states == 0.0)
    assert np.all(trace.envelope_i1 == 0.0)


def test_full_power_matches_phasor_oracle(prototype, full_power_trace):
    I1, I2 = plant.phasor_steady_state(prototype)
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
    I1, _ = plant.phasor_steady_state(prototype)
    expected = math.atan2(I1.imag, I1.real)
    assert delta == pytest.approx(expected, abs=math.radians(3.0))


def test_resonance_report(prototype):
    rep = plant.resonance_report(prototype)
    assert rep["f01"] == pytest.approx(
        1.0 / (2 * math.pi * math.sqrt(31.7e-6 * 8.88e-9)), rel=1e-12)
    assert rep["f02"] == pytest.approx(
        1.0 / (2 * math.pi * math.sqrt(29.7e-6 * 9.47e-9)), rel=1e-12)
    assert rep["f01"] == pytest.approx(300.0e3, abs=0.5e3)
    assert rep["f02"] == pytest.approx(300.1e3, abs=0.5e3)


def test_resonance_report_unit_values():
    p = plant.PlantParams(L1=1.0, C1=1.0)
    assert plant.resonance_report(p)["f01"] == pytest.approx(1.0 / (2 * math.pi))


def test_undriven_energy_non_increasing(prototype):
    cfg = plant.SimConfig(duration=0.5e-3, collect_samples=True,
                          initial_state=(4.0, -2.0, 150.0, -80.0))
    trace = plant.simulate(prototype, cfg, *fresh_mods(), 0.0, 0.0)
    s = trace.states
    energy = 0.5 * (prototype.L1 * s[:, 0] ** 2 + 2 * prototype.M * s[:, 0] * s[:, 1]
                    + prototype.L2 * s[:, 1] ** 2
                    + prototype.C1 * s[:, 2] ** 2 + prototype.C2 * s[:, 3] ** 2)
    growth = np.diff(energy) / energy[0]
    assert growth.max() <= 1e-9


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


@pytest.mark.parametrize("form", ["constant", "callable"])
@pytest.mark.parametrize("name, value", [
    ("d1", "0.5"), ("d1", True), ("d1", 0.5j), ("d2", "0.5"), ("d2", False),
    ("d2", np.True_), ("vg_of_t", "50"), ("vg_of_t", True),
])
def test_non_real_drives_are_rejected(prototype, name, value, form):
    # like PlantParams(Vg="50"): a str or bool drive is an error, not a number
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=False)
    drives = {"d1": 1.0, "d2": 1.0, "vg_of_t": None,
              name: (lambda t: value) if form == "callable" else value}
    with pytest.raises(TypeError, match=rf"{name}\(.*\) must be a real number"):
        plant.simulate(prototype, cfg, *fresh_mods(), **drives)


def test_int_and_numpy_drives_run_as_floats(prototype):
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=False)
    ref = plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 0.5, vg_of_t=lambda t: 50.0)
    alt = plant.simulate(prototype, cfg, *fresh_mods(), 1, np.float64(0.5),
                         vg_of_t=lambda t: np.float32(50.0))
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
    trace = plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 1.0,
                           vg_of_t=lambda t: 50.0 * (1.0 + 0.05 * math.cos(dw * t)))
    u1 = np.abs(trace.u[trace.u[:, 0] != 0.0, 0])
    assert u1.max() > 50.0
    assert u1.min() < 50.0 * 1.0 + 1e-9


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("rail", [math.nan, math.inf, 0.0, -50.0])
def test_rail_must_be_finite_and_positive(prototype, rail, collect):
    # the rail obeys PlantParams' rule for Vg, read like the densities
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=collect)
    with pytest.raises(ValueError, match=r"vg_of_t\(0\.0\) = .* outside \(0, inf\)"):
        plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 1.0, vg_of_t=lambda t: rail)


def test_rail_turning_bad_mid_run_is_rejected_at_its_tick(prototype):
    cfg = plant.SimConfig(duration=0.1e-3, collect_samples=False)
    t_bad = 10 * (0.5 / prototype.fs)   # the tick of half cycle 10
    with pytest.raises(ValueError, match=re.escape(f"vg_of_t({t_bad}) = nan")):
        plant.simulate(prototype, cfg, *fresh_mods(), 1.0, 1.0,
                       vg_of_t=lambda t: 50.0 if t < t_bad else math.nan)
