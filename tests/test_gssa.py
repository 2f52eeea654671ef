"""Envelope model: equilibrium, eigenstructure, and beat-resonance peaks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (envelope_linearisation, phasor_steady_state, resonant_peak_prediction,
                     simulate_envelope_real_form)
from tsepdm import gssa, plant
from tsepdm.modulator import PulseDensityModulator
from tsepdm.ntf import build_first_order


def test_resonant_peak_prediction(prototype):
    assert resonant_peak_prediction(prototype) == pytest.approx(2 * math.pi * 22.5e3)
    p13 = dataclasses.replace(prototype, k=0.13)
    assert resonant_peak_prediction(p13) == pytest.approx(0.065 * prototype.ws)
    # k -> 0 limit (validation forbids exactly zero)
    tiny = dataclasses.replace(prototype, k=1e-12)
    assert resonant_peak_prediction(tiny) == pytest.approx(0.0, abs=1e-3)


def test_equilibrium_matches_phasor_oracle(prototype):
    model = gssa.build_envelope_model(prototype)
    I1, I2 = phasor_steady_state(prototype)
    assert model.i1_amp == pytest.approx(abs(I1), rel=0.01)
    assert model.i2_amp == pytest.approx(abs(I2), rel=0.01)


def test_eigenvalues_stable_and_lightly_damped_pair(prototype):
    model = gssa.build_envelope_model(prototype)
    eig = np.linalg.eigvals(model.state_matrix)
    assert np.all(eig.real < 0.0)
    # a lightly damped pair near k ws / 2
    target = 0.075 * prototype.ws
    sel = np.abs(np.abs(eig.imag) - target) < 0.015 * prototype.ws
    assert np.any(sel)
    assert np.min(np.abs(eig.real[sel])) < 0.01 * prototype.ws


def test_eigenvalues_strictly_negative_when_overdamped(prototype):
    # 20x the nominal losses: still enough coupling to sustain the rectifier
    # back-EMF (the phase-locked operating point vanishes for extreme R)
    heavy = dataclasses.replace(prototype, R1=2.0, R2=2.0)
    model = gssa.build_envelope_model(heavy)
    eig = np.linalg.eigvals(model.state_matrix)
    assert np.all(eig.real < -1e4)


def test_equilibrium_failure_reported_for_unsustainable_damping(prototype):
    impossible = dataclasses.replace(prototype, R1=20.0, R2=20.0)
    with pytest.raises(ArithmeticError):
        gssa.build_envelope_model(impossible)


def test_bode_peak_near_half_k_ws(prototype):
    model = gssa.build_envelope_model(prototype)
    loc, _ = gssa.find_bode_peak(model, "u1->i1")
    assert abs(loc - 0.075) / 0.075 <= 0.10


def test_bode_peak_tracks_k():
    for k in (0.10, 0.15, 0.20):
        params = dataclasses.replace(plant.DEFAULT_PARAMS, k=k)
        model = gssa.build_envelope_model(params)
        loc, _ = gssa.find_bode_peak(model, "u1->i1")
        assert abs(loc - 0.5 * k) / (0.5 * k) <= 0.15


def test_bode_peak_doubles_with_k():
    locs = {}
    for k in (0.15, 0.30):
        params = dataclasses.replace(plant.DEFAULT_PARAMS, k=k)
        model = gssa.build_envelope_model(params)
        locs[k], _ = gssa.find_bode_peak(model, "u1->i1", ratio_max=0.35)
    assert locs[0.30] / locs[0.15] == pytest.approx(2.0, rel=0.15)


def test_dc_gain_matches_static_resolve_oracle(prototype):
    # independent oracle: re-solve the equilibrium at perturbed amplitude
    model = gssa.build_envelope_model(prototype)
    a1 = 4.0 * prototype.Vg / math.pi   # the model's default full-power drives
    a2 = 4.0 * prototype.Vo / math.pi
    delta = 1e-3 * a1
    hi = gssa.build_envelope_model(prototype, a1=a1 + delta, a2=a2)
    lo = gssa.build_envelope_model(prototype, a1=a1 - delta, a2=a2)
    static_gain = (hi.i1_amp - lo.i1_amp) / (2 * delta)
    rows = gssa.amplitude_bode(model, "u1->i1", np.array([2 * math.pi * 1.0]))
    dyn_gain = 10.0 ** (rows[0, 1] / 20.0)
    assert dyn_gain == pytest.approx(abs(static_gain), rel=0.01)


def test_bode_rejects_unknown_channel(prototype):
    model = gssa.build_envelope_model(prototype)
    with pytest.raises(ValueError):
        gssa.amplitude_bode(model, "u3->i1", np.array([1.0]))


def test_nonlinear_envelope_matches_switching_sim(prototype, full_power_trace):
    a1 = 4 * prototype.Vg / math.pi
    a2 = 4 * prototype.Vo / math.pi
    t, z = gssa.simulate_envelope(prototype, a1, a2, duration=3e-3)
    i1_env = 2 * np.abs(z[:, 0])
    i2_env = 2 * np.abs(z[:, 1])
    tail_env = t > 2.5e-3
    tail_tr = full_power_trace.envelope_t > 2.5e-3
    assert i1_env[tail_env].mean() == pytest.approx(
        full_power_trace.envelope_i1[tail_tr].mean(), rel=0.02)
    assert i2_env[tail_env].mean() == pytest.approx(
        full_power_trace.envelope_i2[tail_tr].mean(), rel=0.02)


@pytest.mark.slow
def test_pulse_driven_envelope_matches_switching_fluctuation(prototype):
    # Drive the nonlinear envelope model with the actual pulse sequence: a
    # fully independent integration path (complex envelope ODE vs switching
    # RK4) must reproduce the envelope fluctuation of the co-simulation.
    from tsepdm import experiments, modulator as mod
    from tsepdm.analysis import fluctuation

    tf = experiments.make_ntf("tse")
    half = 0.5 / prototype.fs
    y, _ = mod.run(tf, 0.963, n_ticks=int(round(5e-3 / half)))
    amp1 = 4 * prototype.Vg / math.pi

    def a1_fn(t):
        return amp1 * y[min(int(t / half), len(y) - 1)]

    t_env, z = gssa.simulate_envelope(prototype, a1_fn,
                                      4 * prototype.Vo / math.pi,
                                      duration=5e-3, dt=5e-8)
    rep_env = fluctuation(t_env, 2 * np.abs(z[:, 0]), settle=2e-3, window=3e-3)

    cfg = plant.SimConfig(duration=5e-3, collect_samples=False)
    trace = plant.simulate(prototype, cfg, PulseDensityModulator(tf),
                           PulseDensityModulator(tf), 0.963, 1.0)
    rep_sw = fluctuation(trace.envelope_t, trace.envelope_i1,
                         settle=2e-3, window=3e-3)

    assert rep_env.i_mean == pytest.approx(rep_sw.i_mean, rel=0.02)
    assert rep_env.fluctuation_pct == pytest.approx(rep_sw.fluctuation_pct,
                                                    abs=3.0)


@pytest.mark.slow
def test_rail_modulation_ripple_peaks_at_beat_frequency(prototype):
    # Drive the switching model with an amplitude-modulated rail and scan the
    # modulation frequency around k ws / 2: the envelope ripple must be
    # largest at the predicted beat resonance (sideband-pair equivalence).
    beat = resonant_peak_prediction(prototype)
    ripples = []
    factors = (0.5, 0.75, 1.0, 1.25, 1.5)
    for factor in factors:
        dw = factor * beat
        cfg = plant.SimConfig(duration=3e-3, collect_samples=False)
        half = 0.5 / prototype.fs  # the rail of each half cycle, read at its start
        vg = [prototype.Vg * (1.0 + 0.05 * math.cos(dw * (hc * half)))
              for hc in range(len(plant.half_cycle_ends(prototype, cfg.duration)))]
        trace = plant.simulate(
            prototype, cfg,
            PulseDensityModulator(build_first_order()),
            PulseDensityModulator(build_first_order()),
            1.0, 1.0, vg=vg)
        mask = trace.envelope_t > 1.5e-3
        env = trace.envelope_i1[mask]
        ripples.append(env.max() - env.min())
    assert int(np.argmax(ripples)) == factors.index(1.0)


def envelope_and_real_form(params, pulses, x0, n_steps, dt=5e-8):
    """`simulate_envelope` and the stacked real-form RK4 oracle over
    ``n_steps`` steps from ``x0``, at full-power amplitudes, the primary
    drive constant (``pulses`` None) or gated per half cycle by ``pulses``."""
    amp1 = 4 * params.Vg / math.pi
    amp2 = 4 * params.Vo / math.pi
    if pulses is None:
        a1, a1_fn = amp1, (lambda t: amp1)
    else:
        half = 0.5 / params.fs

        def a1_fn(t):
            return amp1 * pulses[min(int(t / half), len(pulses) - 1)]
        a1 = a1_fn
    duration = n_steps * dt
    return (gssa.simulate_envelope(params, a1, amp2, duration, dt=dt, initial=x0),
            simulate_envelope_real_form(params, a1_fn, lambda t: amp2, duration, dt, x0))


PULSES = np.random.default_rng(3).integers(0, 2, size=64).astype(float)


def drawn_state(seed):
    return np.random.default_rng(seed).normal(size=8) * [1, 1, 1, 1, 30, 30, 30, 30]


@pytest.mark.parametrize("k", [0.13, 0.17])
@pytest.mark.parametrize("drive", ["constant", "pulses"])
@pytest.mark.parametrize("start", ["zero", "random"])
def test_complex_rk4_bit_identical_to_real_form(prototype, k, drive, start):
    # 400 steps at dt = 5e-8 pass the rectifier lock (~step 67) and the
    # near-singular |z2| dip (~step 198), where k = 0.17 amplifies any
    # last-bit difference to ~1e-4
    params = dataclasses.replace(prototype, k=k)
    x0 = np.zeros(8) if start == "zero" else drawn_state(11)
    (t, z), (t_ref, z_ref) = envelope_and_real_form(
        params, None if drive == "constant" else PULSES, x0, 400)
    assert z.shape == (401, 4)
    assert t.tobytes() == t_ref.tobytes()
    assert z.tobytes() == z_ref.tobytes()


@settings(max_examples=20)
@given(k=st.floats(0.13, 0.17),
       pulses=st.none() | st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=8),
       seed=st.none() | st.integers(0, 2**32 - 1),
       n_steps=st.integers(50, 400))
def test_complex_rk4_bit_identical_to_real_form_on_drawn_runs(k, pulses, seed, n_steps):
    # the fixed cases above, over drawn couplings, gate patterns, initial
    # states and lengths
    params = dataclasses.replace(plant.DEFAULT_PARAMS, k=k)
    x0 = np.zeros(8) if seed is None else drawn_state(seed)
    (t, z), (t_ref, z_ref) = envelope_and_real_form(params, pulses, x0, n_steps)
    assert z.shape == (n_steps + 1, 4)
    assert t.tobytes() == t_ref.tobytes()
    assert z.tobytes() == z_ref.tobytes()


@pytest.mark.parametrize("k", [0.13, 0.15, 0.17])
def test_envelope_model_equals_central_difference_oracle(prototype, k):
    # the finite differences amplify a last-bit change in the rates to
    # 6e-8..3e-7 in the Bode peaks, so the matrices are compared byte for byte
    params = dataclasses.replace(prototype, k=k)
    a1 = 4 * params.Vg / math.pi
    a2 = 4 * params.Vo / math.pi
    A, B = plant.system_matrices(params)
    x0 = gssa._solve_equilibrium(A, B, params.ws, a1, a2)
    model = gssa.build_envelope_model(params)
    assert model.i1_amp == 2.0 * abs(complex(x0[0], x0[4]))
    want = envelope_linearisation(params, x0, a1, a2, gssa.FD_RELATIVE_STEP)
    got = (model.state_matrix, model.input_matrix, model.output_amplitudes)
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()


def test_envelope_drive_sampled_at_stage_times(prototype):
    times = []

    def a1(t):
        times.append(t)
        return 1.0
    gssa.simulate_envelope(prototype, a1, 1.0, 3e-7, dt=1e-7)
    assert times == [t for i in range(3) for t in
                     (i * 1e-7, i * 1e-7 + 0.5e-7, i * 1e-7 + 0.5e-7, i * 1e-7 + 1e-7)]


@pytest.mark.parametrize("kwargs, name", [
    ({"dt": 0.0}, "dt"), ({"dt": -1e-7}, "dt"), ({"dt": math.nan}, "dt"),
    ({"dt": math.inf}, "dt"),
    ({"duration": 1e-8}, "duration"), ({"duration": -1e-6}, "duration"),
    ({"duration": math.nan}, "duration"), ({"duration": math.inf}, "duration"),
    ({"initial": np.zeros(7)}, "initial"), ({"initial": np.zeros((2, 4))}, "initial"),
    ({"initial": np.r_[np.zeros(7), math.nan]}, "initial"),
    ({"initial": np.r_[np.zeros(7), math.inf]}, "initial"),
])
def test_simulate_envelope_rejects_bad_input(prototype, kwargs, name):
    args = {"duration": 1e-6, "dt": 1e-7} | kwargs
    with pytest.raises(ValueError, match=name):
        gssa.simulate_envelope(prototype, 1.0, 1.0, **args)


@pytest.mark.parametrize("name, value", [
    ("a1", "1.0"), ("a1", True), ("a1", 1.0 + 0j), ("a2", "1.0"), ("a2", False), ("a2", np.True_),
])
def test_simulate_envelope_rejects_non_real_amplitudes(prototype, name, value):
    amps = {"a1": 1.0, "a2": 1.0, name: value}
    with pytest.raises(TypeError, match=f"^{name} must be a real number"):
        gssa.simulate_envelope(prototype, duration=1e-6, **amps)


def test_simulate_envelope_reports_divergence(prototype):
    # a step far outside the RK4 stability region blows the state up
    with np.errstate(all="ignore"), pytest.raises(plant.SimulationDiverged):
        gssa.simulate_envelope(prototype, 1.0, 1.0, 2e-3, dt=1e-5)


@pytest.mark.parametrize("n_points", [1, 63, 64, 65, 600])
def test_blocked_bode_equals_per_frequency_solves(prototype, n_points):
    model = gssa.build_envelope_model(dataclasses.replace(prototype, k=0.17))
    dw = np.linspace(0.01, 0.25, n_points) * prototype.ws
    for which, (in_idx, out_idx) in gssa.CHANNELS.items():
        ref = per_frequency_bode_rows(model, in_idx, out_idx, dw)
        assert np.array_equal(gssa.amplitude_bode(model, which, dw), ref)


def per_frequency_bode_rows(model, in_idx, out_idx, dw):
    """`amplitude_bode` rows from one resolvent solve per frequency."""
    b_col = model.input_matrix[:, in_idx]
    c_row = model.output_amplitudes[out_idx]
    ref = np.empty((len(dw), 2))
    for i, w in enumerate(dw):
        g = c_row @ np.linalg.solve(1j * w * np.eye(8) - model.state_matrix, b_col)
        ref[i] = (w / model.params.ws, 20.0 * math.log10(abs(g)))
    return ref


def envelope_bit_identities():
    """Whether, on the running BLAS kernel, a 400-step pulse-driven
    `simulate_envelope` at k = 0.17 equals the real-form oracle and the
    blocked Bode rows of all four channels equal per-frequency solves,
    each byte for byte."""
    params = dataclasses.replace(plant.DEFAULT_PARAMS, k=0.17)
    (t, z), (t_ref, z_ref) = envelope_and_real_form(params, PULSES, np.zeros(8), 400)
    model = gssa.build_envelope_model(params)
    dw = np.linspace(0.01, 0.25, 600) * params.ws
    return {"rk4": t.tobytes() == t_ref.tobytes() and z.tobytes() == z_ref.tobytes(),
            "bode": all(np.array_equal(gssa.amplitude_bode(model, which, dw),
                                       per_frequency_bode_rows(model, *idx, dw))
                        for which, idx in gssa.CHANNELS.items())}


@pytest.mark.parametrize("delta_omega", [
    np.array([1e5, math.nan]), np.array([math.inf]), np.array([1e5, -math.inf]),
    1e5, np.full((2, 3), 1e5),
], ids=["nan", "inf", "-inf", "scalar", "2-d"])
def test_amplitude_bode_rejects_bad_frequencies(prototype, delta_omega):
    model = gssa.build_envelope_model(prototype)
    with pytest.raises(ValueError, match="delta_omega"):
        gssa.amplitude_bode(model, "u1->i1", delta_omega)


def test_find_bode_peak_is_peak_of_bode_rows(prototype):
    model = gssa.build_envelope_model(prototype)
    rows = gssa.amplitude_bode(model, "u2->i1",
                               np.linspace(0.02, 0.2, 90) * prototype.ws)
    assert gssa.find_bode_peak(model, "u2->i1", 0.02, 0.2, 90) == gssa.bode_peak(rows)
    assert gssa.bode_peak(rows)[1] == rows[:, 1].max()


@pytest.mark.parametrize("lo, hi, n", [
    (math.nan, 0.25, 600), (0.01, math.nan, 600), (0.01, math.inf, 600),
    (0.25, 0.01, 600), (0.1, 0.1, 600), (0.0, 0.25, 600), (-0.1, 0.25, 600),
    (0.01, 0.25, 0), (0.01, 0.25, -3),
    (0.01, 0.25, True), (0.01, 0.25, 600.0), (0.01, 0.25, np.float64(600)),
])
def test_find_bode_peak_rejects_bad_range(prototype, lo, hi, n):
    model = gssa.build_envelope_model(prototype)
    # a point count that is not an integer is a TypeError, before its value is read
    with pytest.raises(ValueError if type(n) is int else TypeError):
        gssa.find_bode_peak(model, "u1->i1", lo, hi, n)
