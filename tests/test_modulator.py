"""Error-feedback modulator: recurrences, stability band, gating."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import signal

from tsepdm import modulator as mod
from tsepdm import ntf


NTF1 = ntf.build_first_order()
NTF3 = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9))


def accumulator_oracle(densities):
    """Classic first-order accumulate-and-subtract loop (independent oracle)."""
    v = 0.0
    y_prev = 0
    ys = []
    for d in densities:
        v = v + d - y_prev
        y = 1 if v >= 1.0 else 0
        ys.append(y)
        y_prev = y
    return np.array(ys)


def reconstruct_density(ntf_obj, y, e):
    """Invert the modulator relation: d = y - e + (H * e), H = 1 - NTF.

    Uses scipy's filter as an independent realization of H.
    """
    h = ntf.to_error_filter(ntf_obj)
    order = h.order
    b = np.zeros(order + 1)
    b[order + 1 - len(h.num):] = h.num
    a = np.asarray(h.den)
    w = signal.lfilter(b, a, e)
    return y - e + w


def test_first_order_matches_accumulator_oracle():
    rng = np.random.default_rng(42)
    d = rng.uniform(0.0, 1.0, size=2000)
    y, _ = mod.run(NTF1, d)
    assert np.array_equal(y, accumulator_oracle(d))


def test_half_density_alternates():
    y, _ = mod.run(NTF1, 0.5, n_ticks=8)
    assert list(y) == [0, 1, 0, 1, 0, 1, 0, 1]


def test_full_density_all_ones_error_settles_to_zero():
    for tf in (NTF1, NTF3):
        y, e = mod.run(tf, 1.0, n_ticks=64)
        assert np.all(y == 1)
        assert np.allclose(e[tf.order:], 0.0, atol=1e-12)


def test_zero_density_all_zeros():
    for tf in (NTF1, NTF3):
        y, _ = mod.run(tf, 0.0, n_ticks=64)
        assert np.all(y == 0)


def boundary_charge_bound(ntf_obj, n_taps=2000):
    """Max run-boundary pulse deficit: 1 + sum k*|h_k| over the error filter.

    mean(y) - d equals the h-weighted tail sums of e divided by n; with
    |e| <= 1 that is bounded by sum_k k*|h_k| pulses (plus one for the
    final unpaired error sample).
    """
    h = ntf.to_error_filter(ntf_obj)
    b = np.zeros(h.order + 1)
    b[h.order + 1 - len(h.num):] = h.num
    imp = signal.lfilter(b, np.asarray(h.den), np.eye(1, n_taps)[0])
    return 1.0 + np.sum(np.arange(n_taps) * np.abs(imp))


def test_mean_density_conserved_at_worst_case_point():
    # First-order: FIR error filter, deficit below one pulse.
    y, _ = mod.run(NTF1, 0.963, n_ticks=4096)
    assert abs(y.mean() - 0.963) <= 1 / 4096
    # Notch NTF: IIR error filter holds standing charge; the deficit is
    # bounded by the impulse-response moment, not by order + 1.
    y, _ = mod.run(NTF3, 0.963, n_ticks=4096)
    assert abs(y.mean() - 0.963) <= boundary_charge_bound(NTF3) / 4096


def test_mean_density_conserved_across_grid():
    n = 4096
    for tf in (NTF1, NTF3):
        bound = boundary_charge_bound(tf) / n
        for d in np.linspace(0.05, 0.95, 19):
            y, _ = mod.run(tf, d, n_ticks=n)
            assert abs(y.mean() - d) <= bound


def test_mean_density_error_vanishes_with_run_length():
    # The boundary charge is O(1) pulses, so the mean converges as 1/n.
    for tf in (NTF1, NTF3):
        devs = []
        for n in (2048, 8192, 32768):
            y, _ = mod.run(tf, 0.35, n_ticks=n)
            devs.append(abs(y.mean() - 0.35) * n)
        assert max(devs) <= boundary_charge_bound(tf)


def test_ramp_running_mean_tracks_input():
    n = 10_000
    d = mod.ramp_density(n)
    window = 1000
    for tf in (NTF1, NTF3):
        y, _ = mod.run(tf, d)
        kernel = np.ones(window) / window
        y_avg = np.convolve(y, kernel, mode="valid")
        d_avg = np.convolve(d, kernel, mode="valid")
        assert np.max(np.abs(y_avg - d_avg)) < 0.02


def test_exact_reconstruction_identity():
    rng = np.random.default_rng(7)
    for tf in (NTF1, NTF3):
        for d in (0.1, 0.963, None):
            dens = rng.uniform(0, 1, 5000) if d is None else np.full(5000, d)
            y, e = mod.run(tf, dens)
            d_hat = reconstruct_density(tf, y, e)
            assert np.max(np.abs(d_hat - dens)) <= 1e-9


@given(d=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=400),
       tf=st.sampled_from([NTF1, NTF3]))
def test_reconstruction_identity_for_any_density_sequence(d, tf):
    y, e = mod.run(tf, d)
    assert np.max(np.abs(reconstruct_density(tf, y, e) - np.asarray(d))) <= 1e-9


def test_step_rejects_non_finite_density():
    m = mod.PulseDensityModulator(NTF1)
    with pytest.raises(ValueError):
        m.step(float("nan"))


def test_run_rejects_out_of_range_density():
    with pytest.raises(ValueError):
        mod.run(NTF1, np.array([0.5, 1.2]))


def test_first_order_error_stays_in_band():
    rng = np.random.default_rng(123)
    for _ in range(10):
        d = rng.uniform(0.0, 1.0, size=3000)
        _, e = mod.run(NTF1, d)
        assert e.min() >= -1.0 - 1e-12
        assert e.max() <= 1e-12


@given(d=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=400))
def test_first_order_error_band_for_any_density_sequence(d):
    _, e = mod.run(NTF1, d)
    assert e.min() >= -1.0 - mod.STABILITY_TOL
    assert e.max() <= mod.STABILITY_TOL


def test_stability_probe_third_order_sinusoid():
    d = mod.sinusoid_density(20_000)
    report = mod.stability_probe(NTF3, d)
    assert report.violation_count == 0
    assert -1.0 - 1e-9 <= report.e_min and report.e_max <= 1e-9


def test_stability_probe_third_order_ramp():
    report = mod.stability_probe(NTF3, mod.ramp_density(20_000))
    assert report.violation_count == 0


def test_stability_probe_first_order_constant_grid():
    for d in np.arange(0.1, 0.95, 0.1):
        report = mod.stability_probe(NTF1, float(d), n_ticks=5000)
        assert report.violation_count == 0
        assert report.mean_density_error < 1e-3


def test_const_grid_batch_matches_scalar_runs():
    d_values = [0.1, 0.25, 0.5, 0.75, 0.963]
    for tf in (NTF1, NTF3):
        y_b, e_b = mod.run_const_grid(tf, d_values, 400)
        for j, d in enumerate(d_values):
            y_s, e_s = mod.run(tf, d, n_ticks=400)
            assert np.array_equal(y_b[:, j], y_s)
            assert np.array_equal(e_b[:, j], e_s)


@given(d_values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6, unique=True),
       n_ticks=st.integers(1, 300), tf=st.sampled_from([NTF1, NTF3]))
def test_const_grid_batch_matches_scalar_runs_for_any_densities(d_values, n_ticks, tf):
    y_b, e_b = mod.run_const_grid(tf, d_values, n_ticks)
    for j, d in enumerate(d_values):
        y_s, e_s = mod.run(tf, d, n_ticks=n_ticks)
        assert np.array_equal(y_b[:, j], y_s)
        assert np.array_equal(e_b[:, j], e_s)


def test_determinism_bit_identical():
    d = mod.sinusoid_density(4096)
    y1, e1 = mod.run(NTF3, d)
    y2, e2 = mod.run(NTF3, d)
    assert np.array_equal(y1, y2)
    assert np.array_equal(e1, e2)


def test_gate_split_full_square_wave():
    gates = mod.gate_split([1, 1, 1, 1])
    assert list(gates.s) == [1, -1, 1, -1]
    assert list(gates.a) == [1, 0, 1, 0]
    assert list(gates.b) == [0, 1, 0, 1]


def test_gate_split_carrier_free_runs_through_skips():
    gates = mod.gate_split([1, 1, 0, 1])
    assert list(gates.s) == [1, -1, 0, -1]


def test_gate_split_all_zero():
    gates = mod.gate_split([0, 0, 0])
    assert not np.any(gates.s)


def test_gate_split_magnitude_matches_y():
    rng = np.random.default_rng(5)
    y = (rng.uniform(size=500) > 0.3).astype(int)
    for phase in (1, -1):
        gates = mod.gate_split(y, carrier_phase0=phase)
        assert np.array_equal(np.abs(gates.s), y)
        zero_mask = gates.s == 0
        assert np.array_equal(zero_mask, y == 0)


def test_gate_split_rejects_bad_phase():
    with pytest.raises(ValueError):
        mod.gate_split([1, 0], carrier_phase0=0)


@given(d=st.lists(st.floats(0.0, 1.0), max_size=300), tf=st.sampled_from([NTF1, NTF3]))
def test_fresh_modulator_steps_match_run(d, tf):
    m = mod.PulseDensityModulator(tf)
    assert m.e_history == [0.0] * tf.order
    assert m.w_history == [0.0] * tf.order
    stepped = [m.step(x) for x in d]
    assert all(type(y) is int for y in stepped)
    y, _ = mod.run(tf, d)
    assert np.array_equal(np.array(stepped, dtype=np.int8), y)
