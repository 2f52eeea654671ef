"""Spectra, the envelope oracle of the simulator, and fluctuation metrics."""

import dataclasses
import math

import numpy as np
import pytest

from tsepdm import analysis, plant
from tsepdm.modulator import PulseDensityModulator, gate_split, run
from tsepdm.ntf import NtfDesignSpec, build_first_order, build_third_order

NTF1 = build_first_order()
NTF3 = build_third_order(NtfDesignSpec(0.075, 0.9))


def test_alternating_sequence_is_a_switching_line():
    x = (-1.0) ** np.arange(4096)
    spec = analysis.spectrum_of_sequence(x)
    peak = np.argmax(spec.magnitudes)
    assert spec.ratios[peak] == pytest.approx(1.0)
    others = np.delete(spec.magnitudes, peak)
    assert others.max() < 1e-9 * spec.magnitudes[peak]


def test_spectrum_requires_long_sequence():
    with pytest.raises(ValueError):
        analysis.spectrum_of_sequence(np.ones(512))


def test_spectrum_rejects_unknown_window():
    with pytest.raises(ValueError):
        analysis.spectrum_of_sequence(np.ones(2048), window="hamming")


def test_parseval_identity_rectangular():
    rng = np.random.default_rng(11)
    x = rng.normal(size=4096)
    spec = analysis.spectrum_of_sequence(x)
    n = len(x)
    m = spec.magnitudes
    lhs = (m[0] ** 2 + m[-1] ** 2 + 2.0 * np.sum(m[1:-1] ** 2)) / n
    rhs = np.sum(x ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_hann_window_contains_off_bin_leakage():
    # an off-bin tone leaks far less around the peak under a hann window
    n = 4096
    t = np.arange(n)
    x = np.sin(2 * math.pi * (100.5 / n) * t)
    away = {}
    for window in ("rectangular", "hann"):
        spec = analysis.spectrum_of_sequence(x, window=window)
        peak = np.argmax(spec.magnitudes)
        far = np.abs(np.arange(len(spec.magnitudes)) - peak) > 20
        away[window] = spec.magnitudes[far].max() / spec.magnitudes[peak]
    assert away["hann"] < 0.01 * away["rectangular"]


def test_gating_mirrors_spectrum_bin_exact():
    y, _ = run(NTF1, 0.963, n_ticks=4096)
    s = gate_split(y)
    spec_y = analysis.spectrum_of_sequence(y)
    spec_s = analysis.spectrum_of_sequence(s.astype(float))
    assert np.allclose(spec_s.magnitudes, spec_y.magnitudes[::-1],
                       rtol=1e-12, atol=1e-9)


def test_notch_band_suppression_and_paired_sidebands():
    n = 4096
    bands_y = {}
    bands_s = {}
    for name, tf in (("first", NTF1), ("tse", NTF3)):
        y, _ = run(tf, 0.963, n_ticks=n)
        bands_y[name] = analysis.band_level_db(
            analysis.spectrum_of_sequence(y), 0.075, 0.005)
        spec_s = analysis.gate_waveform_spectrum(gate_split(y), oversample=4)
        bands_s[name] = (analysis.band_level_db(spec_s, 0.925, 0.005),
                         analysis.band_level_db(spec_s, 1.075, 0.005))
    assert bands_y["first"] - bands_y["tse"] >= 20.0
    assert bands_s["first"][0] - bands_s["tse"][0] >= 20.0
    assert bands_s["first"][1] - bands_s["tse"][1] >= 20.0


def test_gate_waveform_spectrum_axis():
    y = np.ones(2048)
    spec = analysis.gate_waveform_spectrum(gate_split(y), oversample=4)
    assert spec.ratios[-1] == pytest.approx(4.0)
    # full-density gating is the pure carrier: a line at the switching ratio
    peak = np.argmax(spec.magnitudes)
    assert spec.ratios[peak] == pytest.approx(1.0)


def envelope_extract(col, steps):
    """Per-half-cycle peak of |col|, the oracle of ``Trace.envelope_i1/i2``.

    ``col`` holds 1 + n steps samples of one current; half cycle hc spans
    samples hc steps .. (hc + 1) steps, both ends included.
    """
    n_half, rest = divmod(len(col) - 1, steps)
    if n_half < 1 or rest:
        raise ValueError(f"need 1 + n * {steps} samples with n >= 1, got {len(col)}")
    mag = np.abs(col)
    return np.array([mag[hc * steps: (hc + 1) * steps + 1].max() for hc in range(n_half)])


def make_sine_current(prototype, amp=3.0, mod_freq=0.0, depth=0.0, n_half=80,
                      steps=64):
    """Samples of a sinusoidal current with a known (optionally AM) envelope."""
    t = np.arange(n_half * steps + 1) * (0.5 / prototype.fs / steps)
    return amp * (1.0 + depth * np.sin(2 * math.pi * mod_freq * t)) * np.sin(prototype.ws * t)


def test_envelope_extract_recovers_constant_amplitude(prototype):
    steps = 64
    peaks = envelope_extract(make_sine_current(prototype, amp=3.0, steps=steps), steps)
    bound = 3.0 * math.pi ** 2 / (2 * steps ** 2)
    assert np.all(np.abs(peaks - 3.0) <= bound)
    assert len(peaks) == 80


def test_envelope_extract_zero_trace(prototype):
    peaks = envelope_extract(make_sine_current(prototype, amp=0.0), 64)
    assert np.all(peaks == 0.0)


def test_envelope_extract_recovers_modulation_depth(prototype):
    # 20 kHz AM on the carrier; per-half-cycle peaks trace the envelope
    peaks = envelope_extract(make_sine_current(prototype, amp=3.0, mod_freq=20e3,
                                               depth=0.3, n_half=240, steps=128), 128)
    depth = (peaks.max() - peaks.min()) / (peaks.max() + peaks.min())
    assert depth == pytest.approx(0.3, rel=0.02)


def test_envelope_extract_matches_inline_envelope(full_power_config, full_power_trace):
    steps = full_power_config.steps_per_half_cycle
    for col, env in ((0, full_power_trace.envelope_i1), (1, full_power_trace.envelope_i2)):
        assert np.array_equal(envelope_extract(full_power_trace.states[:, col], steps), env)


# 1 ms runs that skip pulses: (params, ntf, d1, d2)
SKIPPING_RUNS = {
    "primary-tse": (plant.DEFAULT_PARAMS, NTF3, 0.963, 1.0),
    "secondary-tse-detuned": (dataclasses.replace(plant.DEFAULT_PARAMS, k=0.13),
                              build_third_order(NtfDesignSpec(0.065, 0.9)), 1.0, 0.983),
    "primary-first": (plant.DEFAULT_PARAMS, NTF1, 0.503, 1.0),
    "secondary-first": (plant.DEFAULT_PARAMS, NTF1, 1.0, 0.7),
}


@pytest.mark.parametrize("steps", [64, 256])
@pytest.mark.parametrize("case", SKIPPING_RUNS)
def test_envelope_extract_equals_inline_envelope_on_skipping_runs(case, steps):
    params, tf, d1, d2 = SKIPPING_RUNS[case]
    cfg = plant.SimConfig(duration=1e-3, steps_per_half_cycle=steps)
    tr = plant.simulate(params, cfg, PulseDensityModulator(tf), PulseDensityModulator(tf),
                        d1, d2)
    side = "primary" if d1 < 1.0 else "secondary"
    assert any(ev.y == 0 for ev in tr.events if ev.side == side)  # pulses were skipped
    assert np.array_equal(envelope_extract(tr.states[:, 0], steps), tr.envelope_i1)
    assert np.array_equal(envelope_extract(tr.states[:, 1], steps), tr.envelope_i2)


def test_envelope_extract_validation(prototype):
    # no samples (a run without collected samples), or a partial half cycle
    for col in (np.empty(0), make_sine_current(prototype, n_half=10)[:-1]):
        with pytest.raises(ValueError):
            envelope_extract(col, 64)


def test_fluctuation_constant_envelope():
    t = np.linspace(0, 6e-3, 1000)
    rep = analysis.fluctuation(t, np.full(1000, 2.5))
    assert rep.fluctuation_pct == 0.0
    assert rep.i_mean == pytest.approx(2.5)


def test_fluctuation_of_all_zero_envelope_is_nan():
    t = np.linspace(0, 6e-3, 1000)
    rep = analysis.fluctuation(t, np.zeros(1000), d=0.0, side="i1")
    assert math.isnan(rep.fluctuation_pct)
    assert rep.i_max == rep.i_min == rep.i_mean == 0.0


def test_degenerate_flags_only_the_non_finite_report():
    t = np.linspace(0, 6e-3, 1000)
    zero = analysis.fluctuation(t, np.zeros(1000), d=0.0, side="i1")
    finite = analysis.fluctuation(t, 2.0 + np.cos(2e4 * t), d=0.5, side="i1")
    assert zero.degenerate
    assert not finite.degenerate and math.isfinite(finite.fluctuation_pct)
    # a property, not a field: report tuples keep their six entries
    assert len(dataclasses.astuple(zero)) == 6


def test_fluctuation_cosine_envelope_is_sixty_percent():
    t = np.linspace(0, 6e-3, 20000)
    env = 1.0 + 0.3 * np.cos(2 * math.pi * 30e3 * t)
    rep = analysis.fluctuation(t, env)
    assert rep.fluctuation_pct == pytest.approx(60.0, abs=0.2)


def test_fluctuation_scale_invariant():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 6e-3, 5000)
    env = 2.0 + rng.uniform(-0.5, 0.5, 5000)
    r1 = analysis.fluctuation(t, env)
    r2 = analysis.fluctuation(t, 7.3 * env)
    assert r1.fluctuation_pct == pytest.approx(r2.fluctuation_pct, rel=1e-12)


def test_fluctuation_empty_window_raises():
    t = np.linspace(0, 1e-3, 100)
    with pytest.raises(ValueError):
        analysis.fluctuation(t, np.ones(100), settle=2e-3, window=3e-3)


def test_fluctuation_ordering_invariant():
    t = np.linspace(0, 6e-3, 5000)
    env = 5.0 + np.sin(2 * math.pi * 10e3 * t)
    rep = analysis.fluctuation(t, env)
    assert rep.i_min <= rep.i_mean <= rep.i_max
    assert rep.fluctuation_pct >= 0.0
