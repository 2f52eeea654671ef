"""Spectra, envelopes, fluctuation metrics, and the ZVS polarity proxy."""

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
    n = spec.length
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


def make_sine_trace(prototype, amp=3.0, mod_freq=0.0, depth=0.0, n_half=80,
                    steps=64):
    """Synthetic trace with known (optionally AM) sinusoidal currents."""
    dt = 0.5 / prototype.fs / steps
    n = n_half * steps + 1
    t = np.arange(n) * dt
    envelope = amp * (1.0 + depth * np.sin(2 * math.pi * mod_freq * t))
    i = envelope * np.sin(prototype.ws * t)
    states = np.zeros((n, 4))
    states[:, 0] = i
    states[:, 1] = i
    cfg = plant.SimConfig(duration=n_half * 0.5 / prototype.fs,
                          steps_per_half_cycle=steps)
    return plant.Trace(t=t, states=states, u=np.zeros((n, 2)), events=[],
                       envelope_t=np.empty(0), envelope_i1=np.empty(0),
                       envelope_i2=np.empty(0), diagnostics=[],
                       params=prototype, config=cfg, dt=dt)


def test_envelope_extract_recovers_constant_amplitude(prototype):
    steps = 64
    trace = make_sine_trace(prototype, amp=3.0, steps=steps)
    t, peaks = analysis.envelope_extract(trace, side=1)
    bound = 3.0 * math.pi ** 2 / (2 * steps ** 2)
    assert np.all(np.abs(peaks - 3.0) <= bound)
    assert len(t) == 80


def test_envelope_extract_zero_trace(prototype):
    trace = make_sine_trace(prototype, amp=0.0)
    _, peaks = analysis.envelope_extract(trace, side=2)
    assert np.all(peaks == 0.0)


def test_envelope_extract_recovers_modulation_depth(prototype):
    # 20 kHz AM on the carrier; per-half-cycle peaks trace the envelope
    trace = make_sine_trace(prototype, amp=3.0, mod_freq=20e3, depth=0.3,
                            n_half=240, steps=128)
    _, peaks = analysis.envelope_extract(trace, side=1)
    depth = (peaks.max() - peaks.min()) / (peaks.max() + peaks.min())
    assert depth == pytest.approx(0.3, rel=0.02)


def test_envelope_extract_matches_inline_envelope(prototype, full_power_trace):
    t, peaks = analysis.envelope_extract(full_power_trace, side=1)
    assert np.allclose(peaks, full_power_trace.envelope_i1, rtol=1e-12)
    assert np.allclose(t, full_power_trace.envelope_t, rtol=1e-12)


def test_envelope_extract_validation(prototype, full_power_trace):
    with pytest.raises(ValueError):
        analysis.envelope_extract(full_power_trace, side=3)
    short = make_sine_trace(prototype, n_half=10)
    with pytest.raises(ValueError):
        analysis.envelope_extract(short, side=1)


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


def test_zvs_all_pass_at_full_power(prototype, full_power_trace):
    # after the startup beat transient (~5 envelope time constants) every
    # commutation is soft; at exact resonance the toggle-instant current is
    # small, so the transient's phase wobble fails a few early edges
    checks = analysis.zvs_polarity_check(full_power_trace)
    steady = [c for c in checks if c.t > 1.5e-3]
    assert steady
    assert all(c.ok for c in steady)
    assert analysis.zvs_pass_rate(checks, "secondary") == 1.0


def test_zvs_pass_rate_of_empty_selection_is_nan(full_power_trace):
    # an empty selection is no evidence of soft switching, so it must not
    # read as a perfect pass
    checks = analysis.zvs_polarity_check(full_power_trace)
    primary = [c for c in checks if c.side == "primary"]
    assert primary and len(primary) < len(checks)
    # no secondary event at all
    assert math.isnan(analysis.zvs_pass_rate(primary, "secondary"))
    assert math.isnan(analysis.zvs_pass_rate([]))
    # a threshold above every edge's current
    above = 2.0 * max(abs(c.current) for c in checks)
    assert math.isnan(analysis.zvs_pass_rate(checks, min_current=above))
    assert math.isnan(analysis.zvs_pass_rate(checks, "secondary", min_current=above))
    assert 0.0 <= analysis.zvs_pass_rate(primary, "primary") <= 1.0


def test_zvs_zero_current_edge_fails(prototype):
    cfg = plant.SimConfig(duration=0.2e-3, collect_samples=True)
    trace = make_sine_trace(prototype, amp=0.0, n_half=40)
    trace.events.append(plant.GateEvent(0, "primary", 1, 1, 0.0))
    trace.events.append(plant.GateEvent(0, "secondary", 1, 1, 5e-6))
    checks = analysis.zvs_polarity_check(trace)
    assert not any(c.ok for c in checks)


def test_zvs_requires_samples(prototype):
    cfg = plant.SimConfig(duration=0.2e-3, collect_samples=False)
    trace = plant.simulate(prototype, cfg, PulseDensityModulator(NTF1),
                           PulseDensityModulator(NTF1), 1.0, 1.0)
    with pytest.raises(ValueError):
        analysis.zvs_polarity_check(trace)


@pytest.mark.slow
def test_zvs_pass_rate_tse_not_worse_than_first_order(prototype):
    # decisive commutations only: at 5% of the operating amplitude the edge
    # moves real charge; the abnormal oscillation under the first-order NTF
    # throws such edges onto the wrong polarity, the notch NTF does not
    I1, _ = plant.phasor_steady_state(prototype)
    threshold = 0.05 * abs(I1)
    rates = {}
    for name, tf in (("first", NTF1), ("tse", NTF3)):
        cfg = plant.SimConfig(duration=5e-3, collect_samples=True)
        trace = plant.simulate(prototype, cfg, PulseDensityModulator(tf),
                               PulseDensityModulator(tf), 0.963, 1.0)
        checks = [c for c in analysis.zvs_polarity_check(trace) if c.t > 2e-3]
        rates[name] = analysis.zvs_pass_rate(checks, "primary",
                                             min_current=threshold)
    # Under the notch NTF no primary edge is decisive: none moves enough
    # charge to switch hard, and there is no rate to compare (NaN).
    assert math.isnan(rates["tse"])
    assert rates["first"] < 1.0  # the oscillation really disrupts commutation
