"""End-to-end acceptance criteria.

One test per criterion; each records a PASS/FAIL line (echoed in the
terminal summary) with the measured values before asserting the stated
tolerance. Criteria 4, 8, and 9 carry bounds that the idealized model
cannot meet in full (see the repository README for the measured floors);
their tests assert the stated bounds verbatim and are expected to fail
honestly rather than loosen the check.
"""

import cmath
import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import signal

from oracles import band_level_db, gate_waveform_spectrum, phasor_steady_state, resonance_report
from tsepdm import analysis, experiments, gssa, modulator as mod, ntf, plant
from tsepdm.modulator import PulseDensityModulator

RESULTS: list[str] = []

NTF1 = ntf.build_first_order()
NTF3 = ntf.build_third_order(ntf.NtfDesignSpec(0.075, 0.9))
WORKERS = min(os.cpu_count() or 1, 4)

pytestmark = pytest.mark.acceptance


def record(num: int, ok: bool, detail: str) -> bool:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    RESULTS.append(line)
    print(line)
    return ok


def reconstruct(tf, y, e):
    h = ntf.to_error_filter(tf)
    b = np.zeros(h.order + 1)
    b[h.order + 1 - len(h.num):] = h.num
    return y - e + signal.lfilter(b, np.asarray(h.den), e, axis=0)


@pytest.fixture(scope="module")
def sweeps(prototype):
    cache: dict = {}

    def get(side: str, kind: str, rho: float = 0.075):
        key = (side, kind, rho)
        if key not in cache:
            preset = experiments.ExperimentPreset(
                name=f"{side}-{kind}-{rho}", side=side, ntf_kind=kind, rho=rho)
            cache[key] = experiments.run_density_sweep(prototype, preset,
                                                       workers=WORKERS)
        return cache[key]

    return get


def test_criterion_01_ntf_construction():
    z_notch = np.exp(1j * math.pi * 0.075)
    dc = abs(ntf.evaluate(NTF3, 1.0))
    notch_p = abs(ntf.evaluate(NTF3, z_notch))
    notch_m = abs(ntf.evaluate(NTF3, z_notch.conjugate()))
    rng = np.random.default_rng(20250817)
    worst_rel = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z1 = np.exp(1j * math.pi * 0.075)
        factored = ((z - 1) * (z - z1) * (z - np.conj(z1))
                    / ((z - 0.9) * (z - 0.9 * z1) * (z - 0.9 * np.conj(z1))))
        rel = abs(ntf.evaluate(NTF3, z) - factored) / max(1.0, abs(factored))
        worst_rel = max(worst_rel, rel)
    ok = dc < 1e-9 and notch_p < 1e-9 and notch_m < 1e-9 and worst_rel <= 1e-10
    record(1, ok, f"NTF3 |H(1)|={dc:.2e}, |H(e^jpi0.075)|={notch_p:.2e}, "
                  f"factored-vs-expanded worst rel err={worst_rel:.2e}")
    assert ok


def test_criterion_02_exact_reconstruction():
    densities = [0.1, 0.25, 0.5, 0.75, 0.963]
    worst = 0.0
    for tf in (NTF1, NTF3):
        y, e = mod.run_const_grid(tf, densities, 100_000)
        d_hat = reconstruct(tf, y, e)
        err = np.abs(d_hat - np.asarray(densities)[None, :]).max()
        worst = max(worst, float(err))
    ok = worst <= 1e-9
    record(2, ok, f"max |d_hat - d| = {worst:.2e} over both NTFs, "
                  f"5 densities, 1e5 ticks")
    assert ok


def test_criterion_03_stability_probes():
    grid = experiments.standard_density_grid()
    n = 100_000
    total_violations = 0
    e_lo, e_hi = 0.0, -1.0
    for rho in (0.065, 0.075, 0.085):
        tf = ntf.build_third_order(ntf.NtfDesignSpec(rho, 0.9))
        _, e_grid = mod.run_const_grid(tf, grid, n)
        total_violations += int(np.count_nonzero(
            (e_grid < -1.0 - 1e-9) | (e_grid > 1e-9)))
        e_lo = min(e_lo, float(e_grid.min()))
        e_hi = max(e_hi, float(e_grid.max()))
        for probe in (mod.sinusoid_density(n), mod.ramp_density(n)):
            _, e = mod.run(tf, probe)
            total_violations += mod.count_violations(e)
            e_lo = min(e_lo, float(e.min()))
            e_hi = max(e_hi, float(e.max()))
    ok = total_violations == 0
    record(3, ok, f"rho in (0.065, 0.075, 0.085): e range "
                  f"[{e_lo:.6f}, {e_hi:.6f}], violations={total_violations}")
    assert ok


def test_criterion_04_density_conservation():
    n = 4096
    bound = 4.0 / n
    worsts = {}
    for name, tf in (("NTF1", NTF1), ("NTF3", NTF3)):
        grid = experiments.standard_density_grid()
        y, _ = mod.run_const_grid(tf, grid, n)
        devs = np.abs(y.mean(axis=0) - np.asarray(grid))
        worsts[name] = float(devs.max())
    ok = all(w <= bound for w in worsts.values())
    record(4, ok, f"|mean(y)-d| worst: NTF1={worsts['NTF1']*n:.2f}, "
                  f"NTF3={worsts['NTF3']*n:.2f} pulses (bound 4); the notch "
                  f"NTF's IIR error filter holds up to G(1) = 9.25 pulses of "
                  f"boundary charge, so the stated bound is unattainable")
    assert worsts["NTF1"] <= bound
    assert worsts["NTF3"] <= bound  # known spec defect: fails honestly


def test_criterion_05_spectral_notch():
    n = 2 ** 14
    y_bands = {}
    s_bands = {}
    for name, tf in (("first", NTF1), ("tse", NTF3)):
        y, _ = mod.run(tf, 0.963, n_ticks=n)
        y_bands[name] = band_level_db(
            analysis.spectrum_of_sequence(y), 0.075, 0.005)
        spec_s = gate_waveform_spectrum(mod.gate_split(y), oversample=8)
        s_bands[name] = (band_level_db(spec_s, 0.925, 0.005),
                         band_level_db(spec_s, 1.075, 0.005))
    supp_y = y_bands["first"] - y_bands["tse"]
    supp_lo = s_bands["first"][0] - s_bands["tse"][0]
    supp_hi = s_bands["first"][1] - s_bands["tse"][1]
    ok = supp_y >= 20.0 and supp_lo >= 20.0 and supp_hi >= 20.0
    record(5, ok, f"suppression vs first-order: y@0.075 = {supp_y:.1f} dB, "
                  f"s@0.925 = {supp_lo:.1f} dB, s@1.075 = {supp_hi:.1f} dB")
    assert ok


def test_criterion_06_gssa_peak(prototype):
    model = gssa.build_envelope_model(prototype)
    loc, _ = gssa.find_bode_peak(model, "u1->i1")
    err15 = abs(loc - 0.075) / 0.075
    track_errs = []
    for k in (0.10, 0.15, 0.20):
        params = dataclasses.replace(prototype, k=k)
        loc_k, _ = gssa.find_bode_peak(gssa.build_envelope_model(params), "u1->i1")
        track_errs.append(abs(loc_k - 0.5 * k) / (0.5 * k))
    ok = err15 <= 0.10 and max(track_errs) <= 0.15
    record(6, ok, f"peak at {loc:.4f} ws (err {err15*100:.1f}% of 0.075); "
                  f"k-tracking errors {[f'{e*100:.1f}%' for e in track_errs]}")
    assert ok


def test_criterion_07_cosim_steady_state(prototype, full_power_trace):
    I1, I2 = phasor_steady_state(prototype)
    tail = full_power_trace.envelope_t > 2.5e-3
    a1 = full_power_trace.envelope_i1[tail].mean()
    a2 = full_power_trace.envelope_i2[tail].mean()
    rel1 = abs(a1 - abs(I1)) / abs(I1)
    rel2 = abs(a2 - abs(I2)) / abs(I2)
    rep = resonance_report(prototype)
    f01_ok = abs(rep["f01"] - 1 / (2 * math.pi * math.sqrt(31.7e-6 * 8.88e-9))) < 1.0
    f02_ok = abs(rep["f02"] - 1 / (2 * math.pi * math.sqrt(29.7e-6 * 9.47e-9))) < 1.0
    in_band = 299.5e3 < rep["f01"] < 300.5e3 and 299.6e3 < rep["f02"] < 300.6e3
    ok = rel1 <= 0.02 and rel2 <= 0.02 and f01_ok and f02_ok and in_band
    record(7, ok, f"amplitude errors vs phasor oracle: i1 {rel1*100:.2f}%, "
                  f"i2 {rel2*100:.2f}%; f01={rep['f01']/1e3:.1f} kHz, "
                  f"f02={rep['f02']/1e3:.1f} kHz")
    assert ok


def test_criterion_08_oscillation_suppression(sweeps):
    details = []
    ntf1_ok = True
    tse_ok = True
    tse_worst = 0.0
    for side in ("primary", "secondary"):
        conv = sweeps(side, "first")
        tse = sweeps(side, "tse")
        conv_worst = max(conv, key=lambda r: r.fluctuation_pct)
        over = [r for r in tse if r.fluctuation_pct > 25.0]
        tse_worst = max(tse_worst, max(r.fluctuation_pct for r in tse))
        ntf1_ok &= conv_worst.fluctuation_pct >= 40.0
        tse_ok &= not over
        details.append(f"{side}: NTF1 worst {conv_worst.fluctuation_pct:.0f}% "
                       f"at d={conv_worst.d}, TSE worst "
                       f"{max(r.fluctuation_pct for r in tse):.0f}% "
                       f"({len(over)} pts > 25%)")
    ok = ntf1_ok and tse_ok
    record(8, ok, "; ".join(details) + "; TSE 25% bound unattainable at "
                  "d >= 0.93 (single-skip droop ~22% plus ring, ESR-only damping)")
    assert ntf1_ok
    assert tse_ok  # known spec defect at the top of the grid: fails honestly


def test_criterion_08_reason_a_single_skip_rings_down_at_the_envelope_time_constant(prototype):
    # One forced primary skip (d1 = 0 at the tick of half cycle 900, 1.5 ms)
    # in a full-power notch run dips the envelope by ~22% (21.95% i1,
    # 22.63% i2 against the same run without it), and the dip rings down
    # with the time constant of the GSSA model's slowest envelope mode
    # (0.18601 ms at 0.0751 ws): a log-linear fit over the local maxima of
    # the relative deviation gives 0.18557 ms (i1) and 0.18541 ms (i2).
    # Near the top of the density grid skips recur faster than that.
    eig = np.linalg.eigvals(gssa.build_envelope_model(prototype).state_matrix)
    slowest = eig[np.argmax(eig.real)]
    tau_gssa = -1.0 / slowest.real
    assert abs(slowest.imag) / prototype.ws == pytest.approx(0.0751, abs=5e-4)

    half = 0.5 / prototype.fs
    cfg = plant.SimConfig(duration=4e-3, collect_samples=False)
    d1_skip = np.ones(len(plant.half_cycle_ends(prototype, cfg.duration)))
    d1_skip[900] = 0.0
    ref, skip = (plant.simulate(prototype, cfg, PulseDensityModulator(NTF3),
                                PulseDensityModulator(NTF3), d1, 1.0)
                 for d1 in (1.0, d1_skip))
    assert np.flatnonzero(skip.s1 == 0).tolist() == [900]
    after = ref.envelope_t > 900 * half
    t = ref.envelope_t[after]
    for side in ("i1", "i2"):
        rel = (getattr(skip, f"envelope_{side}")[after]
               / getattr(ref, f"envelope_{side}")[after] - 1.0)
        assert 0.20 <= -rel.min() <= 0.24
        dev = np.abs(rel)
        peaks = np.flatnonzero((dev[1:-1] > dev[:-2]) & (dev[1:-1] >= dev[2:])) + 1
        peaks = peaks[dev[peaks] > 1e-3 * dev[peaks].max()]
        tau_ring = -1.0 / np.polyfit(t[peaks], np.log(dev[peaks]), 1)[0]
        assert tau_ring == pytest.approx(tau_gssa, rel=0.01)


def test_criterion_09_notch_detuning_robustness(sweeps):
    details = []
    ok = True
    for rho in (0.065, 0.085):
        reports = sweeps("secondary", "tse", rho)
        worst = max(reports, key=lambda r: r.fluctuation_pct)
        over = [r for r in reports if r.fluctuation_pct > 30.0]
        ok &= not over
        details.append(f"rho={rho}: worst {worst.fluctuation_pct:.0f}% at "
                       f"d={worst.d} ({len(over)} pts > 30%)")
    record(9, ok, "; ".join(details))
    assert ok  # same top-of-grid droop floor as criterion 8


def test_criterion_09_reason_detuned_notch_passes_the_beat_mode():
    # The envelope's slowest mode rings at 0.0751 ws (eigenvalues of the
    # GSSA state matrix at k = 0.15). The tuned notch nearly removes the
    # shaped noise there; either detuned notch passes more of it than even
    # the first-order NTF does.
    z = cmath.exp(1j * math.pi * 0.0751)
    notch = {rho: abs(ntf.evaluate(ntf.build_third_order(ntf.NtfDesignSpec(rho, 0.9)), z))
             for rho in (0.065, 0.075, 0.085)}
    assert notch[0.075] < 0.01
    assert abs(ntf.evaluate(NTF1, z)) < min(notch[0.065], notch[0.085])


def test_criterion_10_dynamic_tracking(prototype):
    rail = experiments.DYNAMIC_RAIL
    p15 = dataclasses.replace(prototype, Vg=rail, Vo=rail)
    tse = experiments.run_dynamic_response(p15, "tse")
    conv = experiments.run_dynamic_response(p15, "first")
    amp_ok = tse.amplitude_error_pct <= 10.0
    corr_ok = tse.corr_i1 > conv.corr_i1
    ok = amp_ok and corr_ok
    record(10, ok, f"y2@500Hz amplitude error {tse.amplitude_error_pct:.2f}% "
                   f"(bound 10%); tracking-current envelope correlation "
                   f"TSE {tse.corr_i1:.4f} vs NTF1 {conv.corr_i1:.4f}")
    assert ok


def test_criterion_11_numerical_hygiene(prototype):
    # RK4 order on an analytic RLC
    L, C, R = 31.7e-6, 8.88e-9, 0.1
    A = np.array([[-R / L, -1.0 / L], [1.0 / C, 0.0]])
    alpha = R / (2 * L)
    wd = math.sqrt(1.0 / (L * C) - alpha ** 2)

    def analytic(t):
        di0 = -(R * 3.0 + 100.0) / L
        return math.exp(-alpha * t) * (3.0 * math.cos(wd * t)
                                       + (di0 + alpha * 3.0) / wd * math.sin(wd * t))

    period = 2 * math.pi * math.sqrt(L * C)

    def err(h):
        # the simulator's step: the collapsed RK4 map x <- M x
        n = int(round(period / h))
        M, _ = plant.rk4_affine_maps(A, np.zeros((2, 1)), h)
        x = np.array([3.0, 100.0])
        for _ in range(n):
            x = M @ x
        return abs(x[0] - analytic(n * h))

    ratio = err(period / 256) / err(period / 512)
    order_ok = 12.0 < ratio < 20.0

    # passivity of the undriven tank
    cfg = plant.SimConfig(duration=0.4e-3, collect_samples=True,
                          initial_state=(4.0, -2.0, 150.0, -80.0))
    tr = plant.simulate(prototype, cfg, PulseDensityModulator(NTF1),
                        PulseDensityModulator(NTF1), 0.0, 0.0)
    s = tr.states
    energy = 0.5 * (prototype.L1 * s[:, 0] ** 2 + 2 * prototype.M * s[:, 0] * s[:, 1]
                    + prototype.L2 * s[:, 1] ** 2 + prototype.C1 * s[:, 2] ** 2
                    + prototype.C2 * s[:, 3] ** 2)
    passive_ok = bool((np.diff(energy) <= 1e-9 * energy[0]).all())

    # Parseval (rectangular window)
    rng = np.random.default_rng(99)
    x = rng.normal(size=4096)
    spec = analysis.spectrum_of_sequence(x)
    m = spec.magnitudes
    parseval_rel = abs((m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2))
                       / len(x) - np.sum(x ** 2)) / np.sum(x ** 2)
    parseval_ok = parseval_rel <= 1e-9

    # bit-identical reruns
    cfg2 = plant.SimConfig(duration=0.5e-3, collect_samples=True)
    t1 = plant.simulate(prototype, cfg2, PulseDensityModulator(NTF3),
                        PulseDensityModulator(NTF3), 0.963, 1.0)
    t2 = plant.simulate(prototype, cfg2, PulseDensityModulator(NTF3),
                        PulseDensityModulator(NTF3), 0.963, 1.0)
    identical = (np.array_equal(t1.states, t2.states)
                 and np.array_equal(t1.envelope_i1, t2.envelope_i1)
                 and t1.events == t2.events)

    ok = order_ok and passive_ok and parseval_ok and identical
    record(11, ok, f"RK4 halving ratio {ratio:.1f}; passivity "
                   f"{'ok' if passive_ok else 'violated'}; Parseval rel err "
                   f"{parseval_rel:.1e}; reruns bit-identical: {identical}")
    assert ok
