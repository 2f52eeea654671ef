"""Reference values the tests check the package against, written from the
textbook formulas and read by no module of the package: the zero-order-hold
gate spectrum and band levels (criterion 5), the tank's series resonances
and first-harmonic phasors (criterion 7), the beat resonance k ws / 2
(the Bode-peak tests), and the envelope model's dynamics in stacked real
form with its RK4 integration and central-difference linearisation."""

from __future__ import annotations

import math

import numpy as np

from tsepdm.analysis import Spectrum
from tsepdm.plant import PlantParams, system_matrices


def gate_waveform_spectrum(s, oversample: int = 8) -> Spectrum:
    """Spectrum of the zero-order-hold waveform built from gate samples.

    Each half-cycle sample is held for ``oversample`` sub-samples, pushing
    the Nyquist ratio to ``oversample`` and resolving the paired sidebands
    around the switching frequency (ratios above 1.0) that alias together
    in a plain tick-rate spectrum. Holding each sample keeps the bin spacing
    of `analysis.spectrum_of_sequence` for the same sequence length (2/N in
    ratio units) while extending the axis.
    """
    s_arr = np.asarray(s, dtype=float)
    mags = np.abs(np.fft.rfft(np.repeat(s_arr, oversample)))
    ratios = 2.0 * np.arange(mags.shape[0]) / s_arr.shape[0]
    return Spectrum(ratios=ratios, magnitudes=mags)


def band_level_db(spectrum: Spectrum, center: float, half_width: float) -> float:
    """RMS magnitude, in dB, of the bins within +/- half_width of a center
    ratio; ValueError when no bin lies there."""
    mask = np.abs(spectrum.ratios - center) <= half_width
    if not np.any(mask):
        raise ValueError(f"no bins within {half_width} of ratio {center}")
    rms = math.sqrt(float(np.mean(spectrum.magnitudes[mask] ** 2)))
    return 20.0 * math.log10(rms) if rms > 0.0 else -math.inf


def resonant_peak_prediction(params: PlantParams) -> float:
    """Beat resonance estimate k ws / 2 in rad/s."""
    return 0.5 * params.k * params.ws


def resonance_report(params: PlantParams) -> dict[str, float]:
    """Per-side series resonance frequencies in Hz."""
    return {
        "f01": 1.0 / (2.0 * math.pi * math.sqrt(params.L1 * params.C1)),
        "f02": 1.0 / (2.0 * math.pi * math.sqrt(params.L2 * params.C2)),
    }


def phasor_steady_state(params: PlantParams) -> tuple[complex, complex]:
    """First-harmonic steady-state current phasors (peak amplitudes).

    Solves the complex mesh equations at the switching frequency with the
    secondary drive amplitude phase-locked to i2 (active rectification):

        Z1 I1 + jwM I2 = U1
        jwM I1 + Z2 I2 = -U2 e^{j angle(I2)}

    with U1 = 4 Vg / pi and U2 = 4 Vo / pi, the square-wave fundamentals at
    full pulse density. The phase-locked system is solved by fixed-point
    iteration on the i2 phase (at most 200 steps, to a 1e-14 rad change).
    """
    w = params.ws
    Z1 = params.R1 + 1j * (w * params.L1 - 1.0 / (w * params.C1))
    Z2 = params.R2 + 1j * (w * params.L2 - 1.0 / (w * params.C2))
    jwM = 1j * w * params.M
    U1 = 4.0 * params.Vg / math.pi
    U2 = 4.0 * params.Vo / math.pi
    Z = np.array([[Z1, jwM], [jwM, Z2]])
    I = np.linalg.solve(Z, np.array([U1, 0.0]))
    phase = np.angle(I[1])
    for _ in range(200):
        I = np.linalg.solve(Z, np.array([U1, -U2 * np.exp(1j * phase)]))
        new_phase = np.angle(I[1])
        if abs(new_phase - phase) < 1e-14:
            break
        phase = new_phase
    return complex(I[0]), complex(I[1])


def envelope_rates(params: PlantParams):
    """The nonlinear envelope dynamics in stacked real 8-state form (Re z,
    Im z), as ``rates(x8, a1, a2)``: dz/dt = A z + B u - j ws z with the
    rectifier drive u2 = a2 z2 / (2 |z2|) (zero below |z2| = 1e-9)."""
    A, B = system_matrices(params)
    ws = params.ws

    def rates(x8, a1, a2):
        z = x8[:4] + 1j * x8[4:]
        z2 = z[1]
        mag = abs(z2)
        u2 = 0.5 * a2 * z2 / mag if mag > 1e-9 else 0.0
        u = np.array([0.5 * a1, u2])
        dz = (A @ z) + (B @ u) - 1j * ws * z
        return np.concatenate([dz.real, dz.imag])
    return rates


def simulate_envelope_real_form(params: PlantParams, a1_fn, a2_fn, duration: float,
                                dt: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 of `envelope_rates` on the stacked real state from
    ``x``, the drives sampled at stage times; returns (t, z) with z complex
    of shape (n + 1, 4)."""
    rates = envelope_rates(params)
    n = int(round(duration / dt))
    out = np.empty((n + 1, 4), dtype=complex)
    out[0] = x[:4] + 1j * x[4:]
    for i in range(n):
        t = i * dt
        k1 = rates(x, a1_fn(t), a2_fn(t))
        k2 = rates(x + 0.5 * dt * k1, a1_fn(t + 0.5 * dt), a2_fn(t + 0.5 * dt))
        k3 = rates(x + 0.5 * dt * k2, a1_fn(t + 0.5 * dt), a2_fn(t + 0.5 * dt))
        k4 = rates(x + dt * k3, a1_fn(t + dt), a2_fn(t + dt))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x[:4] + 1j * x[4:]
    return np.arange(n + 1) * dt, out


def envelope_linearisation(params: PlantParams, x0: np.ndarray, a1: float, a2: float,
                           rel_step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference linearisation of `envelope_rates` at the stacked
    real state ``x0`` and drives (a1, a2): the (8, 8) state matrix, the
    (8, 2) input matrix (steps ``rel_step`` max(1, |x0_j|) and ``rel_step``
    a) and the (2, 8) projection onto the peak amplitudes 2 |z_i1|, 2 |z_i2|."""
    f = envelope_rates(params)
    a_mat = np.empty((8, 8))
    for j in range(8):
        eps = rel_step * max(1.0, abs(x0[j]))
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += eps
        xm[j] -= eps
        a_mat[:, j] = (f(xp, a1, a2) - f(xm, a1, a2)) / (2.0 * eps)
    e1 = rel_step * a1
    e2 = rel_step * a2
    b_mat = np.empty((8, 2))
    b_mat[:, 0] = (f(x0, a1 + e1, a2) - f(x0, a1 - e1, a2)) / (2.0 * e1)
    b_mat[:, 1] = (f(x0, a1, a2 + e2) - f(x0, a1, a2 - e2)) / (2.0 * e2)
    c_amp = np.zeros((2, 8))
    for row, (re, im) in enumerate(((0, 4), (1, 5))):
        z = complex(x0[re], x0[im])
        c_amp[row, re] = 2.0 * z.real / abs(z)
        c_amp[row, im] = 2.0 * z.imag / abs(z)
    return a_mat, b_mat, c_amp
