"""Reference values the tests check the package against, written from the
textbook formulas and read by no module of the package: the zero-order-hold
gate spectrum and band levels (criterion 5), the tank's series resonances
and first-harmonic phasors (criterion 7), and the beat resonance k ws / 2
(the Bode-peak tests)."""

from __future__ import annotations

import math

import numpy as np

from tsepdm.analysis import Spectrum
from tsepdm.plant import PlantParams


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
