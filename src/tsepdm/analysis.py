"""Measurement layer on plain arrays: spectra of modulated sequences and
envelope fluctuation metrics.

Frequency axes are expressed as the ratio omega / omega_s. Modulator
sequences tick at twice the switching frequency, so ratio 1.0 is the
Nyquist bin of a tick-rate spectrum; the zero-order-hold spectrum
(`gate_waveform_spectrum`) resolves content above the switching frequency,
e.g. the paired sidebands of a gated carrier.

The fluctuation percentage is (max - min) / mean over the analysis window.
That reading makes a 60% fluctuation equivalent to an amplitude swing
exceeding +/-30% around the mean, and is applied uniformly to all sweep
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The analysis window (s): WINDOW_S of envelope after SETTLE_S of settling.
SETTLE_S = 2e-3
WINDOW_S = 3e-3
# Spectral tapers by name, each a function of the sequence length.
WINDOWS = {"rectangular": np.ones, "hann": np.hanning}


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum with a ratio (omega/omega_s) axis."""

    ratios: np.ndarray
    magnitudes: np.ndarray

    def band(self, center: float, half_width: float) -> np.ndarray:
        """Magnitudes of all bins within +/- half_width of a center ratio."""
        mask = np.abs(self.ratios - center) <= half_width
        if not np.any(mask):
            raise ValueError(f"no bins within {half_width} of ratio {center}")
        return self.magnitudes[mask]


def spectrum_of_sequence(x, window: str = "rectangular") -> Spectrum:
    """DFT magnitude spectrum of a tick-rate (2 fs) sequence.

    Bin b maps to frequency ratio 2 b / N, so ratio 1.0 is the switching
    frequency. Only non-negative-frequency bins are stored.
    """
    x_arr = np.asarray(x, dtype=float)
    n = x_arr.shape[0]
    if n < 1024:
        raise ValueError(f"sequence too short for spectral analysis: {n} < 1024")
    if window not in WINDOWS:
        raise ValueError(f"unknown window {window!r}")
    mags = np.abs(np.fft.rfft(x_arr * WINDOWS[window](n)))
    ratios = 2.0 * np.arange(mags.shape[0]) / n
    return Spectrum(ratios=ratios, magnitudes=mags)


def gate_waveform_spectrum(s, oversample: int = 8) -> Spectrum:
    """Spectrum of the zero-order-hold waveform built from gate samples.

    Each half-cycle sample is held for ``oversample`` sub-samples, pushing
    the Nyquist ratio to ``oversample`` and resolving the paired sidebands
    around the switching frequency (ratios above 1.0) that alias together
    in a plain tick-rate spectrum. Bin spacing matches
    `spectrum_of_sequence` for the same sequence length.
    """
    if oversample < 2:
        raise ValueError("oversample must be >= 2")
    s_arr = np.asarray(s, dtype=float)
    mags = np.abs(np.fft.rfft(np.repeat(s_arr, oversample)))
    # Holding each sample `oversample` times keeps the bin spacing of the
    # base sequence (2/N in ratio units) while extending the axis.
    ratios = 2.0 * np.arange(mags.shape[0]) / s_arr.shape[0]
    return Spectrum(ratios=ratios, magnitudes=mags)


def band_level_db(spectrum: Spectrum, center: float, half_width: float) -> float:
    """RMS magnitude of the bins in a band, in dB."""
    band = spectrum.band(center, half_width)
    rms = math.sqrt(float(np.mean(band ** 2)))
    return 20.0 * math.log10(rms) if rms > 0.0 else -math.inf


@dataclass(frozen=True)
class FluctuationReport:
    """Envelope statistics over the post-settle analysis window."""

    d: float
    side: str
    i_max: float
    i_min: float
    i_mean: float
    fluctuation_pct: float

    @property
    def degenerate(self) -> bool:
        """True when the percentage is not finite, as for an all-zero envelope."""
        return not math.isfinite(self.fluctuation_pct)


def window_mask(env_t, settle: float, window: float) -> np.ndarray:
    """Which envelope times lie in the analysis window settle < t <= settle + window."""
    t_arr = np.asarray(env_t, dtype=float)
    return (t_arr > settle) & (t_arr <= settle + window)


def fluctuation(env_t, env, settle: float = SETTLE_S, window: float = WINDOW_S,
                d: float = float("nan"), side: str = "") -> FluctuationReport:
    """Peak-to-peak envelope excursion relative to its mean, in percent.

    The percentage is NaN when the window mean is 0 (an all-zero envelope
    has no relative excursion, and must not read as perfect suppression).
    """
    e_arr = np.asarray(env, dtype=float)
    mask = window_mask(env_t, settle, window)
    if not np.any(mask):
        raise ValueError("analysis window is empty")
    sel = e_arr[mask]
    i_max = float(sel.max())
    i_min = float(sel.min())
    i_mean = float(sel.mean())
    pct = (i_max - i_min) / i_mean * 100.0 if i_mean != 0.0 else math.nan
    return FluctuationReport(d=d, side=side, i_max=i_max, i_min=i_min,
                             i_mean=i_mean, fluctuation_pct=pct)
