"""Measurement layer: spectra of modulated sequences, envelope extraction,
fluctuation metrics, and a coarse soft-switching polarity check.

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
from typing import NamedTuple

import numpy as np

from .plant import Trace


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum with a ratio (omega/omega_s) axis."""

    ratios: np.ndarray
    magnitudes: np.ndarray
    length: int

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
    if window == "rectangular":
        w = None
    elif window == "hann":
        w = np.hanning(n)
    else:
        raise ValueError(f"unknown window {window!r}")
    mags = np.abs(np.fft.rfft(x_arr if w is None else x_arr * w))
    ratios = 2.0 * np.arange(mags.shape[0]) / n
    return Spectrum(ratios=ratios, magnitudes=mags, length=n)


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
    zoh = np.repeat(s_arr, oversample)
    mags = np.abs(np.fft.rfft(zoh))
    # Holding each sample `oversample` times keeps the bin spacing of the
    # base sequence (2/N in ratio units) while extending the axis.
    ratios = 2.0 * np.arange(mags.shape[0]) / s_arr.shape[0]
    return Spectrum(ratios=ratios, magnitudes=mags, length=zoh.shape[0])


def band_level_db(spectrum: Spectrum, center: float, half_width: float) -> float:
    """RMS magnitude of the bins in a band, in dB."""
    band = spectrum.band(center, half_width)
    rms = math.sqrt(float(np.mean(band ** 2)))
    return 20.0 * math.log10(rms) if rms > 0.0 else -math.inf


def envelope_extract(trace: Trace, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-half-cycle peak of |i_side| from trace samples.

    Returns (t, peaks) with one entry per half switching cycle, timestamped
    at the half-cycle end. Requires a trace with collected samples spanning
    at least 10 switching periods.
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    if trace.states.shape[0] == 0:
        raise ValueError("trace has no collected samples")
    steps = trace.steps_per_half_cycle
    n_half = (trace.states.shape[0] - 1) // steps
    if n_half < 20:
        raise ValueError("trace must span at least 10 switching periods")
    col = np.abs(trace.states[:, side - 1])
    peaks = np.empty(n_half)
    for hc in range(n_half):
        peaks[hc] = col[hc * steps: (hc + 1) * steps + 1].max()
    t = trace.dt * steps * (np.arange(n_half) + 1.0)
    return t, peaks


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


def fluctuation(env_t, env, settle: float = 2e-3, window: float = 3e-3,
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


class ZvsCheck(NamedTuple):
    side: str
    t: float
    current: float
    ok: bool


def zvs_polarity_check(trace: Trace) -> list[ZvsCheck]:
    """Coarse soft-switching proxy from commutation-instant currents.

    Primary: at each drive transition the commutated current must have the
    polarity that discharges the incoming switch node, i.e.
    i1 * (s_old - s_new) > 0. Secondary: the synchronous bridge commutates
    at current zero crossings, which is soft as long as the tank still
    carries current; an event fails when the peak |i2| over the following
    half cycle stays below 0.1 A (collapsed envelope, no body-diode
    interval).
    """
    if trace.states.shape[0] == 0:
        raise ValueError("trace has no collected samples (rerun with samples)")
    steps = trace.steps_per_half_cycle
    n_samp = trace.states.shape[0]
    checks: list[ZvsCheck] = []
    s_prev = 0
    for ev in trace.events:
        if ev.side == "primary":
            if ev.s != s_prev:
                idx = int(round(ev.t / trace.dt))
                if idx < n_samp:
                    i1 = float(trace.states[idx, 0])
                    checks.append(ZvsCheck("primary", ev.t, i1,
                                           i1 * (s_prev - ev.s) > 0.0))
            s_prev = ev.s
        else:
            idx = int(round(ev.t / trace.dt))
            hi = min(idx + steps + 1, n_samp)
            if hi > idx:
                peak = float(np.abs(trace.states[idx:hi, 1]).max())
                checks.append(ZvsCheck("secondary", ev.t, peak,
                                       peak >= 0.1))
    return checks


def zvs_pass_rate(checks: list[ZvsCheck], side: str | None = None,
                  min_current: float = 0.0) -> float:
    """Fraction of passing events, optionally filtered by side.

    ``min_current`` restricts the rate to decisive commutations: at exact
    resonance the full-density toggle current is nearly zero, so the raw
    polarity of those edges is a coin flip with negligible node charge to
    displace; events below the threshold are excluded from the rate (they
    still appear, failed, in the per-event reports). With no event left to
    rate (no event of ``side``, or none at or above ``min_current``) the
    rate is NaN: an empty selection is no evidence of soft switching.
    """
    sel = [c for c in checks
           if (side is None or c.side == side) and abs(c.current) >= min_current]
    if not sel:
        return math.nan
    return sum(c.ok for c in sel) / len(sel)
