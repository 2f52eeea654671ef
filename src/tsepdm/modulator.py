"""1-bit error-feedback pulse-density modulator.

The modulator ticks once per half switching cycle. Each tick it filters the
stored quantization errors through H = 1 - NTF, subtracts the result from
the commanded density d, and quantizes:

    w[n] = H applied to past errors        (strictly proper: no e[n] term)
    v[n] = d[n] - w[n]
    y[n] = 1 if v[n] >= 1 else 0
    e[n] = y[n] - v[n]

which realizes Y(z) = D(z) + E(z) NTF(z) (the error-feedback structure of
Schreier & Temes, *Understanding Delta-Sigma Data Converters*, ch. 4). With
threshold 1 and output levels {0, 1} a stable modulator keeps e inside
[-1, 0]; the first-order loop provably never leaves that band, high-order
loops are probed empirically with `stability_probe`.

The recurrence is written once, in `_tick`, with plain arithmetic so that
the same code advances one modulator (``d`` a float) or many modulators in
lockstep (``d`` an ndarray of lanes). `PulseDensityModulator.step` ticks one
modulator inside the co-simulation, `run` runs a fresh one over a waveform
and `run_const_grid` runs one lane per constant density.

The quantizer output gates a free-running +/-1 carrier that alternates every
half cycle: `gate_split` turns a y sequence into leading-leg / lagging-leg
drive signals and the signed modulated-wave samples s = y * carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ntf import RationalTransferFunction, to_error_filter

# Tolerance on the stability band e in [-1, 0]: excursions beyond this are
# counted as violations.
STABILITY_TOL = 1e-9


def _coefficients(ntf: RationalTransferFunction) -> tuple[tuple, tuple]:
    """Direct-form coefficients (b, a) of the error filter H = 1 - NTF.

    ``b`` is zero-padded so that both hold exactly ``order`` taps:
    w[n] = sum b_j e[n-1-j] - sum a_j w[n-1-j].
    """
    h = to_error_filter(ntf)
    b = (0.0,) * (h.order - len(h.num)) + h.num if h.order else ()
    return b, h.den[1:]


def _tick(b, a, eh, wh, d):
    """One tick of the recurrence; histories are lists, newest first.

    ``d`` and the history entries are floats (one modulator) or ``(m,)``
    arrays (m lanes); both see the same summation order, all b terms first,
    so lanes are bit-identical to single runs. Returns (y, e, eh, wh).
    """
    w = 0.0
    for b_j, e_j in zip(b, eh):
        w = w + b_j * e_j
    for a_j, w_j in zip(a, wh):
        w = w - a_j * w_j
    v = d - w
    y = v >= 1.0
    e = y - v
    return y, e, [e] + eh[:-1], [w] + wh[:-1]


class PulseDensityModulator:
    """Stateful modulator for one bridge; tick once per half cycle."""

    def __init__(self, ntf: RationalTransferFunction):
        self._b, self._a = _coefficients(ntf)
        self.e_history = [0.0] * len(self._a)
        self.w_history = [0.0] * len(self._a)

    def step(self, d: float) -> int:
        """Advance one half cycle with commanded density ``d``; return y."""
        if not math.isfinite(d):
            raise ValueError(f"pulse density must be finite, got {d}")
        y, _, self.e_history, self.w_history = _tick(
            self._b, self._a, self.e_history, self.w_history, d)
        return 1 if y else 0


def _check_densities(d: np.ndarray):
    if not np.all(np.isfinite(d)):
        raise ValueError("density waveform contains non-finite values")
    if d.size and (d.min() < 0.0 or d.max() > 1.0):
        raise ValueError("density waveform must lie in [0, 1]")


def run(ntf: RationalTransferFunction, d_waveform, n_ticks: int | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Run a fresh modulator over a waveform.

    ``d_waveform`` is a sequence of densities, or a scalar replicated over
    ``n_ticks``. Returns the (y, e) sequences; deterministic given inputs.
    """
    if np.isscalar(d_waveform):
        if n_ticks is None:
            raise ValueError("n_ticks required for a scalar density")
        d_arr = np.full(n_ticks, float(d_waveform))
    else:
        d_arr = np.asarray(d_waveform, dtype=float)
        if n_ticks is not None:
            d_arr = d_arr[:n_ticks]
    _check_densities(d_arr)
    b, a = _coefficients(ntf)
    eh = wh = [0.0] * len(a)
    y_out = np.empty(d_arr.shape[0], dtype=np.int8)
    e_out = np.empty(d_arr.shape[0])
    for i, d in enumerate(d_arr.tolist()):
        y_out[i], e_out[i], eh, wh = _tick(b, a, eh, wh, d)
    return y_out, e_out


def run_const_grid(ntf: RationalTransferFunction, d_values,
                   n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
    """Run many constant-density modulators in lockstep, one lane each.

    Returns (y, e) arrays of shape (n_ticks, len(d_values)). Bit-identical
    to running `run` per density; used for the long stability and
    reconstruction sweeps where per-tick Python costs dominate.
    """
    d_arr = np.asarray(d_values, dtype=float)
    _check_densities(d_arr)
    b, a = _coefficients(ntf)
    eh = wh = [np.zeros(d_arr.shape[0])] * len(a)
    y_out = np.empty((n_ticks, d_arr.shape[0]), dtype=np.int8)
    e_out = np.empty((n_ticks, d_arr.shape[0]))
    for i in range(n_ticks):
        y_out[i], e_out[i], eh, wh = _tick(b, a, eh, wh, d_arr)
    return y_out, e_out


@dataclass(frozen=True)
class GateSequence:
    """Per-half-cycle gate records derived from a y sequence.

    ``a``/``b`` drive the leading and lagging legs; ``s = a - b`` is the
    polarity-resolved modulated-wave sample in {-1, 0, +1}.
    """

    tick: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    s: np.ndarray


def gate_split(y, carrier_phase0: int = 1) -> GateSequence:
    """AND the quantizer output with a free-running alternating carrier.

    The carrier toggles every half cycle regardless of y: skipped pulses
    mask it without stopping it, so the polarity pattern of delivered
    pulses stays locked to the half-cycle grid.
    """
    if carrier_phase0 not in (1, -1):
        raise ValueError("carrier_phase0 must be +1 or -1")
    y_arr = np.asarray(y, dtype=np.int8)
    n = y_arr.shape[0]
    carrier = np.where(np.arange(n) % 2 == 0, carrier_phase0, -carrier_phase0)
    s = (y_arr * carrier).astype(np.int8)
    a = ((y_arr == 1) & (carrier > 0)).astype(np.int8)
    b = ((y_arr == 1) & (carrier < 0)).astype(np.int8)
    return GateSequence(tick=np.arange(n), y=y_arr, a=a, b=b, s=s)


@dataclass(frozen=True)
class StabilityReport:
    """Extremes of the quantization error over a probe run."""

    e_min: float
    e_max: float
    violation_count: int
    mean_density_error: float

    @property
    def stable(self) -> bool:
        return self.violation_count == 0


def count_violations(e: np.ndarray) -> int:
    """Excursions of e outside [-1, 0] beyond the boundary tolerance."""
    return int(np.count_nonzero((e < -1.0 - STABILITY_TOL) | (e > STABILITY_TOL)))


def stability_probe(ntf: RationalTransferFunction, d_waveform,
                    n_ticks: int | None = None) -> StabilityReport:
    """Run the modulator and report the quantization-error extremes.

    The modulator is considered stable when e never leaves [-1, 0]
    (tolerance ``STABILITY_TOL`` on the boundaries).
    """
    y, e = run(ntf, d_waveform, n_ticks)
    d_arr = (np.full(len(y), float(d_waveform)) if np.isscalar(d_waveform)
             else np.asarray(d_waveform, dtype=float)[:len(y)])
    return StabilityReport(
        e_min=float(e.min()),
        e_max=float(e.max()),
        violation_count=count_violations(e),
        mean_density_error=float(abs(y.mean() - d_arr.mean())),
    )


def sinusoid_density(n_ticks: int, offset: float = 0.5, amplitude: float = 0.5,
                     period_ticks: int = 2048) -> np.ndarray:
    """Sinusoidal probe waveform, clipped only by construction to [0, 1]."""
    n = np.arange(n_ticks)
    d = offset + amplitude * np.sin(2.0 * np.pi * n / period_ticks)
    return np.clip(d, 0.0, 1.0)


def ramp_density(n_ticks: int, start: float = 0.0, stop: float = 1.0) -> np.ndarray:
    return np.linspace(start, stop, n_ticks)
