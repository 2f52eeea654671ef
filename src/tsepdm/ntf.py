"""Noise transfer function construction and analysis.

A noise transfer function (NTF) shapes the quantization error of a 1-bit
pulse-density modulator in the z domain. Two constructions are provided:

* ``build_first_order`` -- the plain differencing NTF ``1 - 1/z``, which
  pushes quantization noise away from DC only.
* ``build_third_order`` -- a notch NTF that keeps the DC zero and adds a
  complex-conjugate zero pair on the unit circle at a chosen angle, with
  matching poles pulled inward to a radius ``r`` so the filter stays
  realizable and well behaved.

Transfer functions are stored as real coefficient sequences in descending
powers of z with a monic denominator. The modulator ticks once per half
switching cycle, so the unit-circle angle ``pi * rho`` corresponds to the
physical frequency ``rho * omega_s`` (``omega_s`` = switching frequency).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# Magnitude tolerances for the static design checks: DC zero, notch zero,
# and realizability |NTF(inf) - 1|.
TOL_DC = 1e-9
TOL_NOTCH = 1e-9
TOL_REALIZABLE = 1e-12

# Floor used when converting magnitudes to dB for plotting/export.
DB_FLOOR = -200.0


class PoleEvaluationError(ArithmeticError):
    """Raised when a transfer function is evaluated too close to a pole."""


@dataclass(frozen=True)
class RationalTransferFunction:
    """Rational function of z with real coefficients, descending powers.

    ``num`` may be shorter than ``den`` (strictly proper numerator); the
    denominator is always monic and its degree defines ``order``.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        num = tuple(float(c) for c in self.num)
        den = tuple(float(c) for c in self.den)
        if not den:
            raise ValueError("denominator must be non-empty")
        if not num:
            raise ValueError("numerator must be non-empty")
        if not all(math.isfinite(c) for c in num + den):
            raise ValueError("coefficients must be finite")
        if den[0] != 1.0:
            raise ValueError("denominator must be monic")
        if len(num) > len(den):
            raise ValueError("numerator degree must not exceed denominator degree")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def order(self) -> int:
        return len(self.den) - 1


@dataclass(frozen=True)
class NtfDesignSpec:
    """Notch design parameters.

    ``notch_ratio`` is the eliminated frequency as a fraction of the
    switching frequency (unit-circle angle ``pi * notch_ratio``);
    ``pole_radius`` sets how far the matching poles sit inside the circle.
    """

    notch_ratio: float = 0.075     # the beat ratio k / 2 at the prototype's k = 0.15
    pole_radius: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.notch_ratio < 1.0):
            raise ValueError(f"notch_ratio must be in (0, 1), got {self.notch_ratio}")
        if not (0.0 < self.pole_radius < 1.0):
            raise ValueError(f"pole_radius must be in (0, 1), got {self.pole_radius}")


@dataclass(frozen=True)
class RequirementReport:
    """Outcome of the static NTF design checks.

    ``realizable`` enforces NTF(inf) = 1, i.e. numerator and denominator
    share degree and leading coefficient. This is the reading under which
    the error-feedback filter 1 - NTF comes out strictly proper and can be
    zero-initialized; both reference constructions in this module satisfy
    it exactly.
    """

    dc_gain_zero: bool
    dc_residual: float
    realizable: bool
    realizability_residual: float
    notch_ok: bool
    notch_gain: float
    notch_ratio: float
    notes: str = field(default="")


def build_first_order() -> RationalTransferFunction:
    """First-order differencing NTF (z - 1) / z."""
    return RationalTransferFunction(num=(1.0, -1.0), den=(1.0, 0.0))


def build_third_order(spec: NtfDesignSpec) -> RationalTransferFunction:
    """Third-order notch NTF with unit-circle zeros at angles 0 and +/- pi*rho.

    Factored form, with ``c = cos(pi * rho)`` and ``r`` the pole radius::

        (z - 1)(z^2 - 2 c z + 1)
        ------------------------------
        (z - r)(z^2 - 2 r c z + r^2)

    Zeros sit exactly on the unit circle (DC plus the notch pair); poles sit
    at radius ``r`` under the same angles.
    """
    rho = spec.notch_ratio
    r = spec.pole_radius
    c = math.cos(math.pi * rho)
    num = (1.0, -(1.0 + 2.0 * c), 1.0 + 2.0 * c, -1.0)
    den = (1.0, -r * (1.0 + 2.0 * c), r * r * (1.0 + 2.0 * c), -(r ** 3))
    return RationalTransferFunction(num=num, den=den)


def _horner(coeffs: tuple[float, ...], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def evaluate(tf: RationalTransferFunction, z: complex) -> complex:
    """Evaluate ``tf`` at a complex point via Horner's scheme.

    Raises :class:`PoleEvaluationError` when the denominator magnitude falls
    below a scale-aware tolerance (evaluation at or extremely near a pole).
    """
    den_val = _horner(tf.den, z)
    scale = sum(abs(c) for c in tf.den) * max(1.0, abs(z)) ** tf.order
    if abs(den_val) < 1e-12 * scale:
        raise PoleEvaluationError(f"denominator magnitude {abs(den_val):.3e} at z={z}")
    return _horner(tf.num, z) / den_val


def _realizability_residual(tf: RationalTransferFunction) -> float:
    """|NTF(inf) - 1|: 1.0 for a lower numerator degree (NTF(inf) = 0)."""
    return abs(tf.num[0] / tf.den[0] - 1.0) if len(tf.num) == len(tf.den) else 1.0


def check_requirements(tf: RationalTransferFunction,
                       spec: NtfDesignSpec) -> RequirementReport:
    """Check the three static design requirements against ``tf``.

    1. DC gain (value at z = 1) within ``TOL_DC`` of zero.
    2. Realizability: NTF(inf) = 1, so the error-feedback filter 1 - NTF is
       strictly proper.
    3. Notch gain (value at ``exp(j pi rho)``) within ``TOL_NOTCH`` of zero.

    Failures are reported, never raised.
    """
    dc_residual = abs(evaluate(tf, 1.0 + 0.0j))
    dc_ok = dc_residual <= TOL_DC

    real_residual = _realizability_residual(tf)
    realizable = real_residual <= TOL_REALIZABLE

    z_notch = cmath.exp(1j * math.pi * spec.notch_ratio)
    notch_gain = abs(evaluate(tf, z_notch))
    notch_ok = notch_gain <= TOL_NOTCH

    notes = []
    if not dc_ok:
        notes.append(f"DC gain {dc_residual:.3e} exceeds {TOL_DC:.0e}")
    if not realizable:
        notes.append("NTF(inf) != 1: error filter would not be strictly proper")
    if not notch_ok:
        notes.append(f"gain {notch_gain:.4f} at ratio {spec.notch_ratio} exceeds {TOL_NOTCH:.0e}")
    return RequirementReport(
        dc_gain_zero=dc_ok,
        dc_residual=dc_residual,
        realizable=realizable,
        realizability_residual=real_residual,
        notch_ok=notch_ok,
        notch_gain=notch_gain,
        notch_ratio=spec.notch_ratio,
        notes="; ".join(notes) if notes else "all requirements satisfied",
    )


def to_error_filter(tf: RationalTransferFunction) -> RationalTransferFunction:
    """Feedback filter H = 1 - NTF applied to the quantization error.

    Requires a realizable NTF (NTF(inf) = 1) so that H comes out strictly
    proper: the numerator's leading term cancels and the current-tick filter
    output depends on past errors only. The denominator is shared with the
    NTF.
    """
    if _realizability_residual(tf) > TOL_REALIZABLE:
        raise ValueError("NTF is not realizable (NTF(inf) != 1); cannot form error filter")
    num = tuple(d - n for d, n in zip(tf.den[1:], tf.num[1:])) or (0.0,)
    # Drop exactly-zero leading coefficients but keep at least one entry.
    while len(num) > 1 and num[0] == 0.0:
        num = num[1:]
    return RationalTransferFunction(num=num, den=tf.den)


def zeros_poles(tf: RationalTransferFunction) -> tuple[np.ndarray, np.ndarray]:
    """Roots of numerator and denominator (zeros, poles)."""
    return np.roots(tf.num), np.roots(tf.den)


def bode_data(tf: RationalTransferFunction, n_points: int) -> np.ndarray:
    """Frequency response on the upper unit semicircle.

    Returns an ``(n_points, 3)`` array of rows ``(ratio, magnitude_dB,
    phase_rad)`` where ``ratio`` runs over ``i / n_points`` for
    ``i = 1 .. n_points``. The modulator ticks twice per switching cycle,
    so ratio 1.0 (angle pi) corresponds to the switching frequency itself.
    Magnitudes are clamped at ``DB_FLOOR`` dB.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    rows = np.empty((n_points, 3))
    for i in range(1, n_points + 1):
        ratio = i / n_points
        z = cmath.exp(1j * math.pi * ratio)
        val = evaluate(tf, z)
        mag = abs(val)
        mag_db = 20.0 * math.log10(mag) if mag > 0.0 else DB_FLOOR
        rows[i - 1] = (ratio, max(mag_db, DB_FLOOR), cmath.phase(val))
    return rows
