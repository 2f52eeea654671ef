"""First-harmonic envelope model of the coupled resonant tank.

The tank state x is represented by its sliding first-harmonic coefficient
z = <x>_1 (complex, 4 entries), which obeys

    dz/dt = (A - j ws I) z + B <u>_1

with A, B the physical network matrices. The primary drive enters as an
amplitude on a fixed phase axis (the half-cycle clock); the secondary
drive amplitude rides the instantaneous phase of <i2>_1, modeling active
rectification. Amplitude inputs are the peak fundamentals of the bridge
waves (4 V / pi at full density and rail V).

The nonlinear envelope system is solved for its full-power equilibrium and
linearized numerically; the linear model maps drive-amplitude
perturbations to current-amplitude perturbations, whose frequency response
exposes the beat resonance that pulse-density subharmonics can excite.
With weak damping, the undamped coupled modes split the resonance around
k ws / 2 (at ws / sqrt(1 -+ k) - ws), so the half-k-ws rule is the small-k
symmetric approximation of the true peak pair.

The nonlinear integration (`simulate_envelope`) carries the complex state z
itself through RK4, with the terms -j ws z, A z and B u kept apart: folding
them or switching to a real 8x8 form changes the rounding, and near the
rectifier's phase singularity (k ~ 0.17) a last-bit change grows to 1e-4.
The frequency response (`amplitude_bode`) solves its resolvent systems in
stacked blocks of ``BODE_BLOCK`` frequencies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .plant import PlantParams, SimulationDiverged, check_real, system_matrices

# Relative step for the central-difference linearization.
FD_RELATIVE_STEP = 1e-6

# Frequencies per stacked solve in `amplitude_bode`: amortises the per-call
# overhead while keeping the complex temporaries near 200 KB.
BODE_BLOCK = 64

# The default Bode grid of `find_bode_peak`: ratios delta_omega / ws around k / 2.
BODE_RATIO_MIN = 0.01
BODE_RATIO_MAX = 0.25
BODE_POINTS = 600

# Channels of `amplitude_bode`: (drive input, current output) indices.
CHANNELS = {
    "u1->i1": (0, 0),
    "u1->i2": (0, 1),
    "u2->i1": (1, 0),
    "u2->i2": (1, 1),
}


@dataclass(frozen=True)
class EnvelopeModel:
    """Linearized 8-real-state envelope dynamics around full power.

    State layout: (Re z_i1, Re z_i2, Re z_vC1, Re z_vC2, Im z_i1, ...).
    ``output_amplitudes`` projects onto the equilibrium phasor directions,
    yielding peak-amplitude perturbations.
    """

    state_matrix: np.ndarray       # (8, 8)
    input_matrix: np.ndarray       # (8, 2) amplitude channels (V)
    output_amplitudes: np.ndarray  # (2, 8) peak |i1|, |i2| sensitivities
    i1_amp: float                  # peak |i1| at the operating point (A)
    i2_amp: float
    params: PlantParams


def resonant_peak_prediction(params: PlantParams) -> float:
    """Beat resonance estimate k ws / 2 in rad/s."""
    return 0.5 * params.k * params.ws


def _rates(z: np.ndarray, a1: float, a2: float,
           A: np.ndarray, B: np.ndarray, jws: complex) -> np.ndarray:
    """Nonlinear envelope dynamics dz/dt on the complex (4,) state.

    Below a vanishing current envelope the rectifier has no phase reference
    and idles (u2 contribution zero), mirroring the switching model's
    unsynced startup.
    """
    z2 = z[1]
    mag = abs(z2)
    u2 = 0.5 * a2 * z2 / mag if mag > 1e-9 else 0.0
    u = np.array([0.5 * a1, u2])
    return (A @ z) + (B @ u) - jws * z


def _solve_equilibrium(A, B, ws, a1, a2) -> np.ndarray:
    """Relaxed fixed-point iteration on the rectifier phase axis (at most 500
    steps, to a 1e-13 rad phase step)."""
    shift = A - 1j * ws * np.eye(4)
    phase = -0.5 * math.pi
    z = np.zeros(4, dtype=complex)
    for _ in range(500):
        u = np.array([0.5 * a1, 0.5 * a2 * np.exp(1j * phase)])
        z = np.linalg.solve(-shift, B @ u)
        step = float(np.angle(z[1] * np.exp(-1j * phase)))
        if abs(step) < 1e-13:
            break
        phase += 0.5 * step  # relaxation keeps heavy-damping cases contractive
    phase = float(np.angle(z[1]))
    residual = np.abs(shift @ z + B @ np.array(
        [0.5 * a1, 0.5 * a2 * np.exp(1j * phase)])).max()
    if residual > 1e-6 * max(1.0, float(np.abs(z).max())):
        raise ArithmeticError(f"envelope equilibrium did not converge "
                              f"(residual {residual:.3e})")
    return np.concatenate([z.real, z.imag])


def build_envelope_model(params: PlantParams,
                         a1: float | None = None,
                         a2: float | None = None) -> EnvelopeModel:
    """Construct and linearize the envelope model at the given drive amps.

    Defaults to full-power fundamentals a = 4 V / pi on both sides. The
    linearization uses central finite differences with relative step
    ``FD_RELATIVE_STEP`` on both states and inputs.
    """
    A, B = system_matrices(params)
    ws = params.ws
    a1 = 4.0 * params.Vg / math.pi if a1 is None else a1
    a2 = 4.0 * params.Vo / math.pi if a2 is None else a2
    x0 = _solve_equilibrium(A, B, ws, a1, a2)
    jws = 1j * ws

    def f(x, u1a, u2a):
        """`_rates` in stacked real form (Re z, Im z)."""
        dz = _rates(x[:4] + 1j * x[4:], u1a, u2a, A, B, jws)
        return np.concatenate([dz.real, dz.imag])

    a_mat = np.empty((8, 8))
    for j in range(8):
        eps = FD_RELATIVE_STEP * max(1.0, abs(x0[j]))
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += eps
        xm[j] -= eps
        a_mat[:, j] = (f(xp, a1, a2) - f(xm, a1, a2)) / (2.0 * eps)
    e1 = FD_RELATIVE_STEP * a1
    e2 = FD_RELATIVE_STEP * a2
    b_mat = np.empty((8, 2))
    b_mat[:, 0] = (f(x0, a1 + e1, a2) - f(x0, a1 - e1, a2)) / (2.0 * e1)
    b_mat[:, 1] = (f(x0, a1, a2 + e2) - f(x0, a1, a2 - e2)) / (2.0 * e2)

    z1 = complex(x0[0], x0[4])
    z2 = complex(x0[1], x0[5])
    c_amp = np.zeros((2, 8))
    c_amp[0, 0] = 2.0 * z1.real / abs(z1)
    c_amp[0, 4] = 2.0 * z1.imag / abs(z1)
    c_amp[1, 1] = 2.0 * z2.real / abs(z2)
    c_amp[1, 5] = 2.0 * z2.imag / abs(z2)

    return EnvelopeModel(state_matrix=a_mat, input_matrix=b_mat,
                         output_amplitudes=c_amp, i1_amp=2.0 * abs(z1),
                         i2_amp=2.0 * abs(z2), params=params)


def amplitude_bode(model: EnvelopeModel, which: str,
                   delta_omega) -> np.ndarray:
    """Amplitude-to-amplitude frequency response of the linearized model.

    ``which`` selects the channel (``"u1->i1"`` etc.); ``delta_omega`` is a
    grid of envelope frequencies in rad/s. Returns rows
    (delta_omega / ws, magnitude dB). The resolvent systems are solved
    ``BODE_BLOCK`` frequencies per stacked `np.linalg.solve` call; each
    frequency gets the same LAPACK solve as a call of its own.
    """
    if which not in CHANNELS:
        raise ValueError(f"unknown channel {which!r}; choose from {sorted(CHANNELS)}")
    in_idx, out_idx = CHANNELS[which]
    dw = np.asarray(delta_omega, dtype=float)
    a_mat = model.state_matrix
    b_col = model.input_matrix[:, in_idx]
    c_row = model.output_amplitudes[out_idx]
    eye = np.eye(8)
    rows = np.empty((dw.shape[0], 2))
    for lo in range(0, dw.shape[0], BODE_BLOCK):
        w_blk = dw[lo:lo + BODE_BLOCK]
        x = np.linalg.solve(1j * w_blk[:, None, None] * eye - a_mat,
                            np.broadcast_to(b_col[:, None], (len(w_blk), 8, 1)))
        for i, w in enumerate(w_blk):
            g = c_row @ x[i, :, 0]
            rows[lo + i] = (w / model.params.ws, 20.0 * math.log10(abs(g)))
    return rows


def bode_peak(rows: np.ndarray) -> tuple[float, float]:
    """Location and level of the largest magnitude in `amplitude_bode` rows."""
    idx = int(np.argmax(rows[:, 1]))
    return float(rows[idx, 0]), float(rows[idx, 1])


def bode_grid_rows(model: EnvelopeModel, which: str, ratio_min: float,
                   ratio_max: float, n_points: int) -> np.ndarray:
    """`amplitude_bode` rows on ``n_points`` ratios delta_omega/ws evenly
    spaced from ``ratio_min`` to ``ratio_max``.

    Requires finite ``0 < ratio_min < ratio_max`` and ``n_points >= 1``
    (else ValueError); ``n_points`` must be an integer (else TypeError).
    """
    if not 0.0 < ratio_min < ratio_max < math.inf:
        raise ValueError(f"require finite 0 < ratio_min < ratio_max, "
                         f"got {ratio_min!r}, {ratio_max!r}")
    if isinstance(n_points, bool) or not isinstance(n_points, numbers.Integral):
        raise TypeError(f"n_points must be an integer, got {n_points!r}")
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points!r}")
    dw = np.linspace(ratio_min, ratio_max, n_points) * model.params.ws
    return amplitude_bode(model, which, dw)


def find_bode_peak(model: EnvelopeModel, which: str,
                   ratio_min: float = BODE_RATIO_MIN, ratio_max: float = BODE_RATIO_MAX,
                   n_points: int = BODE_POINTS) -> tuple[float, float]:
    """Location (as delta_omega/ws) and level (dB) of the response peak on
    the `bode_grid_rows` grid."""
    return bode_peak(bode_grid_rows(model, which, ratio_min, ratio_max, n_points))


def simulate_envelope(params: PlantParams, a1, a2, duration: float,
                      dt: float = 1e-7,
                      initial: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the nonlinear envelope system (fixed-step RK4).

    ``a1``/``a2`` are drive amplitudes, constants or callables of time;
    a callable is evaluated at the four stage times of every step.
    ``initial`` is the stacked real state (Re z, Im z), 8 entries, zero by
    default. Returns (t, z) with z complex of shape (n + 1, 4); peak
    amplitudes are 2 |z|. The step must resolve the fast counter-rotating
    modes near 2 ws (default 0.1 us keeps |lambda| dt well inside the RK4
    stability region for switching frequencies in the hundreds of kHz).

    RK4 runs on the complex state z itself: every stage is the same IEEE
    operation per real and imaginary part as the stacked real 8-state form,
    so the result is bit-identical to it. Raises TypeError on a constant
    amplitude that is a str, bool or other non-real value; ValueError on a
    non-positive or non-finite ``dt``, a ``duration`` shorter than one step
    and a malformed ``initial``; `plant.SimulationDiverged` when the result
    is not finite.
    """
    for name, amp in (("a1", a1), ("a2", a2)):
        if not callable(amp):
            check_real(name, amp)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    steps = duration / dt
    if not math.isfinite(steps):
        raise ValueError(f"duration must be finite, got {duration!r}")
    n = int(round(steps))
    if n < 1:
        raise ValueError(f"duration {duration!r} is shorter than one step of {dt!r}")
    x = np.zeros(8) if initial is None else np.asarray(initial, dtype=float)
    if x.shape != (8,) or not np.isfinite(x).all():
        raise ValueError("initial must be 8 finite entries (Re z, Im z)")
    A, B = system_matrices(params)
    # cast once: matmul with the complex state would cast them on every call
    A, B = A.astype(complex), B.astype(complex)
    jws = 1j * params.ws
    a1_fn = a1 if callable(a1) else (lambda t, v=float(a1): v)
    a2_fn = a2 if callable(a2) else (lambda t, v=float(a2): v)
    out = np.empty((n + 1, 4), dtype=complex)
    out[0] = z = x[:4] + 1j * x[4:]
    for i in range(n):
        t = i * dt
        # classical RK4 with the drive sampled at stage times
        k1 = _rates(z, a1_fn(t), a2_fn(t), A, B, jws)
        k2 = _rates(z + 0.5 * dt * k1, a1_fn(t + 0.5 * dt), a2_fn(t + 0.5 * dt),
                    A, B, jws)
        k3 = _rates(z + 0.5 * dt * k2, a1_fn(t + 0.5 * dt), a2_fn(t + 0.5 * dt),
                    A, B, jws)
        k4 = _rates(z + dt * k3, a1_fn(t + dt), a2_fn(t + dt), A, B, jws)
        z = out[i + 1] = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise SimulationDiverged("non-finite envelope state")
    t_axis = np.arange(n + 1) * dt
    return t_axis, out
