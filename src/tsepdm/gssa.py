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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import PlantParams, system_matrices

# Relative step for the central-difference linearization.
FD_RELATIVE_STEP = 1e-6

_CHANNELS = {
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
    equilibrium: np.ndarray        # (8,)
    i1_amp: float                  # peak |i1| at the operating point (A)
    i2_amp: float
    params: PlantParams
    drive_amps: tuple[float, float]


def resonant_peak_prediction(params: PlantParams) -> float:
    """Beat resonance estimate k ws / 2 in rad/s."""
    return 0.5 * params.k * params.ws


def _envelope_rates(x8: np.ndarray, a1: float, a2: float,
                    A: np.ndarray, B: np.ndarray, ws: float) -> np.ndarray:
    """Nonlinear envelope dynamics in stacked real form.

    Below a vanishing current envelope the rectifier has no phase reference
    and idles (u2 contribution zero), mirroring the switching model's
    unsynced startup.
    """
    z = x8[:4] + 1j * x8[4:]
    z2 = z[1]
    mag = abs(z2)
    u2 = 0.5 * a2 * z2 / mag if mag > 1e-9 else 0.0
    u = np.array([0.5 * a1, u2])
    dz = (A @ z) + (B @ u) - 1j * ws * z
    return np.concatenate([dz.real, dz.imag])


def _solve_equilibrium(A, B, ws, a1, a2, max_iter=500, tol=1e-13) -> np.ndarray:
    """Relaxed fixed-point iteration on the rectifier phase axis."""
    shift = A - 1j * ws * np.eye(4)
    phase = -0.5 * math.pi
    z = np.zeros(4, dtype=complex)
    for _ in range(max_iter):
        u = np.array([0.5 * a1, 0.5 * a2 * np.exp(1j * phase)])
        z = np.linalg.solve(-shift, B @ u)
        step = float(np.angle(z[1] * np.exp(-1j * phase)))
        if abs(step) < tol:
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

    def f(x, u1a, u2a):
        return _envelope_rates(x, u1a, u2a, A, B, ws)

    a_mat = np.empty((8, 8))
    for j in range(8):
        eps = FD_RELATIVE_STEP * max(1.0, abs(x0[j]))
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += eps
        xm[j] -= eps
        a_mat[:, j] = (f(xp, a1, a2) - f(xm, a1, a2)) / (2.0 * eps)
    b_mat = np.empty((8, 2))
    for j, (up, um) in enumerate((((a1 + FD_RELATIVE_STEP * a1, a2),
                                   (a1 - FD_RELATIVE_STEP * a1, a2)),
                                  ((a1, a2 + FD_RELATIVE_STEP * a2),
                                   (a1, a2 - FD_RELATIVE_STEP * a2)))):
        eps = FD_RELATIVE_STEP * (a1 if j == 0 else a2)
        b_mat[:, j] = (f(x0, *up) - f(x0, *um)) / (2.0 * eps)

    z1 = complex(x0[0], x0[4])
    z2 = complex(x0[1], x0[5])
    c_amp = np.zeros((2, 8))
    c_amp[0, 0] = 2.0 * z1.real / abs(z1)
    c_amp[0, 4] = 2.0 * z1.imag / abs(z1)
    c_amp[1, 1] = 2.0 * z2.real / abs(z2)
    c_amp[1, 5] = 2.0 * z2.imag / abs(z2)

    return EnvelopeModel(state_matrix=a_mat, input_matrix=b_mat,
                         output_amplitudes=c_amp,
                         equilibrium=x0, i1_amp=2.0 * abs(z1),
                         i2_amp=2.0 * abs(z2), params=params,
                         drive_amps=(a1, a2))


def amplitude_bode(model: EnvelopeModel, which: str,
                   delta_omega) -> np.ndarray:
    """Amplitude-to-amplitude frequency response of the linearized model.

    ``which`` selects the channel (``"u1->i1"`` etc.); ``delta_omega`` is a
    grid of envelope frequencies in rad/s. Returns rows
    (delta_omega / ws, magnitude dB).
    """
    if which not in _CHANNELS:
        raise ValueError(f"unknown channel {which!r}; choose from {sorted(_CHANNELS)}")
    in_idx, out_idx = _CHANNELS[which]
    dw = np.asarray(delta_omega, dtype=float)
    a_mat = model.state_matrix
    b_col = model.input_matrix[:, in_idx]
    c_row = model.output_amplitudes[out_idx]
    eye = np.eye(8)
    rows = np.empty((dw.shape[0], 2))
    for i, w in enumerate(dw):
        g = c_row @ np.linalg.solve(1j * w * eye - a_mat, b_col)
        rows[i] = (w / model.params.ws, 20.0 * math.log10(abs(g)))
    return rows


def find_bode_peak(model: EnvelopeModel, which: str,
                   ratio_min: float = 0.01, ratio_max: float = 0.25,
                   n_points: int = 600) -> tuple[float, float]:
    """Location (as delta_omega/ws) and level (dB) of the response peak."""
    dw = np.linspace(ratio_min, ratio_max, n_points) * model.params.ws
    rows = amplitude_bode(model, which, dw)
    idx = int(np.argmax(rows[:, 1]))
    return float(rows[idx, 0]), float(rows[idx, 1])


def simulate_envelope(params: PlantParams, a1, a2, duration: float,
                      dt: float = 1e-7,
                      initial: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the nonlinear envelope system (fixed-step RK4).

    ``a1``/``a2`` are drive amplitudes, constants or callables of time.
    Returns (t, z) with z complex of shape (n, 4); peak amplitudes are
    2 |z|. The step must resolve the fast counter-rotating modes near
    2 ws (default 0.1 us keeps |lambda| dt well inside the RK4 stability
    region for switching frequencies in the hundreds of kHz).
    """
    A, B = system_matrices(params)
    ws = params.ws
    a1_fn = a1 if callable(a1) else (lambda t, v=float(a1): v)
    a2_fn = a2 if callable(a2) else (lambda t, v=float(a2): v)
    n = int(round(duration / dt))
    x = np.zeros(8) if initial is None else np.asarray(initial, dtype=float)
    out = np.empty((n + 1, 4), dtype=complex)
    out[0] = x[:4] + 1j * x[4:]
    for i in range(n):
        t = i * dt
        # classical RK4 with the drive sampled at stage times
        k1 = _envelope_rates(x, a1_fn(t), a2_fn(t), A, B, ws)
        k2 = _envelope_rates(x + 0.5 * dt * k1, a1_fn(t + 0.5 * dt),
                             a2_fn(t + 0.5 * dt), A, B, ws)
        k3 = _envelope_rates(x + 0.5 * dt * k2, a1_fn(t + 0.5 * dt),
                             a2_fn(t + 0.5 * dt), A, B, ws)
        k4 = _envelope_rates(x + dt * k3, a1_fn(t + dt), a2_fn(t + dt), A, B, ws)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x[:4] + 1j * x[4:]
    t_axis = np.arange(n + 1) * dt
    return t_axis, out
