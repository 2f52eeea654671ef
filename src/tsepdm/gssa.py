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

The rectifier law is written once, in the kernel `_rates` builds with its
drive and term buffers; the RK4 and the finite differences both call it. The
nonlinear integration (`simulate_envelope`) carries the complex state z
itself through RK4, with the terms -j ws z, A z and B u kept apart: folding
them or switching to a real 8x8 form changes the rounding, and near the
rectifier's phase singularity (k ~ 0.17) a last-bit change grows to 1e-4.
Its per-stage operands (step factors, stage weights, jws) are complex arrays
bound once per integration, and a drive is read once per distinct stage
time. The frequency response (`amplitude_bode`) solves its resolvent systems
in stacked blocks of ``BODE_BLOCK`` frequencies and takes each block's gains
in one product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_integer, check_interval
from .plant import PlantParams, SimulationDiverged, system_matrices

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


def _rates(A: np.ndarray, B: np.ndarray, jws: complex):
    """The rectifier law as a kernel ``rates(z, a1, a2, out)`` that writes the
    envelope dynamics dz/dt on the complex (4,) state into ``out``.

    Below a vanishing current envelope the rectifier has no phase reference
    and idles (u2 contribution zero), mirroring the switching model's
    unsynced startup. The drive u and the terms A z, B u and jws z live in
    buffers made once per kernel, so a call allocates no array; jws is a 0-d
    complex array, so no call converts a Python scalar.
    """
    A, B, jws = A.astype(complex), B.astype(complex), np.array(jws, dtype=complex)
    u = np.empty(2, dtype=complex)
    az, bu, jz = np.empty((3, 4), dtype=complex)
    dot, add, subtract, multiply = np.dot, np.add, np.subtract, np.multiply

    def rates(z, a1, a2, out):
        z2 = z[1]
        mag = abs(z2)
        u[0] = 0.5 * a1
        u[1] = 0.5 * a2 * z2 / mag if mag > 1e-9 else 0.0
        add(dot(A, z, az), dot(B, u, bu), out)
        return subtract(out, multiply(jws, z, jz), out)
    return rates


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
    rates = _rates(A, B, 1j * ws)

    def f(x, u1a, u2a):
        """`_rates` in stacked real form (Re z, Im z)."""
        dz = rates(x[:4] + 1j * x[4:], u1a, u2a, np.empty(4, dtype=complex))
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
    ``BODE_BLOCK`` frequencies per stacked `np.linalg.solve` call, and each
    block's gains are one `np.matmul`; each frequency gets the same LAPACK
    solve and dot product as a call of its own. ValueError when
    ``delta_omega`` is not one-dimensional or not finite.
    """
    if which not in CHANNELS:
        raise ValueError(f"unknown channel {which!r}; choose from {sorted(CHANNELS)}")
    dw = np.asarray(delta_omega, dtype=float)
    if dw.ndim != 1 or not np.isfinite(dw).all():
        raise ValueError("delta_omega must be a one-dimensional array of finite frequencies")
    in_idx, out_idx = CHANNELS[which]
    a_mat = model.state_matrix
    b_col = model.input_matrix[:, in_idx]
    c_row = model.output_amplitudes[out_idx]
    eye = np.eye(8)
    rows = np.empty((dw.shape[0], 2))
    rows[:, 0] = dw / model.params.ws
    for lo in range(0, dw.shape[0], BODE_BLOCK):
        w_blk = dw[lo:lo + BODE_BLOCK]
        x = np.linalg.solve(1j * w_blk[:, None, None] * eye - a_mat,
                            np.broadcast_to(b_col[:, None], (len(w_blk), 8, 1)))
        gains = np.matmul(c_row, x)[:, 0].tolist()
        rows[lo:lo + len(w_blk), 1] = [20.0 * math.log10(abs(g)) for g in gains]
    return rows


def bode_peak(rows: np.ndarray) -> tuple[float, float]:
    """Location and level of the largest magnitude in `amplitude_bode` rows."""
    idx = int(np.argmax(rows[:, 1]))
    return float(rows[idx, 0]), float(rows[idx, 1])


def bode_grid_rows(model: EnvelopeModel, which: str, ratio_min: float,
                   ratio_max: float, n_points: int) -> np.ndarray:
    """`amplitude_bode` rows on ``n_points`` ratios delta_omega/ws evenly
    spaced from ``ratio_min`` to ``ratio_max``.

    Requires real ratios with finite ``0 < ratio_min < ratio_max`` and an
    integer ``n_points >= 1``: TypeError for a value of another kind,
    ValueError for one out of range.
    """
    check_interval("ratio_min", ratio_min, 0.0, math.inf, "()")
    check_interval("ratio_max", ratio_max, 0.0, math.inf, "()")
    if not ratio_min < ratio_max:
        raise ValueError(f"need ratio_min < ratio_max, got {ratio_min!r}, {ratio_max!r}")
    check_integer("n_points", n_points, 1)
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
    a callable is evaluated once at each distinct stage time of every step,
    t, t + dt/2 and t + dt (the two midpoint stages share one value), and a
    constant is checked and converted to float once.
    ``initial`` is the stacked real state (Re z, Im z), 8 entries, zero by
    default. Returns (t, z) with z complex of shape (n + 1, 4); peak
    amplitudes are 2 |z|. The step must resolve the fast counter-rotating
    modes near 2 ws (default 0.1 us keeps |lambda| dt well inside the RK4
    stability region for switching frequencies in the hundreds of kHz).

    RK4 runs on the complex state z itself: every stage is the same IEEE
    operation per real and imaginary part as the stacked real 8-state form,
    so the result is bit-identical to it. Raises TypeError on a constant
    amplitude, ``dt`` or ``duration`` that is a str, bool or other non-real
    value; ValueError, before any step, on a constant amplitude that is NaN
    or infinite, a ``dt`` or ``duration`` outside (0, inf), a ``duration``
    shorter than one step and a malformed ``initial``;
    `plant.SimulationDiverged` when the result is not finite.
    """
    f1, f2 = callable(a1), callable(a2)  # a constant is checked and read once, here
    a1_t = a1_h = a1_dt = a1 if f1 else check_interval("a1", a1, -math.inf, math.inf, "()")
    a2_t = a2_h = a2_dt = a2 if f2 else check_interval("a2", a2, -math.inf, math.inf, "()")
    check_interval("dt", dt, 0.0, math.inf, "()")
    check_interval("duration", duration, 0.0, math.inf, "()")
    n = int(round(duration / dt))
    if n < 1:
        raise ValueError(f"duration {duration!r} is shorter than one step of {dt!r}")
    x = np.zeros(8) if initial is None else np.asarray(initial, dtype=float)
    if x.shape != (8,) or not np.isfinite(x).all():
        raise ValueError("initial must be 8 finite entries (Re z, Im z)")
    A, B = system_matrices(params)
    rates = _rates(A, B, 1j * params.ws)
    out = np.empty((n + 1, 4), dtype=complex)
    out[0] = x[:4] + 1j * x[4:]
    # classical RK4 with the drive read at t, t + h and t + dt (t + dt is not
    # the next step's t to the bit); the stages k1..k4 are the rows of k,
    # summed as k1 + 2 k2 + 2 k3 + k4 left to right. The factors and weights
    # are complex arrays: numpy casts a Python float to the same value per call
    k1, k2, k3, k4 = k = np.empty((4, 4), dtype=complex)
    weights = np.array([[1.0], [2.0], [2.0], [1.0]], dtype=complex)
    zs = np.empty(4, dtype=complex)
    h = 0.5 * dt
    h_c, dt_c, dt6_c = (np.array(c, dtype=complex) for c in (h, dt, dt / 6.0))
    add, multiply, reduce = np.add, np.multiply, np.add.reduce
    for i in range(n):
        t = i * dt
        if f1:
            a1_t, a1_h, a1_dt = a1(t), a1(t + h), a1(t + dt)
        if f2:
            a2_t, a2_h, a2_dt = a2(t), a2(t + h), a2(t + dt)
        z = out[i]
        rates(z, a1_t, a2_t, k1)
        rates(add(z, multiply(h_c, k1, zs), zs), a1_h, a2_h, k2)
        rates(add(z, multiply(h_c, k2, zs), zs), a1_h, a2_h, k3)
        rates(add(z, multiply(dt_c, k3, zs), zs), a1_dt, a2_dt, k4)
        reduce(multiply(k, weights, k), axis=0, out=zs)
        add(z, multiply(dt6_c, zs, zs), out[i + 1])
    if not np.isfinite(out).all():
        raise SimulationDiverged("non-finite envelope state")
    t_axis = np.arange(n + 1) * dt
    return t_axis, out
