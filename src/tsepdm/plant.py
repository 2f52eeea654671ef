"""Fixed-step time-domain simulator of the SS-compensated coupled-coil tank.

State vector x = (i1, i2, vC1, vC2) obeys the linear network equations

    [L1 M ] [di1/dt]   [ u1 - R1 i1 - vC1 ]
    [M  L2] [di2/dt] = [-u2 - R2 i2 - vC2 ]
    dvC1/dt = i1 / C1,   dvC2/dt = i2 / C2

where u1 is the primary bridge voltage and u2 the voltage the secondary
bridge presents to its coil loop (sign such that positive u2*i2 is power
delivered to the output rail).

The co-simulation loop drives u1 from a free-running half-cycle clock
(one modulator tick per half cycle) and u2 from i2 zero crossings: outside
a blanking window each detected crossing sets the synchronous carrier c2
to the new current polarity, ticks the secondary modulator, and applies
u2 = Vo * y2 * c2 so the active rectifier opposes the current (skipped
pulses short the rectifier, u2 = 0).

Drives are constant between half-cycle boundaries and detected crossings,
so a classical RK4 step reduces exactly to an affine map x -> M x + N u
(M, N are the degree-4 Taylor truncations of the exact exponential maps).
The simulator precomputes the per-step maps for a whole half cycle and
propagates each constant-drive segment in one vectorized call; crossings
are located by linear interpolation and the containing step is split there
so drive changes always land on (sub)step boundaries, keeping the RK4
order intact.

The one half-cycle loop propagates in one of two modes, chosen by
``SimConfig.collect_samples``:

- Sample-collecting runs write all four states of a segment in place into
  its rows of the samples as ``CM[:n] @ x + CN[:n] @ u`` (one product on the
  flat stack of maps, the drive term added in place; the next segment
  overwrites the rows after a crossing) and split a crossing step with both
  sub-step maps from one stacked `rk4_affine_maps` call. These are the sums
  of one product per step and one map build per sub-step, bit for bit; they
  are kept because the ``simulate --trace/--events`` CSV files are compared
  byte for byte between versions.
- Runs without samples (sweep points, dynamic tracking) read only the
  currents. Each segment is one matrix-vector product of the stacked i1/i2
  rows of ``G[i] = [CM[i] | CN[i]]`` with z = (x, u), written in place into
  the half cycle's row of a (CHUNK, 2 steps + 2) buffer; the next segment
  overwrites the tail from its own start. The state is kept as Python
  floats and formed only before a split and at the half-cycle end. A step
  is split by Horner's rule in the sub-step on the precomputed powers of
  the augmented generator [[A, B], [0, 0]], the same degree-4 polynomial
  that `rk4_affine_maps` builds. Event times and envelopes agree with the
  sample-collecting mode to rounding.

Both modes take the envelope peaks (max |i1|, |i2| over the samples of each
half cycle) once per CHUNK half cycles, from the buffer or from the samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .modulator import PulseDensityModulator


# Half cycles whose envelope peaks are reduced together; the no-sample
# current buffer holds CHUNK x (2 steps + 2) floats.
CHUNK = 64


class SimulationDiverged(ArithmeticError):
    """Raised when the integrator produces a non-finite state."""


@dataclass(frozen=True)
class PlantParams:
    """Circuit constants of the coupled resonant network (SI units)."""

    L1: float = 31.7e-6
    L2: float = 29.7e-6
    C1: float = 8.88e-9
    C2: float = 9.47e-9
    R1: float = 0.1
    R2: float = 0.1
    k: float = 0.15
    Vg: float = 50.0
    Vo: float = 50.0
    fs: float = 300e3

    def __post_init__(self):
        for name in ("L1", "L2", "C1", "C2", "R1", "R2", "Vg", "Vo", "fs"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.k < 1.0):
            raise ValueError("coupling coefficient k must be in (0, 1)")

    @property
    def M(self) -> float:
        """Mutual inductance k * sqrt(L1 L2)."""
        return self.k * math.sqrt(self.L1 * self.L2)

    @property
    def ws(self) -> float:
        """Switching angular frequency 2 pi fs."""
        return 2.0 * math.pi * self.fs


#: Measured prototype constants used as defaults throughout the package.
DEFAULT_PARAMS = PlantParams()


@dataclass
class PlantState:
    i1: float = 0.0
    i2: float = 0.0
    vC1: float = 0.0
    vC2: float = 0.0
    t: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.i1, self.i2, self.vC1, self.vC2])

    @classmethod
    def from_array(cls, x, t: float = 0.0) -> "PlantState":
        i1, i2, v1, v2 = (float(v) for v in x)
        return cls(i1=i1, i2=i2, vC1=v1, vC2=v2, t=t)


@dataclass(frozen=True)
class SimConfig:
    steps_per_half_cycle: int = 256
    duration: float = 3e-3
    blanking_fraction: float = 0.25
    initial_state: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    collect_samples: bool = True

    def __post_init__(self):
        if self.steps_per_half_cycle < 32:
            raise ValueError("steps_per_half_cycle must be >= 32")
        if not (0.0 < self.blanking_fraction < 0.5):
            raise ValueError("blanking_fraction must be in (0, 0.5)")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")


class GateEvent(NamedTuple):
    tick: int
    side: str
    y: int
    s: int
    t: float


@dataclass
class Trace:
    """Simulation record.

    ``states`` rows are (i1, i2, vC1, vC2) on the uniform step grid and
    ``u`` rows hold the drive pair active on the step ending at each sample
    (after a mid-step crossing split, the post-crossing drive). Both are
    empty when the run was configured not to collect samples. Per-half-cycle
    current peaks are always recorded in ``envelope_i1``/``envelope_i2``.
    """

    t: np.ndarray
    states: np.ndarray
    u: np.ndarray
    events: list[GateEvent]
    envelope_t: np.ndarray
    envelope_i1: np.ndarray
    envelope_i2: np.ndarray
    diagnostics: list[str]
    params: PlantParams
    config: SimConfig
    dt: float

    @property
    def steps_per_half_cycle(self) -> int:
        return self.config.steps_per_half_cycle

    def state_at(self, index: int) -> PlantState:
        """Sampled state as a record (requires collected samples)."""
        if self.states.shape[0] == 0:
            raise ValueError("trace has no collected samples")
        return PlantState.from_array(self.states[index], t=float(self.t[index]))


def system_matrices(params: PlantParams) -> tuple[np.ndarray, np.ndarray]:
    """State matrix A and drive matrix B for dx/dt = A x + B (u1, u2)."""
    L = np.array([[params.L1, params.M], [params.M, params.L2]])
    det = params.L1 * params.L2 - params.M ** 2
    if det <= 0.0:
        raise ValueError("inductance matrix is not positive definite")
    Linv = np.linalg.inv(L)
    A = np.zeros((4, 4))
    A[:2, :2] = Linv @ np.diag([-params.R1, -params.R2])
    A[:2, 2:] = -Linv
    A[2, 0] = 1.0 / params.C1
    A[3, 1] = 1.0 / params.C2
    B = np.zeros((4, 2))
    B[:2, :] = Linv @ np.diag([1.0, -1.0])
    return A, B


def rk4_step(state, deriv: Callable[[np.ndarray], np.ndarray], h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of an autonomous system."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    x = np.asarray(state, dtype=float)
    k1 = deriv(x)
    k2 = deriv(x + 0.5 * h * k1)
    k3 = deriv(x + 0.5 * h * k2)
    k4 = deriv(x + h * k3)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise SimulationDiverged(f"non-finite state after step h={h}")
    return out


@functools.cache
def _identity(n: int) -> np.ndarray:
    """Read-only ``np.eye(n)``, built once per size; callers only read it."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def rk4_affine_maps(A: np.ndarray, B: np.ndarray, h
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Collapse one RK4 step of dx/dt = A x + B u (u constant) to x -> M x + N u.

    M is the degree-4 Taylor truncation of expm(h A); N the matching input
    integral. Equals the four-stage RK4 update up to floating-point
    rounding (same polynomial, different evaluation order). An (m, 1, 1)
    stack ``h`` gives stacks of M and N, bit-identical to m scalar calls.
    """
    n = A.shape[0]
    hA = h * A
    M = term = S = acc = _identity(n)
    for kk in range(1, 5):
        term = term @ hA / kk
        M = M + term
    for kk in range(1, 4):
        acc = acc @ hA / (kk + 1)
        S = S + acc
    N = h * (S @ B)
    return M, N


class _AffinePropagator:
    """Per-step affine maps for one half cycle of constant-drive segments.

    Rows 4i..4i+3 of the flat ``CM``/``CN`` map the state/drive at a segment
    start to the state i + 1 steps on; ``G[i] = [CM_i | CN_i]`` acts on (x, u).
    ``G12`` holds just the i1/i2 rows of the identity followed by those of
    every ``G[i]``, as one contiguous (2 (steps + 1), 6) matrix. ``P[r, k]``
    is row r of Abar^k / k!, k = 0..4, for the augmented generator
    Abar = [[A, B], [0, 0]].
    """

    def __init__(self, A, B, h, steps):
        self.A = A
        self.B = B
        self.h = h
        M, N = rk4_affine_maps(A, B, h)
        CM = np.empty((steps, 4, 4))
        CN = np.empty((steps, 4, 2))
        CM[0] = M
        CN[0] = N
        for i in range(1, steps):
            CM[i] = M @ CM[i - 1]
            CN[i] = M @ CN[i - 1] + N
        self.CM = CM.reshape(4 * steps, 4)
        self.CN = CN.reshape(4 * steps, 2)
        self.G = np.concatenate((CM, CN), axis=2)
        self.G12 = np.concatenate((np.eye(2, 6), self.G[:, :2, :].reshape(2 * steps, 6)))
        Abar = np.zeros((6, 6))
        Abar[:4, :4] = A
        Abar[:4, 4:] = B
        term = np.eye(6)
        powers = [term[:4]]
        for kk in range(1, 5):
            term = term @ Abar / kk
            powers.append(term[:4])
        self.P = np.stack(powers, axis=1)

    def cross(self, x, u_old, u_new, alpha):
        """The step split at fraction alpha: RK4 under u_old, then under u_new."""
        widths = np.array((alpha * self.h, (1.0 - alpha) * self.h)).reshape(2, 1, 1)
        (Ma, Mb), (Na, Nb) = rk4_affine_maps(self.A, self.B, widths)
        return Mb @ (Ma @ x + Na @ u_old) + Nb @ u_new

    def split(self, x, u, dt):
        """RK4 step of width dt by Horner's rule on the stored powers, as a list."""
        # Python floats: the same IEEE operations as numpy, at a fraction of
        # the per-call cost on four-element vectors.
        coef = (self.P @ np.array([*x, *u])).tolist()
        return [(((c4 * dt + c3) * dt + c2) * dt + c1) * dt + c0
                for c0, c1, c2, c3, c4 in coef]


def _as_waveform(d) -> Callable[[float], float]:
    if callable(d):
        return d
    value = float(d)
    return lambda t: value


def simulate(params: PlantParams, config: SimConfig,
             primary_modulator: PulseDensityModulator,
             secondary_modulator: PulseDensityModulator,
             d1, d2,
             vg_of_t: Callable[[float], float] | None = None,
             vo_of_t: Callable[[float], float] | None = None) -> Trace:
    """Co-simulate the tank with PDM bridges on both sides.

    ``d1``/``d2`` are pulse densities in [0, 1], constants or callables of
    time. ``vg_of_t``/``vo_of_t`` optionally modulate the dc rails (sampled
    at the corresponding modulator ticks); by default the rails are the
    constant ``params.Vg``/``params.Vo``.
    """
    half = 0.5 / params.fs
    steps = config.steps_per_half_cycle
    h = half / steps
    n_half = int(round(config.duration / half))
    if n_half < 1:
        raise ValueError("duration shorter than one half cycle")
    Tsw = 1.0 / params.fs
    A, B = system_matrices(params)
    prop = _AffinePropagator(A, B, h, steps)
    d1_fn = _as_waveform(d1)
    d2_fn = _as_waveform(d2)

    x = np.asarray(config.initial_state, dtype=float)
    if x.shape != (4,):
        raise ValueError("initial_state must have 4 entries")

    collect = config.collect_samples
    n_samples = n_half * steps + 1
    if collect:
        flat = np.empty(4 * n_samples)  # samples row-major; segments write here
        samples = flat.reshape(n_samples, 4)
        u_log = np.zeros((n_samples, 2))
        cn_u = np.empty(4 * steps)  # the drive term of one segment
        samples[0] = x
    else:
        samples = np.empty((0, 4))
        u_log = np.empty((0, 2))
        buf = np.empty((CHUNK, 2 * steps + 2))  # row: (i1, i2) at samples 0..steps
        x = x.tolist()

    env_t = np.empty(n_half)
    env1 = np.empty(n_half)
    env2 = np.empty(n_half)
    events: list[GateEvent] = []
    diagnostics: list[str] = []

    c2 = 1
    blanking_until = -math.inf
    last_crossing = 0.0
    starved = False
    u2 = 0.0  # rectifier idles shorted until the first crossing locks c2
    tick2 = 0

    for hc in range(n_half):
        t0 = hc * half
        dv1 = float(d1_fn(t0))
        if not (0.0 <= dv1 <= 1.0):
            raise ValueError(f"d1({t0}) = {dv1} outside [0, 1]")
        y1 = primary_modulator.step(dv1)
        s1 = -y1 if hc % 2 else y1  # the carrier alternates every half cycle
        rail1 = params.Vg if vg_of_t is None else float(vg_of_t(t0))
        u1 = rail1 * s1
        events.append(GateEvent(hc, "primary", y1, s1, t0))
        if collect and hc == 0:
            u_log[0] = (u1, u2)

        base = hc * steps
        if not collect:
            row = buf[hc % CHUNK]
        pos = 0
        while pos < steps:
            n_rem = steps - pos
            # i2 at samples pos..steps: collecting runs write all four states
            # of samples pos+1..steps in place, the others the currents into row.
            if collect:
                seg = flat[4 * (base + pos + 1): 4 * (base + steps + 1)]
                np.matmul(prop.CM[:4 * n_rem], x, out=seg)
                seg += np.matmul(prop.CN[:4 * n_rem], (u1, u2), out=cn_u[:4 * n_rem])
                u_log[base + pos + 1: base + steps + 1] = (u1, u2)
                i2 = samples[base + pos: base + steps + 1, 1]
            else:
                z = np.array(x + [u1, u2])
                np.matmul(prop.G12[:2 * n_rem + 2], z, out=row[2 * pos:])
                i2 = row[2 * pos + 1::2]
            left, i2_seq = i2[:-1], i2[1:]
            cross_candidates = (left * i2_seq < 0.0).nonzero()[0]
            accept = -1
            for j in cross_candidates.tolist():
                alpha_j = left[j] / (left[j] - i2_seq[j])
                if t0 + (pos + j + alpha_j) * h >= blanking_until:
                    accept = j
                    alpha = float(alpha_j)
                    break
            # samples before the accepted crossing (the whole rest if none)
            j = n_rem if accept < 0 else accept
            if collect:
                x = samples[base + pos + j]
            elif j > 0:
                x = (prop.G[j - 1] @ z).tolist()
            if accept < 0:
                break

            t_x = t0 + (pos + j + alpha) * h
            u_old = (u1, u2)
            c2 = 1 if i2_seq[j] > left[j] else -1
            blanking_until = t_x + config.blanking_fraction * half
            last_crossing = t_x
            dv2 = float(d2_fn(t_x))
            if not (0.0 <= dv2 <= 1.0):
                raise ValueError(f"d2({t_x}) = {dv2} outside [0, 1]")
            y2 = secondary_modulator.step(dv2)
            s2 = y2 * c2
            rail2 = params.Vo if vo_of_t is None else float(vo_of_t(t_x))
            u2 = rail2 * s2
            events.append(GateEvent(tick2, "secondary", y2, s2, t_x))
            tick2 += 1
            x = (prop.cross(x, u_old, (u1, u2), alpha) if collect else
                 prop.split(prop.split(x, u_old, alpha * h), (u1, u2), (1.0 - alpha) * h))
            pos += j + 1
            # x is sample pos; a next segment overwrites the rows after it
            if collect:
                samples[base + pos] = x
                u_log[base + pos] = (u1, u2)
            elif pos == steps:
                row[-2:] = x[:2]

        if not all(map(math.isfinite, x)):
            raise SimulationDiverged(
                f"non-finite state at t={t0 + half:.6e}s (half cycle {hc})")
        t_end = (hc + 1) * half
        env_t[hc] = t_end
        if (not starved and (t_end - last_crossing) > 3.0 * Tsw
                and float(d2_fn(t_end)) < 1.0):
            diagnostics.append(
                f"secondary sync starved: no i2 crossing in 3 switching "
                f"periods before t={t_end:.6e}s; c2 frozen")
            starved = True

        # envelope peaks: max |i| over samples 0..steps of each half cycle
        if hc % CHUNK == CHUNK - 1 or hc == n_half - 1:
            lo = hc - hc % CHUNK
            for env, col in ((env1, 0), (env2, 1)):
                w = (sliding_window_view(samples[lo * steps: base + steps + 1, col],
                                         steps + 1)[::steps]
                     if collect else buf[:hc + 1 - lo, col::2])
                env[lo:hc + 1] = np.abs(w).max(axis=1)

    t_axis = np.arange(n_samples if collect else 0, dtype=float)
    t_axis *= h  # in place: no second sample-sized array
    return Trace(t=t_axis, states=samples, u=u_log, events=events,
                 envelope_t=env_t, envelope_i1=env1, envelope_i2=env2,
                 diagnostics=diagnostics, params=params, config=config, dt=h)


def resonance_report(params: PlantParams) -> dict[str, float]:
    """Per-side series resonance frequencies in Hz."""
    return {
        "f01": 1.0 / (2.0 * math.pi * math.sqrt(params.L1 * params.C1)),
        "f02": 1.0 / (2.0 * math.pi * math.sqrt(params.L2 * params.C2)),
    }


def phasor_steady_state(params: PlantParams,
                        u1_amp: float | None = None,
                        u2_amp: float | None = None,
                        max_iter: int = 200,
                        tol: float = 1e-14) -> tuple[complex, complex]:
    """First-harmonic steady-state current phasors (peak amplitudes).

    Solves the complex mesh equations at the switching frequency with the
    secondary drive amplitude phase-locked to i2 (active rectification):

        Z1 I1 + jwM I2 = U1
        jwM I1 + Z2 I2 = -U2 e^{j angle(I2)}

    Defaults: U1 = 4 Vg / pi and U2 = 4 Vo / pi, the square-wave
    fundamentals at full pulse density. The phase-locked system is solved
    by fixed-point iteration on the i2 phase.
    """
    w = params.ws
    Z1 = params.R1 + 1j * (w * params.L1 - 1.0 / (w * params.C1))
    Z2 = params.R2 + 1j * (w * params.L2 - 1.0 / (w * params.C2))
    jwM = 1j * w * params.M
    U1 = 4.0 * params.Vg / math.pi if u1_amp is None else u1_amp
    U2 = 4.0 * params.Vo / math.pi if u2_amp is None else u2_amp
    Z = np.array([[Z1, jwM], [jwM, Z2]])
    I = np.linalg.solve(Z, np.array([U1, 0.0]))
    phase = np.angle(I[1])
    for _ in range(max_iter):
        rhs = np.array([U1, -U2 * np.exp(1j * phase)])
        I = np.linalg.solve(Z, rhs)
        new_phase = np.angle(I[1])
        if abs(new_phase - phase) < tol:
            phase = new_phase
            break
        phase = new_phase
    return complex(I[0]), complex(I[1])
