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

Both modes of ``SimConfig.collect_samples`` run one half-cycle loop. Each
segment is one matrix-vector product ``np.dot(stack, z, out=...)`` of a
stack with z = (x, u): ``[I | 0]`` followed by the rows of every
``G[i] = [CM_i | CN_i]``. It writes samples pos..steps of the half cycle in
place into one array, all four states of every sample in collecting runs,
only i1/i2 in a ring of CHUNK half cycles otherwise; the next segment
overwrites the rows after a crossing. The state handed on is
``G[j - 1].dot(z)`` as Python floats, in collecting runs the same bits as
the row the product wrote. ``ndarray.dot`` runs the same BLAS
matrix-vector product as ``@`` without the ufunc dispatch. The loop reads
the mode only at the crossing split. Collecting runs build both sub-step
maps in one stacked `rk4_affine_maps` call, kept because the
``simulate --trace/--events`` CSV files are compared byte for byte between
versions. The others evaluate each sub-step by Horner's rule on the
precomputed powers of the augmented generator [[A, B], [0, 0]], stored as
one flat (20, 6) table (row 5 r + k for state r and power k), the same
degree-4 polynomial; event times and envelopes agree to rounding.

The envelope peaks (max |i1|, |i2| over the samples of each half cycle) are
reduced once per CHUNK half cycles from that array. Collecting runs build
``Trace.u`` after the loop from each half cycle's u1 and each accepted
crossing's sample row.
"""

from __future__ import annotations

import functools
import math
import numbers
from array import array
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .modulator import PulseDensityModulator


# Half cycles whose envelope peaks are reduced together; runs without
# samples keep the currents of this many half cycles.
CHUNK = 64


class SimulationDiverged(ArithmeticError):
    """Raised when the integrator produces a non-finite state."""


def check_real(name: str, value) -> None:
    """Raise TypeError unless ``value`` is a real number: a str, a bool
    (numpy's too), a complex value or None is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")


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
        for f in fields(self):
            value = getattr(self, f.name)
            check_real(f.name, value)
            if f.name != "k" and not 0.0 < value < math.inf:  # also rejects NaN
                raise ValueError(f"{f.name} must be finite and positive, got {value!r}")
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


@dataclass(frozen=True)
class SimConfig:
    steps_per_half_cycle: int = 256
    duration: float = 3e-3
    blanking_fraction: float = 0.25
    initial_state: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    collect_samples: bool = True

    def __post_init__(self):
        steps = self.steps_per_half_cycle
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
            raise TypeError(f"steps_per_half_cycle must be an integer, got {steps!r}")
        if steps < 32:
            raise ValueError("steps_per_half_cycle must be >= 32")
        check_real("blanking_fraction", self.blanking_fraction)
        if not (0.0 < self.blanking_fraction < 0.5):
            raise ValueError("blanking_fraction must be in (0, 0.5)")
        check_real("duration", self.duration)
        if not 0.0 < self.duration < math.inf:  # also rejects NaN
            raise ValueError(f"duration must be finite and positive, got {self.duration!r}")
        for i, value in enumerate(self.initial_state):
            check_real(f"initial_state[{i}]", value)
        state = np.asarray(self.initial_state, dtype=float)
        if state.shape != (4,) or not np.isfinite(state).all():
            raise ValueError("initial_state must be 4 finite numbers, "
                             f"got {self.initial_state!r}")


class GateEvent(NamedTuple):
    tick: int
    side: str
    y: int
    s: int
    t: float


@dataclass
class Trace:
    """What a run produced (its params and config are the caller's).

    ``states`` rows are (i1, i2, vC1, vC2) on the step grid ``t`` (step 0.5 /
    (fs steps_per_half_cycle)), ``u`` rows the drive pair active on the step
    ending at each sample (after a mid-step crossing split, the post-crossing
    drive); all three are empty in runs without samples. Per-half-cycle
    current peaks are always in ``envelope_i1``/``envelope_i2``.
    """

    t: np.ndarray
    states: np.ndarray
    u: np.ndarray
    events: list[GateEvent]
    envelope_t: np.ndarray
    envelope_i1: np.ndarray
    envelope_i2: np.ndarray
    diagnostics: list[str]


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
    eye = _identity(A.shape[0])
    # Both series start at their first term hA: I @ hA multiplies by 1 and
    # adds zeros, so it gives the same M and S.
    hA = h * A
    M = eye + hA
    term = hA
    for kk in range(2, 5):
        term = term @ hA / kk
        M = M + term
    acc = hA / 2
    S = eye + acc
    for kk in range(2, 4):
        acc = acc @ hA / (kk + 1)
        S = S + acc
    N = h * (S @ B)
    return M, N


class _AffinePropagator:
    """Per-step affine maps for one half cycle of constant-drive segments.

    ``G[i] = [CM_i | CN_i]`` maps z = (x, u) at a segment start to the state
    i + 1 steps on. Row 5 r + k of ``P`` is row r of Abar^k / k!, k = 0..4,
    for the augmented generator Abar = [[A, B], [0, 0]].
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
        self.G = np.concatenate((CM, CN), axis=2)
        Abar = np.zeros((6, 6))
        Abar[:4, :4] = A
        Abar[:4, 4:] = B
        term = np.eye(6)
        powers = [term[:4]]
        for kk in range(1, 5):
            term = term @ Abar / kk
            powers.append(term[:4])
        self.P = np.stack(powers, axis=1).reshape(20, 6)

    def stack(self, width):
        """``[I | 0]`` followed by every ``G[i]``, the first ``width`` state
        rows of each, as one contiguous ((steps + 1) width, 6) matrix."""
        return np.concatenate((np.eye(4, 6)[None], self.G))[:, :width].reshape(-1, 6)

    def cross(self, x, u_old, u_new, alpha):
        """The step split at fraction alpha: RK4 under u_old, then under u_new."""
        widths = np.array((alpha * self.h, (1.0 - alpha) * self.h)).reshape(2, 1, 1)
        (Ma, Mb), (Na, Nb) = rk4_affine_maps(self.A, self.B, widths)
        return Mb @ (Ma @ x + Na @ u_old) + Nb @ u_new

    def split(self, x, u, dt):
        """RK4 step of width dt by Horner's rule on the stored powers, as a list."""
        # Python floats: the same IEEE operations as numpy, at a fraction of
        # the per-call cost on four-element vectors.
        c = self.P.dot(np.array([*x, *u])).tolist()
        return [(((c[k + 4] * dt + c[k + 3]) * dt + c[k + 2]) * dt + c[k + 1]) * dt + c[k]
                for k in (0, 5, 10, 15)]


def _checked_reader(f, name: str, lo: float, hi: float,
                    closed: bool = True) -> Callable[[float], float]:
    """Reader of ``f`` (a value or callable of time), a real number checked in
    [lo, hi], or in (lo, hi) when not ``closed``; a str, bool or other
    non-real value raises TypeError."""
    def read(t: float) -> float:
        value = f(t) if callable(f) else f
        if type(value) is not float:  # a plain float needs no type check
            check_real(f"{name}({t})", value)
            value = float(value)
        if not (lo <= value <= hi if closed else lo < value < hi):
            raise ValueError(f"{name}({t}) = {value} outside {interval}")
        return value
    interval = f"[{lo:g}, {hi:g}]" if closed else f"({lo:g}, {hi:g})"
    return read


def half_cycle_ends(params: PlantParams, duration: float) -> np.ndarray:
    """End time of each half cycle a run of ``duration`` simulates, the
    ``Trace.envelope_t`` axis: ``round(duration / half)`` half cycles."""
    half = 0.5 / params.fs
    return np.arange(1, int(round(duration / half)) + 1) * half


def simulate(params: PlantParams, config: SimConfig,
             primary_modulator: PulseDensityModulator,
             secondary_modulator: PulseDensityModulator,
             d1, d2,
             vg_of_t: Callable[[float], float] | None = None) -> Trace:
    """Co-simulate the tank with PDM bridges on both sides.

    ``d1``/``d2`` are pulse densities in [0, 1], constants or callables of
    time. ``vg_of_t`` optionally modulates the primary dc rail (sampled at
    the primary modulator ticks, finite and positive, else ValueError); by
    default it is the constant ``params.Vg``. The secondary rail is ``params.Vo``.
    """
    half = 0.5 / params.fs
    steps = config.steps_per_half_cycle
    h = half / steps
    env_t = half_cycle_ends(params, config.duration)
    n_half = len(env_t)
    if n_half < 1:
        raise ValueError("duration shorter than one half cycle")
    Tsw = 1.0 / params.fs
    A, B = system_matrices(params)
    prop = _AffinePropagator(A, B, h, steps)
    read_d1 = _checked_reader(d1, "d1", 0.0, 1.0)
    read_d2 = _checked_reader(d2, "d2", 0.0, 1.0)
    read_vg = _checked_reader(vg_of_t, "vg_of_t", 0.0, math.inf, closed=False)

    collect = config.collect_samples
    # Sample rows: all states of the whole run, or i1/i2 of a ring of CHUNK
    # half cycles. Half cycle hc holds rows base..base + steps, base =
    # (hc % ring) steps; consecutive half cycles share their boundary row.
    width = 4 if collect else 2
    ring = n_half if collect else CHUNK
    stack = prop.stack(width)
    samples = np.empty((ring * steps + 1, width))
    flat = samples.reshape(-1)
    x = [float(v) for v in config.initial_state]

    u1_log = np.empty(n_half)  # each half cycle's primary drive
    cross_rows = array("q")  # each accepted crossing's first row under its drive, as int64
    env1 = np.empty(n_half)
    env2 = np.empty(n_half)
    events: list[GateEvent] = []
    diagnostics: list[str] = []

    c2 = 1
    blanking_until = -math.inf
    last_crossing = 0.0
    starved = False
    u2 = 0.0  # rectifier idles shorted until the first crossing locks c2

    for hc in range(n_half):
        t0 = hc * half
        y1 = primary_modulator.step(read_d1(t0))
        s1 = -y1 if hc % 2 else y1  # the carrier alternates every half cycle
        rail1 = params.Vg if vg_of_t is None else read_vg(t0)
        u1 = u1_log[hc] = rail1 * s1
        events.append(GateEvent(hc, "primary", y1, s1, t0))

        base = (hc % ring) * steps  # also the sample index when collecting
        pos = 0
        while pos < steps:
            n_rem = steps - pos
            # samples pos..steps of the half cycle, written in place
            z = np.array(x + [u1, u2])
            seg = flat[width * (base + pos): width * (base + steps + 1)]
            np.dot(stack[:width * (n_rem + 1)], z, out=seg)
            i2 = seg[1::width]
            left, i2_seq = i2[:-1], i2[1:]
            cross_candidates = (left * i2_seq < 0.0).nonzero()[0]
            accept = -1
            for j in cross_candidates.tolist():
                i2_left, i2_right = left.item(j), i2_seq.item(j)
                alpha = i2_left / (i2_left - i2_right)
                if t0 + (pos + j + alpha) * h >= blanking_until:
                    accept = j
                    break
            # samples before the accepted crossing (the whole rest if none)
            j = n_rem if accept < 0 else accept
            if j > 0:
                x = prop.G[j - 1].dot(z).tolist()
            if accept < 0:
                break

            t_x = t0 + (pos + j + alpha) * h
            u_old = (u1, u2)
            c2 = 1 if i2_right > i2_left else -1
            blanking_until = t_x + config.blanking_fraction * half
            last_crossing = t_x
            y2 = secondary_modulator.step(read_d2(t_x))
            s2 = y2 * c2
            u2 = params.Vo * s2
            events.append(GateEvent(len(cross_rows), "secondary", y2, s2, t_x))
            x = (prop.cross(x, u_old, (u1, u2), alpha).tolist() if collect else
                 prop.split(prop.split(x, u_old, alpha * h), (u1, u2), (1.0 - alpha) * h))
            pos += j + 1
            # x is sample pos; a next segment writes it and the rows after it
            cross_rows.append(hc * steps + pos)
            if pos == steps:
                samples[base + steps] = x[:width]

        if not all(map(math.isfinite, x)):
            raise SimulationDiverged(
                f"non-finite state at t={t0 + half:.6e}s (half cycle {hc})")
        t_end = (hc + 1) * half
        if (not starved and (t_end - last_crossing) > 3.0 * Tsw
                and read_d2(t_end) < 1.0):
            diagnostics.append(
                f"secondary sync starved: no i2 crossing in 3 switching "
                f"periods before t={t_end:.6e}s; c2 frozen")
            starved = True

        # envelope peaks: max |i| over samples 0..steps of each half cycle,
        # the steps rows it starts plus the boundary row it shares
        if hc % CHUNK == CHUNK - 1 or hc == n_half - 1:
            lo = hc - hc % CHUNK
            k = hc + 1 - lo
            r0 = (lo % ring) * steps
            for env, col in ((env1, 0), (env2, 1)):
                w = np.abs(samples[r0: r0 + k * steps + 1, col])
                env[lo:hc + 1] = np.maximum(w[:-1].reshape(k, steps).max(axis=1),
                                            w[steps::steps])

    # drive rows: row 0 and rows hc * steps + 1 .. (hc + 1) * steps take
    # u1_log[hc]; u2 is 0.0 before the first crossing's row, then Vo * s of
    # the latest crossing at or before the row
    u = np.empty((n_half * steps + 1 if collect else 0, 2))
    if collect:
        u[0, 0] = u1_log[0]
        u[1:].reshape(n_half, steps, 2)[:, :, 0] = u1_log[:, None]
        bounds = [0, *cross_rows, len(u)]
        u2_values = [0.0] + [params.Vo * ev.s for ev in events if ev.side == "secondary"]
        for lo, hi, u2 in zip(bounds, bounds[1:], u2_values):
            u[lo:hi, 1] = u2
    t_axis = np.arange(len(u), dtype=float)
    t_axis *= h  # in place: no second sample-sized array
    return Trace(t=t_axis, states=samples if collect else np.empty((0, 4)), u=u,
                 events=events, envelope_t=env_t, envelope_i1=env1, envelope_i2=env2,
                 diagnostics=diagnostics)


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
