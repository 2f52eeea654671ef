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

Both modes of ``SimConfig.collect_samples`` run one loop of passes, each
of which splits at an accepted i2 crossing, ends a half cycle, or both. A
pass starts at the current sample of half cycle hc with z = (x, u),
propagates the rest of hc, takes ``K[n].dot(z)`` (n the steps left) as
hc's end state, and from that state propagates all of hc + 1 into the rows
that follow. One sign scan covers both half cycles. It starts one step
before the step that holds the end of the blanking window, since a
crossing in an earlier step is blanked with a full step to spare. The pass
splits at the first crossing outside the blanking window. Unless that
crossing is in hc, the pass ends hc, the one place a half cycle ends; with
no crossing in either, the next pass starts at hc + 1 from the hand-off
and propagates hc + 1 again. After a crossing in the last step of hc the
next pass has no step of hc left: its product writes the state in hc's end
row (``K[0]`` copies x), and it ends hc. So the product from the hand-off
state writes the end row of each half cycle but the run's last, and the
envelope peaks are the same whatever CHUNK is. Each product writes its
samples in place into one array: all four states of every sample in
collecting runs, with the row-major stack of the maps ``K[j]`` from z to
the state j steps on, ``K[0] = [I | 0]``, sliced to the rows kept
(``np.dot(stack, z, out=...)``); only i1/i2 otherwise, a whole half cycle
from the current sample in one column-major product ``np.dot(z, ST,
out=...)``, into a window of CHUNK + 1 half cycles that moves on by CHUNK
once a chunk's envelope peaks are reduced. Rows after a crossing, and the
surplus rows of a column-major product, are written again by the next
product. The run state is two vectors of eight slots (`simulate` names
them): a pass reads one, and the hand-off and the split write the other.
At a crossing in step j, collecting runs write ``K[j].dot(z)``, the same
bits as the row the product wrote, into the other vector, and the run's
split kernel writes the state after both RK4 sub-steps over it with the
bits of a stacked `rk4_affine_maps` call, kept because the
``simulate --trace/--events`` CSV files are compared byte for byte between
versions. The others take the state after the crossing in one product of
``Q[j]`` with all eight slots (z and the new drive), the coefficients of a
degree-8 polynomial per state in the split fraction alpha (the two
sub-steps' degree-4 polynomials composed with the segment's first j
steps), and one product of them with alpha^0..alpha^8 into the other
vector. Either way that vector holds the next pass's start. The two modes
differ by rounding only: on the drives the tests draw, and in every sweep,
which holds one side at 1, they log the same gate events, with times and
envelopes equal to rounding; a weakly driven run can part from its twin
(README).

`simulate` runs in three stages. Schedule: the modulators need nothing from
the plant, so the primary's pulses, gated by the `modulator.gate_split`
carrier, and its drives (rail times gate) are one batch before the loop,
from d1 and the rail, one value per half cycle; the secondary ticks a block
of crossings ahead at a time: CHUNK for a constant d2, one for a callable
d2, read at each crossing, and is left at its state after the last crossing
the run used. Propagate: the passes only advance the state, check inline
that each half cycle they end ends in a finite state, reduce the envelope
peaks (max |i1|, |i2| over the samples of each half cycle) from that array
only at the end of each CHUNK half cycles, and log each accepted crossing's
row, time and secondary gate in flat columns. The kernels are bound once per
run: the maps' ``dot`` methods as lists, numpy's functions as locals, the
split kernel and the buffers of the no-sample split. Assemble: after the
loop the starvation diagnostic is read from the crossing times, and
collecting runs build ``Trace.u`` from the drives and crossing rows.
``Trace.events`` is built from the gate columns on first read, so sweeps,
which read only the envelopes, never build it.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .checks import check_integer, check_interval, check_real
from .modulator import PulseDensityModulator, gate_split


# Half cycles whose envelope peaks are reduced together; runs without
# samples keep the currents of this many half cycles.
CHUNK = 64

# (PlantParams, steps) pairs whose half-cycle maps `_propagator` keeps.
PROPAGATORS = 8


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
        for f in fields(self):
            check_interval(f.name, getattr(self, f.name), 0.0,
                           1.0 if f.name == "k" else math.inf, "()")

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
        check_integer("steps_per_half_cycle", self.steps_per_half_cycle, 32)
        check_interval("blanking_fraction", self.blanking_fraction, 0.0, 0.5, "()")
        check_interval("duration", self.duration, 0.0, math.inf, "()")
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
    current peaks are always in ``envelope_i1``/``envelope_i2``, the signed
    primary gate in ``s1``, and the half cycle, time and signed secondary
    gate of each accepted i2 crossing in ``cross_half``, ``cross_t``, ``s2``.
    """

    t: np.ndarray
    states: np.ndarray
    u: np.ndarray
    s1: np.ndarray
    cross_half: np.ndarray
    cross_t: np.ndarray
    s2: np.ndarray
    envelope_t: np.ndarray
    envelope_i1: np.ndarray
    envelope_i2: np.ndarray
    diagnostics: list[str]

    @functools.cached_property
    def events(self) -> list[GateEvent]:
        """Every gate event in time order: each half cycle's primary tick at
        its start, then the crossings accepted in it. y = |s|, since both
        carriers are +/-1."""
        t1 = [0.0, *self.envelope_t[:-1].tolist()]
        primary = [(hc, GateEvent(hc, "primary", abs(s), s, t))
                   for hc, (s, t) in enumerate(zip(self.s1.tolist(), t1))]
        secondary = [(hc, GateEvent(n, "secondary", abs(s), s, t))
                     for n, (hc, s, t) in enumerate(zip(self.cross_half.tolist(),
                                                        self.s2.tolist(), self.cross_t.tolist()))]
        return [ev for _, ev in sorted(primary + secondary, key=lambda pair: pair[0])]


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


def _rk4_kernel(A, B, shape: tuple[int, ...]):
    """``(series, M, N)``: ``series(h)`` writes `rk4_affine_maps` for widths
    ``h`` (h A of ``shape``) into M and N, its buffers, and returns them.
    M's and S's series run as one (2, *shape) stack, matmul by matmul."""
    pair = (2, *shape)
    H, P, R, MS = (np.empty(pair) for _ in range(4))
    (M, S), R0 = MS, R[0]
    SB, N = np.empty((2, *shape[:-1], B.shape[1]))
    # Both series start at their first terms, hA (over 1: the same bits) and
    # hA / 2: I @ hA multiplies by 1 and adds zeros, so it gives the same M
    # and S. Each power of hA has its divisors; M's last term is over 4.
    eye = np.broadcast_to(np.eye(A.shape[0]), pair).copy()
    d01, d23, d34, d44 = np.multiply.outer(((1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 4.0)),
                                           np.ones(shape))
    multiply, divide, add, matmul = np.multiply, np.divide, np.add, np.matmul

    def series(h):
        multiply(h, A, out=H)
        divide(H, d01, out=P)
        add(eye, P, out=MS)
        for d in (d23, d34):
            matmul(P, H, out=R)
            divide(R, d, out=P)
            add(MS, P, out=MS)
        matmul(P, H, out=R)
        divide(R, d44, out=R)
        add(M, R0, out=M)
        matmul(S, B, out=SB)
        multiply(h, SB, out=N)
        return M, N
    return series, M, N


def rk4_affine_maps(A: np.ndarray, B: np.ndarray, h
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Collapse one RK4 step of dx/dt = A x + B u (u constant) to x -> M x + N u.

    M is the degree-4 Taylor truncation of expm(h A); N the matching input
    integral. Equals the four-stage RK4 update up to floating-point
    rounding (same polynomial, different evaluation order). An (m, 1, 1)
    stack ``h`` gives stacks of M and N, bit-identical to m scalar calls.
    """
    return _rk4_kernel(A, B, np.broadcast_shapes(np.shape(h), A.shape))[0](h)


class _AffinePropagator:
    """Per-step affine maps for one half cycle of constant-drive segments.

    ``K[j]`` maps z = (x, u) at a segment start to the state j steps on
    (``K[0] = [I | 0]``); ``stack`` is a view of the same maps as
    one contiguous (4 (steps + 1), 6) matrix. ``ST`` holds the i1/i2 rows of
    the same maps column-major, as a contiguous (6, 2 (steps + 1)) matrix:
    ``np.dot(z, ST)`` gives i1, i2 of every sample of a half cycle in one
    BLAS product that runs along the columns. Row 9 r + n of ``Q[j]`` maps
    (z, u_new) to the alpha^n coefficient (n = 0..8) of state r after a
    segment's first j steps and step j split at fraction alpha: RK4 over
    alpha h under u, then over (1 - alpha) h under u_new. Every array is
    read-only, so that `_propagator` can share one instance.
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
        K = self.K = np.concatenate((np.eye(4, 6)[None], np.concatenate((CM, CN), axis=2)))
        self.stack = K.reshape(-1, 6)  # a view: one copy of the maps
        self.ST = np.ascontiguousarray(K[:, :2].reshape(-1, 6).T)
        # An RK4 sub-step of width tau maps (x, u) to sum_k E[k] (tau / h)^k
        # (x, u), E[k] the top rows of (h Abar)^k / k! for Abar = [[A, B],
        # [0, 0]]. The first sub-step is sum_k E[k] alpha^k, the second
        # sum_k E[k] (1 - alpha)^k = sum_i F[i] alpha^i, and C is the alpha^n
        # coefficient of their composition on (K[j] z, u).
        Abar = np.zeros((6, 6))
        Abar[:4, :4] = A
        Abar[:4, 4:] = B
        term = np.eye(6)
        E = [term[:4]]
        for kk in range(1, 5):
            term = term @ (h * Abar) / kk
            E.append(term[:4])
        F = [sum(math.comb(k, i) * (-1) ** i * E[k] for k in range(i, 5)) for i in range(5)]
        Q = np.zeros((steps + 1, 4, 9, 8))
        for n in range(9):
            C = sum(F[i][:, :4] @ E[n - i] for i in range(max(0, n - 4), min(n, 4) + 1))
            Q[:, :, n, :6] = C[:, :4] @ K
            Q[:, :, n, 4:6] += C[:, 4:]
            if n <= 4:
                Q[:, :, n, 6:] = F[n][:, 4:]
        self.Q = Q.reshape(steps + 1, 36, 8)
        for a in (A, B, self.Q, self.stack, self.K, self.ST):
            a.flags.writeable = False

    def split_kernel(self) -> Callable:
        """A kernel ``split(x, u_old, u_new, alpha, out)``, with buffers of
        its own, that writes into ``out`` the state after the step from ``x``
        split at fraction alpha: RK4 over alpha h under ``u_old``, then over
        (1 - alpha) h under ``u_new``. It gives the bits of ``Mb @ (Ma @ x +
        Na @ u_old) + Nb @ u_new`` on the maps of a stacked `rk4_affine_maps`
        call. ``out`` may be ``x``, which is read before out is written."""
        h, w = self.h, np.empty(2)
        widths = w.reshape(2, 1, 1)
        series, (Ma, Mb), (Na, Nb) = _rk4_kernel(self.A, self.B, (2, *self.A.shape))
        Ma_dot, Mb_dot, Na_dot, Nb_dot, add = Ma.dot, Mb.dot, Na.dot, Nb.dot, np.add
        a, b = np.empty(4), np.empty(4)

        def split(x, u_old, u_new, alpha, out):
            w[0] = alpha * h
            w[1] = (1.0 - alpha) * h
            series(widths)
            Ma_dot(x, out=a)
            Na_dot(u_old, out=b)
            add(a, b, out=a)
            Mb_dot(a, out=b)
            Nb_dot(u_new, out=out)
            add(b, out, out=out)
        return split


@functools.lru_cache(maxsize=PROPAGATORS)
def _propagator(params: PlantParams, steps: int) -> _AffinePropagator:
    """The read-only maps of a run with these constants and steps per half
    cycle, built once per process for the last PROPAGATORS pairs."""
    A, B = system_matrices(params)
    return _AffinePropagator(A, B, 0.5 / params.fs / steps, steps)


def half_cycle_ends(params: PlantParams, duration: float) -> np.ndarray:
    """End time of each half cycle a run of ``duration`` simulates, the
    ``Trace.envelope_t`` axis: ``round(duration / half)`` half cycles."""
    half = 0.5 / params.fs
    return np.arange(1, int(round(duration / half)) + 1) * half


def _per_half_cycle(name: str, value, n_half: int, half: float, lo: float, hi: float,
                    ends: str = "[]") -> list[float]:
    """``value``, one number or ``n_half``, as one float per half cycle, entry
    hc checked by `check_interval` as ``name(t)``, t = hc half its start."""
    if np.ndim(value) == 0:
        return [check_interval(name, value, lo, hi, ends, 0.0)] * n_half
    if len(value) != n_half:
        raise ValueError(f"{name} must hold {n_half} values, got {len(value)}")
    return [check_interval(name, v, lo, hi, ends, hc * half) for hc, v in enumerate(value)]


def simulate(params: PlantParams, config: SimConfig,
             primary_modulator: PulseDensityModulator,
             secondary_modulator: PulseDensityModulator,
             d1, d2, vg=None) -> Trace:
    """Co-simulate the tank with PDM bridges on both sides.

    ``d1``/``d2`` are pulse densities in [0, 1]. ``d1``, a number or one per
    half cycle (entry hc for the one that starts at hc half, ``len(
    half_cycle_ends(params, config.duration))`` in all), and ``vg``, the
    primary rail (> 0; ``params.Vg`` if None, else one per half cycle), are
    read at each primary tick. ``d2`` is a number or a callable of time,
    read at each crossing. The secondary rail is ``params.Vo``.
    """
    half = 0.5 / params.fs
    steps = config.steps_per_half_cycle
    h = half / steps
    env_t = half_cycle_ends(params, config.duration)
    n_half = len(env_t)
    if n_half < 1:
        raise ValueError("duration shorter than one half cycle")
    prop = _propagator(params, steps)
    K, Q, stack, ST = prop.K, prop.Q, prop.stack, prop.ST

    collect = config.collect_samples
    # Sample rows: all states of the whole run, or i1/i2 of a window of
    # CHUNK + 1 half cycles. Half cycle hc holds rows base..base + steps,
    # base = (hc % ring) steps; consecutive half cycles share their boundary
    # row. A pass writes up to the end of the half cycle after its own, so
    # the window holds one more than a chunk; once a chunk is reduced, the
    # rows of the half cycle after it move to the front.
    width = 4 if collect else 2
    ring = n_half if collect else CHUNK
    samples = np.empty(((n_half if collect else CHUNK + 1) * steps + 1, width))
    flat = samples.reshape(-1)

    # Schedule. The modulators need nothing from the plant: the primary's
    # drives are known before the loop, the secondary ticks ``ahead``
    # crossings at a time. Each density is checked where it is read, so the
    # modulators take them unchecked.
    s1 = gate_split(primary_modulator._advance(_per_half_cycle("d1", d1, n_half, half, 0.0, 1.0)))
    if vg is not None and np.ndim(vg) == 0:
        raise TypeError(f"vg must be one rail per half cycle (a constant rail is Vg), got {vg!r}")
    rail1 = (params.Vg if vg is None
             else _per_half_cycle("vg", vg, n_half, half, 0.0, math.inf, "()"))
    u1_log = np.multiply(rail1, s1)  # each half cycle's primary drive
    u1s = u1_log.tolist()
    ahead = 1 if callable(d2) else CHUNK

    # Propagate. Each accepted crossing is logged: its first row under the
    # new drive, its time and its signed secondary gate.
    cross_rows, cross_t, cross_s = array("q"), array("d"), array("b")
    env1, env2 = np.empty(n_half), np.empty(n_half)
    blanking = config.blanking_fraction * half
    blanking_until = 0.0  # every crossing time is >= 0: none before the first is blanked
    u2 = 0.0  # rectifier idles shorted until the first crossing locks c2
    last_hc = n_half - 1
    Kdot, Qdot = [k.dot for k in K], [q.dot for q in Q]
    dot, isfinite = np.dot, math.isfinite
    i2_col = samples[:, 1]
    lefts, rights = i2_col[:-1], i2_col[1:]  # the two ends of each step
    # The run state: two vectors of slots (x0, x1, x2, x3, u1, u2, u1, u2_new),
    # the column order of Q[j], each with its views z = [:6], x = [:4] and
    # the split's drives [4:6], [6:8]. A pass reads ``cur``; the hand-off and
    # the split write ``oth``, and the two swap roles as the run moves on, so
    # no pass builds an array.
    start = np.empty(8)
    start[:4] = config.initial_state
    cur, oth = [(v, v[:6], v[:4], v[4:6], v[6:]) for v in (start, np.empty(8))]
    split = prop.split_kernel() if collect else None
    coef, powers, exponents, power = np.empty(36), np.empty(9), np.arange(9.0), np.power
    coef_rows = coef.reshape(4, 9)  # row r: state r's alpha^0..alpha^8 coefficients

    # The passes of the module docstring: each starts at sample pos of half
    # cycle hc in the state ``cur`` holds.
    hc, pos = 0, 0
    while hc < n_half:
        base = (hc % ring) * steps
        row = base + pos
        n_rem = steps - pos
        z8, z6, z4, z_old, z_new = cur
        o8, o6, o4, _, _ = oth
        z8[4] = z8[6] = u1s[hc]
        z8[5] = u2
        if collect:
            dot(stack[:4 * (n_rem + 1)], z6, out=flat[4 * row: 4 * (base + steps + 1)])
        else:
            dot(z6, ST, out=flat[2 * row: 2 * (row + steps + 1)])
        Kdot[n_rem](z6, out=o4)  # hc's end state without a crossing
        end = base + steps
        if hc < last_hc:
            o8[4] = o8[6] = u1s[hc + 1]
            o8[5] = u2
            out = flat[width * end: width * (end + steps + 1)]
            if collect:
                dot(stack, o6, out=out)
            else:
                dot(o6, ST, out=out)
            end += steps
        # Scan from one step before the step that holds blanking_until: a
        # crossing in an earlier step is at least a step before it.
        kb = int((blanking_until - hc * half - pos * h) / h) - 1
        if kb < 0:
            kb = 0
        left, right = lefts[row + kb:end], rights[row + kb:end]
        accept = -1
        for k in (left * right < 0.0).nonzero()[0].tolist():
            i2_left, i2_right = left.item(k), right.item(k)
            k += kb
            alpha = i2_left / (i2_left - i2_right)
            t_x = (hc * half + (pos + k + alpha) * h if k < n_rem
                   else (hc + 1) * half + (k - n_rem + alpha) * h)
            if t_x >= blanking_until:
                accept = k
                break

        if not 0 <= accept < n_rem:  # hc ends without a crossing
            x0, x1, x2, x3 = o4.tolist()
            if not (isfinite(x0) and isfinite(x1) and isfinite(x2) and isfinite(x3)):
                raise SimulationDiverged(
                    f"non-finite state at t={hc * half + half:.6e}s (half cycle {hc})")
            if hc % CHUNK == CHUNK - 1 or hc == last_hc:
                # Envelope peaks of the chunk hc ends: max |i| over samples
                # 0..steps of each half cycle, the steps rows it starts plus
                # the boundary row it shares. One column at a time: a (m,
                # steps, 2) max over axis 1 is ~15x slower.
                lo = hc - hc % CHUNK
                m = hc + 1 - lo
                r0 = (lo % ring) * steps
                for env, col in ((env1, 0), (env2, 1)):
                    w = np.abs(samples[r0: r0 + m * steps + 1, col])
                    env[lo:hc + 1] = np.maximum(w[:-1].reshape(m, steps).max(axis=1),
                                                w[steps::steps])
                if not collect:
                    samples[:steps + 1] = samples[CHUNK * steps:]
            hc, pos = hc + 1, 0
            cur, oth = oth, cur
            if accept < 0:
                continue
            # the segment is hc + 1's, from the hand-off
            j = accept - n_rem
            z8, z6, z4, z_old, z_new = cur
            o8, o6, o4, _, _ = oth
        else:
            j = accept

        # the crossing in step j of the segment from sample pos of hc; slots
        # 4-6 of z8 hold (u1, u2_old, u1)
        c2 = 1 if i2_right > i2_left else -1
        blanking_until = t_x + blanking
        n_cross = len(cross_rows)
        if n_cross % ahead == 0:
            d2_x = check_interval("d2", d2(t_x) if callable(d2) else d2, 0.0, 1.0, "[]", t_x)
            block_state, ds2 = secondary_modulator.state, [d2_x] * ahead
            y2_ahead = secondary_modulator._advance(ds2)
        s2 = y2_ahead[n_cross % ahead] * c2
        z8[7] = u2 = params.Vo * s2
        cross_t.append(t_x)
        cross_s.append(s2)
        if collect:
            if j > 0:  # the state at the start of step j
                Kdot[j](z6, out=o4)
            split(o4 if j else z4, z_old, z_new, alpha, o4)
        else:
            Qdot[j](z8, out=coef)
            power(alpha, exponents, out=powers)
            dot(coef_rows, powers, out=o4)
        cur, oth = oth, cur
        pos += j + 1
        # cur holds sample pos, hc's end if pos == steps: the next pass
        # writes it and the rows after it, and ends hc there
        cross_rows.append(hc * steps + pos)

    # Assemble. Leave the secondary after the last crossing: tick it again
    # from the start of the last block over the crossings the run used.
    if len(cross_t) % ahead:
        secondary_modulator.state = block_state
        secondary_modulator._advance(ds2[:len(cross_t) % ahead])
    # Starved: the first half-cycle end more than 3 Tsw (6 half, to the bit)
    # after the latest crossing at or before it, or after t = 0, where d2 < 1.
    cross_half = (np.array(cross_rows) - 1) // steps
    last = np.array([0.0, *cross_t])[np.searchsorted(cross_half, np.arange(n_half), "right")]
    starved = next((t for t in env_t[env_t - last > 6.0 * half].tolist() if check_interval(
        "d2", d2(t) if callable(d2) else d2, 0.0, 1.0, "[]", t) < 1.0), None)
    diagnostics = [] if starved is None else [
        f"secondary sync starved: no i2 crossing in 3 switching periods before "
        f"t={starved:.6e}s; c2 frozen"]

    # drive rows: row 0 and rows hc * steps + 1 .. (hc + 1) * steps take
    # u1_log[hc]; u2 is 0.0 before the first crossing's row, then Vo * s2 of
    # the latest crossing at or before the row
    u = np.empty((n_half * steps + 1 if collect else 0, 2))
    if collect:
        u[0, 0] = u1_log[0]
        u[1:].reshape(n_half, steps, 2)[:, :, 0] = u1_log[:, None]
        u[:, 1] = np.repeat([0.0, *(params.Vo * s2 for s2 in cross_s)],
                            np.diff([0, *cross_rows, len(u)]))
    t_axis = np.arange(len(u), dtype=float)
    t_axis *= h  # in place: no second sample-sized array
    return Trace(t=t_axis, states=samples if collect else np.empty((0, 4)), u=u,
                 s1=s1, cross_half=cross_half, cross_t=np.array(cross_t),
                 s2=np.array(cross_s), envelope_t=env_t, envelope_i1=env1,
                 envelope_i2=env2, diagnostics=diagnostics)

