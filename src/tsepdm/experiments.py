"""Experiment presets: density sweeps and dynamic tracking.

Each preset mirrors one verification scenario: a density sweep holds one
side's pulse density at a grid value while the other side runs at full
density, measures the controlled side's envelope fluctuation after a
settling interval, and reports one row per density. Sweep points are
independent simulations and can run on a process pool; results are always
ordered by density regardless of completion order.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import analysis
from .checks import check_integer, check_interval
from .modulator import PulseDensityModulator
from .ntf import NtfDesignSpec, RationalTransferFunction, build_first_order, build_third_order
from .plant import PlantParams, SimConfig, half_cycle_ends, simulate

NTF_KINDS = ("first", "tse")
SIDES = ("primary", "secondary")
# The sinusoidal-tracking run of `run_dynamic_response`: duration (s), frequency
# (Hz), and the rail (V) `tsepdm dynamic` sets Vg and Vo to unless --config does.
DYNAMIC_DURATION = 8e-3
DYNAMIC_FREQ = 500.0
DYNAMIC_RAIL = 15.0


def dynamic_d2(t: float, mod_freq: float) -> float:
    """The d2 drive of `run_dynamic_response` at time ``t`` (s), a float:
    0.5 sin(2 pi f t) + 0.5 at f = ``mod_freq`` (Hz)."""
    return 0.5 * math.sin(2.0 * math.pi * mod_freq * t) + 0.5


def make_ntf(kind: str, rho: float = NtfDesignSpec.notch_ratio,
             r: float = NtfDesignSpec.pole_radius) -> RationalTransferFunction:
    """Resolve an NTF choice: ``first`` (conventional) or ``tse`` (notch)."""
    spec = NtfDesignSpec(notch_ratio=rho, pole_radius=r)  # checked for either kind
    if kind == "first":
        return build_first_order()
    if kind == "tse":
        return build_third_order(spec)
    raise ValueError(f"unknown NTF kind {kind!r}; choose from {NTF_KINDS}")


def standard_density_grid() -> tuple[float, ...]:
    """Density grid of the steady-state sweeps: 0.203:0.02:0.903 then
    0.903:0.01:0.993, endpoints inclusive, rounded to 3 decimals."""
    coarse = [round(0.203 + 0.02 * i, 3) for i in range(36)]
    fine = [round(0.903 + 0.01 * i, 3) for i in range(1, 10)]
    return tuple(coarse + fine)


def parse_density_grid(spec: str) -> tuple[float, ...]:
    """Parse ``standard`` or an inclusive ``start:step:stop`` grid spec."""
    if spec == "standard":
        return standard_density_grid()
    try:
        start_s, step_s, stop_s = spec.split(":")
        start, step, stop = float(start_s), float(step_s), float(stop_s)
    except ValueError as exc:
        raise ValueError(f"bad grid spec {spec!r}; use 'standard' or start:step:stop") from exc
    if not (step > 0.0 and stop >= start):      # also rejects NaN
        raise ValueError(f"bad grid spec {spec!r}")
    count = (stop - start) / step + 1e-9
    # [0, 1] holds 1001 densities at 3 decimals; more points must repeat or
    # leave the range, and an unbounded count would never finish building.
    if not count < 1001.0:
        raise ValueError(f"grid spec {spec!r} has more than 1001 points")
    n = int(math.floor(count)) + 1
    grid = tuple(round(start + i * step, 3) for i in range(n))
    if any(not (0.0 <= d <= 1.0) for d in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if len(set(grid)) < n:
        raise ValueError(f"grid spec {spec!r} repeats densities after rounding "
                         "to 3 decimals")
    return grid


@dataclass(frozen=True)
class ExperimentPreset:
    """Resolved parameters of one sweep experiment."""

    name: str
    side: str                      # which side's density is controlled
    densities: tuple[float, ...] = field(default_factory=standard_density_grid)
    ntf_kind: str = "tse"
    rho: float = NtfDesignSpec.notch_ratio
    r: float = NtfDesignSpec.pole_radius
    duration: float = 5e-3
    steps_per_half_cycle: int = SimConfig.steps_per_half_cycle
    settle: float = analysis.SETTLE_S
    window: float = analysis.WINDOW_S

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError("side must be primary or secondary")
        for i, d in enumerate(self.densities):
            check_interval(f"densities[{i}]", d, 0.0, 1.0)
        make_ntf(self.ntf_kind, self.rho, self.r)  # validates kind and rho/r
        self.sim_config  # validates steps and duration
        check_interval("settle", self.settle, 0.0, math.inf, "[)")
        check_interval("window", self.window, 0.0, math.inf, "()")
        if not self.settle < self.duration:
            raise ValueError("need settle < duration, got "
                             f"settle={self.settle!r}, duration={self.duration!r}")

    @property
    def sim_config(self) -> SimConfig:
        """The no-sample simulation of each sweep point."""
        return SimConfig(steps_per_half_cycle=self.steps_per_half_cycle, duration=self.duration,
                         collect_samples=False)


def run_sweep_point(params: PlantParams, preset: ExperimentPreset,
                    d: float) -> analysis.FluctuationReport:
    """Simulate one density point and measure the controlled side's envelope."""
    tf = make_ntf(preset.ntf_kind, preset.rho, preset.r)
    primary = preset.side == "primary"
    d1, d2 = (d, 1.0) if primary else (1.0, d)
    trace = simulate(params, preset.sim_config, PulseDensityModulator(tf),
                     PulseDensityModulator(tf), d1, d2)
    env, side_label = (trace.envelope_i1, "i1") if primary else (trace.envelope_i2, "i2")
    return analysis.fluctuation(trace.envelope_t, env, settle=preset.settle,
                                window=preset.window, d=d, side=side_label)


def run_density_sweep(params: PlantParams, preset: ExperimentPreset,
                      workers: int = 1) -> list[analysis.FluctuationReport]:
    """One `run_sweep_point` per density of the preset, ordered by density;
    on a pool of ``workers`` processes, at most one per density, when more
    than one (same reports). Raises, before simulating, unless ``workers``
    is an integer of at least 1 and a half cycle ends in the window."""
    workers = check_integer("workers", workers, 1)
    env_t = half_cycle_ends(params, preset.duration)
    if not analysis.window_mask(env_t, preset.settle, preset.window).any():
        raise ValueError(f"analysis window is empty: no half cycle of a {preset.duration!r} s "
                         f"run ends in ({preset.settle}, {preset.settle} + {preset.window}] s")
    args = (run_sweep_point, repeat(params), repeat(preset), preset.densities)
    workers = min(workers, len(preset.densities))
    if workers <= 1:
        reports = list(map(*args))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(*args))
    return sorted(reports, key=lambda rep: rep.d)


@dataclass(frozen=True)
class DynamicResponse:
    """Sinusoidal-tracking result of the secondary-controlled system.

    With fixed dc rails the mesh equations make the primary current track
    the secondary drive amplitude (|I1| ~ d2 * 4 Vo / (pi w M)) while |I2|
    is density-flat (~ U1 / (w M)), so ``corr_i1`` is the meaningful
    tracking figure; ``corr_i2`` is reported alongside for completeness.
    No field holds the commanded sinusoid d2(t) or the secondary ticks.
    """

    env_t: np.ndarray
    env_i1: np.ndarray
    env_i2: np.ndarray
    density_amplitude: float       # fitted y2 amplitude at the modulation frequency
    amplitude_error_pct: float     # vs the commanded 0.5 swing
    corr_i1: float                 # corr(|i1| envelope, d2) post settle
    corr_i2: float


def run_dynamic_response(params: PlantParams, ntf_kind: str,
                         rho: float = NtfDesignSpec.notch_ratio,
                         r: float = NtfDesignSpec.pole_radius,
                         duration: float = DYNAMIC_DURATION, mod_freq: float = DYNAMIC_FREQ,
                         steps_per_half_cycle: int = SimConfig.steps_per_half_cycle
                         ) -> DynamicResponse:
    """Drive d2 with a full-swing sinusoid and measure tracking.

    d1 stays at 1; d2(t) is `dynamic_d2`. The per-half-cycle y2
    sequence is fitted with a sinusoid at the modulation frequency over an
    integer number of periods after settling; the fitted amplitude is
    compared against the commanded 0.5. The i2 envelope is correlated with
    d2 over the same span. Raises ValueError, before simulating, unless
    ``mod_freq`` is finite and positive and a whole period fits after settle.
    """
    settle = analysis.SETTLE_S
    tf = make_ntf(ntf_kind, rho, r)
    cfg = SimConfig(steps_per_half_cycle=steps_per_half_cycle,
                    duration=duration, collect_samples=False)
    check_interval("mod_freq", mod_freq, 0.0, math.inf, "()")
    n_periods = int(math.floor((duration - settle) * mod_freq))
    if n_periods < 1:
        raise ValueError("duration too short for one modulation period after settle")
    trace = simulate(params, cfg, PulseDensityModulator(tf), PulseDensityModulator(tf),
                     1.0, functools.partial(dynamic_d2, mod_freq=mod_freq))

    t_hi = settle + n_periods / mod_freq
    fit = (trace.cross_t >= settle) & (trace.cross_t < t_hi)  # secondary ticks in the span
    tt, yy = trace.cross_t[fit], np.abs(trace.s2[fit])
    basis = np.column_stack([np.ones_like(tt),
                             np.sin(2.0 * math.pi * mod_freq * tt),
                             np.cos(2.0 * math.pi * mod_freq * tt)])
    coef, *_ = np.linalg.lstsq(basis, yy, rcond=None)
    amp = float(math.hypot(coef[1], coef[2]))
    amp_err = abs(amp - 0.5) / 0.5 * 100.0

    env_sel = (trace.envelope_t >= settle) & (trace.envelope_t < t_hi)
    d_ref = np.array([dynamic_d2(t, mod_freq) for t in trace.envelope_t[env_sel]])
    corr_i1 = float(np.corrcoef(trace.envelope_i1[env_sel], d_ref)[0, 1])
    corr_i2 = float(np.corrcoef(trace.envelope_i2[env_sel], d_ref)[0, 1])

    return DynamicResponse(env_t=trace.envelope_t, env_i1=trace.envelope_i1,
                           env_i2=trace.envelope_i2, density_amplitude=amp,
                           amplitude_error_pct=amp_err, corr_i1=corr_i1, corr_i2=corr_i2)
