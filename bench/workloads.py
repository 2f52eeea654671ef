"""Seeded workloads of the tsepdm benchmark.

A workload is an endless, seed-determined stream of rounds; a round is a
list of operations and an operation is a tuple of parts. A part is one call
into the package (one sweep point, one CLI command, one envelope model...)
and the unit the stored reference is keyed by: every part a seed can
generate is drawn from a finite set, so ``make_reference.py`` can enumerate
the whole set and store each part's expected output.

The program receives only the generated inputs; nothing here depends on
anything but the workload name and the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tsepdm import cli, experiments, gssa, modulator, plant

WORKLOADS = ("sweep", "trace", "stability", "envelope")

# The six sweep families behind acceptance criteria 8/9: (side, ntf, rho).
SWEEP_FAMILIES = (
    ("primary", "first", 0.075),
    ("primary", "tse", 0.075),
    ("secondary", "first", 0.075),
    ("secondary", "tse", 0.075),
    ("secondary", "tse", 0.065),
    ("secondary", "tse", 0.085),
)
DENSITY_GRID = experiments.standard_density_grid()

TRACE_D1 = (0.5, 0.7, 0.9, 0.963, 1.0)
TRACE_D2 = (0.6, 0.8, 1.0)
TRACE_DURATIONS = (2.4e-4, 2.5e-4, 2.6e-4)
SAMPLES_DURATION = 3e-3     # the default duration of `tsepdm simulate`

STABILITY_RHOS = (0.065, 0.075, 0.085)
STABILITY_TICKS = 10000
MODULATE_TICKS = 16384      # the CLI default of `tsepdm modulate`

ENVELOPE_K = tuple(round(0.13 + 0.005 * i, 3) for i in range(9))
ENVELOPE_D = (0.603, 0.703, 0.803, 0.903, 0.933, 0.963, 0.983, 0.993)
ENVELOPE_DURATION = 2e-4
ENVELOPE_DT = 5e-8          # as in the dual-route envelope test
BODE_CHANNELS = ("u1->i1", "u1->i2", "u2->i1", "u2->i2")

ENVELOPE_OPS_PER_ROUND = 4

PARAMS = plant.DEFAULT_PARAMS
HALF_PERIOD_MS = 0.5 / PARAMS.fs * 1e3


@dataclass(frozen=True)
class Part:
    """One call into the package; ``key`` indexes the stored reference."""

    kind: str
    args: tuple

    @property
    def key(self) -> str:
        return "/".join([self.kind, *(str(a) for a in self.args)])


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of operations) for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "sweep":
            fams = rng.sample(SWEEP_FAMILIES, len(SWEEP_FAMILIES))
            yield [(Part("sweep", (*fam, rng.choice(DENSITY_GRID))),) for fam in fams]
        elif workload == "trace":
            ops = []
            for dur in rng.sample(TRACE_DURATIONS, len(TRACE_DURATIONS)):
                d1, d2 = rng.choice(TRACE_D1), rng.choice(TRACE_D2)
                kind = rng.choice(experiments.NTF_KINDS)
                ops.append((Part("simulate", (d1, d2, kind, dur)),
                            Part("samples", (d1, d2, kind))))
            yield ops
        elif workload == "stability":
            rhos = rng.sample(STABILITY_RHOS, len(STABILITY_RHOS))
            yield [tuple(p for kind in experiments.NTF_KINDS
                         for p in (Part("stability", (kind, rho)),
                                   Part("modulate", (kind, rho, rng.choice(DENSITY_GRID)))))
                   for rho in rhos]
        else:
            ops = []
            for _ in range(ENVELOPE_OPS_PER_ROUND):
                k = rng.choice(ENVELOPE_K)
                ops.append((Part("model", (k,)),
                            Part("envelope", (k, rng.choice(ENVELOPE_D)))))
            yield ops


def all_parts(workload: str) -> list[Part]:
    """Every part any seed can generate for a workload."""
    if workload == "sweep":
        return [Part("sweep", (*fam, d)) for fam in SWEEP_FAMILIES for d in DENSITY_GRID]
    if workload == "trace":
        return ([Part("simulate", (d1, d2, kind, dur)) for d1 in TRACE_D1
                 for d2 in TRACE_D2 for kind in experiments.NTF_KINDS
                 for dur in TRACE_DURATIONS]
                + [Part("samples", (d1, d2, kind)) for d1 in TRACE_D1
                   for d2 in TRACE_D2 for kind in experiments.NTF_KINDS])
    if workload == "stability":
        return ([Part("stability", (kind, rho)) for kind in experiments.NTF_KINDS
                 for rho in STABILITY_RHOS]
                + [Part("modulate", (kind, rho, d)) for kind in experiments.NTF_KINDS
                   for rho in STABILITY_RHOS for d in DENSITY_GRID])
    if workload == "envelope":
        return ([Part("model", (k,)) for k in ENVELOPE_K]
                + [Part("envelope", (k, d)) for k in ENVELOPE_K for d in ENVELOPE_D])
    raise ValueError(f"unknown workload {workload!r}")


class Context:
    """Inputs built before the first timed operation: presets, NTF designs,
    per-k plant constants, and a scratch directory for CLI output files."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.drive_evals = 0
        self.presets = {}
        self.k_params = {}
        self.k_ntfs = {}
        self.ntfs = {}
        if workload == "sweep":
            for side, kind, rho in SWEEP_FAMILIES:
                self.presets[(side, kind, rho)] = experiments.ExperimentPreset(
                    name=f"bench-{side}-{kind}-{rho}", side=side, ntf_kind=kind, rho=rho)
        elif workload == "trace":
            for kind in experiments.NTF_KINDS:
                self.ntfs[kind] = experiments.make_ntf(kind)
        elif workload == "envelope":
            for k in ENVELOPE_K:
                self.k_params[k] = dataclasses.replace(PARAMS, k=k)
                self.k_ntfs[k] = experiments.make_ntf("tse", rho=0.5 * k)
        self._warm_up()

    def _warm_up(self):
        """One reduced-size call down each path, so lazy imports and first-call
        costs land in set-up rather than in the first timed operation."""
        w = self.workdir
        if self.workload == "sweep":
            preset = dataclasses.replace(self.presets[SWEEP_FAMILIES[1]],
                                         duration=4e-4, settle=1e-4, window=3e-4)
            experiments.run_sweep_point(PARAMS, preset, 0.9)
        elif self.workload == "trace":
            _cli(["simulate", "--duration", "5e-5", "--trace", str(w / "warm.csv"),
                  "--events", str(w / "warm_ev.csv"), "--json-summary"])
            _simulate_samples(self.ntfs["tse"], 1.0, 1.0, 5e-5)
        elif self.workload == "stability":
            _cli(["stability", "--ticks", "2048", "--out", str(w / "warm.csv"),
                  "--json-summary"])
            _cli(["modulate", "--d", "0.5", "--ticks", "2048", "--out", str(w / "warm.csv"),
                  "--spectrum", str(w / "warm_sp.csv"), "--json-summary"])
        else:
            k = ENVELOPE_K[0]
            model = gssa.build_envelope_model(self.k_params[k])
            gssa.find_bode_peak(model, BODE_CHANNELS[0], n_points=16)
            gssa.simulate_envelope(self.k_params[k], 1.0, 1.0, 1e-6, dt=ENVELOPE_DT)
        for path in w.iterdir():
            path.unlink()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _paths(ctx: Context, part: Part) -> dict[str, Path]:
    """Output file per CLI flag; unique per part, since an operation's parts
    all run before any output is checked."""
    flags = {"simulate": ("trace", "events"), "stability": ("out",),
             "modulate": ("out", "spectrum")}.get(part.kind, ())
    stem = part.key.replace("/", "_")
    return {flag: ctx.workdir / f"{stem}.{flag}.csv" for flag in flags}


def _simulate_samples(tf, d1: float, d2: float, duration: float) -> plant.Trace:
    """plant's sample-collecting path on its own, with no CSV written."""
    return plant.simulate(PARAMS, plant.SimConfig(duration=duration),
                          modulator.PulseDensityModulator(tf),
                          modulator.PulseDensityModulator(tf), d1, d2)


def execute(ctx: Context, part: Part):
    """Run one part; this is the timed call. Returns its raw result."""
    if part.kind == "sweep":
        side, kind, rho, d = part.args
        return experiments.run_sweep_point(PARAMS, ctx.presets[(side, kind, rho)], d)
    if part.kind == "samples":
        d1, d2, kind = part.args
        return _simulate_samples(ctx.ntfs[kind], d1, d2, SAMPLES_DURATION)
    paths = {flag: str(p) for flag, p in _paths(ctx, part).items()}
    if part.kind == "simulate":
        d1, d2, kind, dur = part.args
        return _cli(["simulate", "--d1", str(d1), "--d2", str(d2), "--ntf", kind,
                     "--duration", str(dur), "--trace", paths["trace"],
                     "--events", paths["events"], "--json-summary"])
    if part.kind == "stability":
        kind, rho = part.args
        return _cli(["stability", "--probe", "all", "--ntf", kind, "--rho", str(rho),
                     "--ticks", str(STABILITY_TICKS), "--out", paths["out"],
                     "--json-summary"])
    if part.kind == "modulate":
        kind, rho, d = part.args
        return _cli(["modulate", "--d", str(d), "--ntf", kind, "--rho", str(rho),
                     "--ticks", str(MODULATE_TICKS), "--out", paths["out"],
                     "--spectrum", paths["spectrum"], "--json-summary"])
    if part.kind == "model":
        (k,) = part.args
        model = gssa.build_envelope_model(ctx.k_params[k])
        peaks = [gssa.find_bode_peak(model, ch) for ch in BODE_CHANNELS]
        return model, peaks
    if part.kind == "envelope":
        k, d = part.args
        params = ctx.k_params[k]
        half = 0.5 / params.fs
        y, _ = modulator.run(ctx.k_ntfs[k], d,
                             n_ticks=int(math.ceil(ENVELOPE_DURATION / half)) + 1)
        amp1 = 4.0 * params.Vg / math.pi

        def a1(t):
            ctx.drive_evals += 1
            return amp1 * y[min(int(t / half), len(y) - 1)]

        t, z = gssa.simulate_envelope(params, a1, 4.0 * params.Vo / math.pi,
                                      ENVELOPE_DURATION, dt=ENVELOPE_DT)
        return y, t, z
    raise ValueError(f"unknown part kind {part.kind!r}")


def sim_ms(ctx: Context, part: Part) -> float:
    """Simulated physical time of a part, in ms (modulator runs count
    ticks x lanes x half a switching period; Bode evaluations count 0)."""
    if part.kind == "sweep":
        return ctx.presets[part.args[:3]].duration * 1e3
    if part.kind == "simulate":
        return part.args[3] * 1e3
    if part.kind == "samples":
        return SAMPLES_DURATION * 1e3
    if part.kind == "stability":
        lanes = len(DENSITY_GRID) + 2      # constant grid, sinusoid, ramp
        return STABILITY_TICKS * lanes * HALF_PERIOD_MS
    if part.kind == "modulate":
        return MODULATE_TICKS * HALF_PERIOD_MS
    if part.kind == "envelope":
        return ENVELOPE_DURATION * 1e3
    return 0.0


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _rms(columns: np.ndarray) -> list[float]:
    return np.sqrt(np.mean(np.square(columns), axis=0)).tolist()


def observe(ctx: Context, part: Part, raw) -> dict:
    """The part's checked outputs (untimed); removes its output files."""
    if part.kind == "sweep":
        return {"report": list(dataclasses.astuple(raw))}
    if part.kind in ("simulate", "stability", "modulate"):
        code, stdout = raw
        files = {}
        for flag, path in _paths(ctx, part).items():
            for name, p in ((flag, path), (flag + ".manifest", Path(f"{path}.manifest"))):
                if p.exists():
                    files[name] = _sha256(p)
                    p.unlink()
        return {"exit": code, "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
                "files": files}
    if part.kind == "samples":
        return {"samples": int(raw.states.shape[0]), "events": len(raw.events),
                "pulses": sum(ev.y for ev in raw.events), "state_rms": _rms(raw.states),
                "u_rms": _rms(raw.u), "envelope_i1": float(raw.envelope_i1.mean()),
                "envelope_i2": float(raw.envelope_i2.mean()), "diagnostics": raw.diagnostics}
    if part.kind == "model":
        model, peaks = raw
        return {"i1_amp": model.i1_amp, "i2_amp": model.i2_amp,
                "peaks": [list(p) for p in peaks]}
    y, t, z = raw
    amps = 2.0 * np.abs(z)
    return {"pulses": int(y.sum()), "steps": len(t) - 1,
            "i1_mean": float(amps[:, 0].mean()), "i2_mean": float(amps[:, 1].mean())}


def mismatches(expected, observed, rel: float = 1e-9, where: str = "") -> list[str]:
    """Differences between a reference entry and an observation: floats to
    ``rel`` relative, everything else exactly."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        if expected.keys() != observed.keys():
            return [f"{where}: keys {sorted(observed)} != {sorted(expected)}"]
        return [m for key in expected
                for m in mismatches(expected[key], observed[key], rel, f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(observed, (list, tuple)):
        if len(expected) != len(observed):
            return [f"{where}: length {len(observed)} != {len(expected)}"]
        return [m for i, (e, o) in enumerate(zip(expected, observed))
                for m in mismatches(e, o, rel, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(observed, (float, int)) \
            and not isinstance(observed, bool):
        if math.isclose(expected, observed, rel_tol=rel, abs_tol=0.0):
            return []
        return [f"{where}: {observed!r} != {expected!r}"]
    if type(expected) is type(observed) and expected == observed:
        return []
    return [f"{where}: {observed!r} != {expected!r}"]
