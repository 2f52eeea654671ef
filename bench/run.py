"""Benchmark of the tsepdm verification chain.

    python3 bench/run.py --workload {sweep,trace,stability,envelope} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` makes the separate traced run that gives the
per-layer metrics, a cProfile breakdown of one operation and, on ``sweep``,
the process-pool speed-up. Every operation's output is checked against
``bench/reference.json``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it print every metric by name with its unit. Spans and profiles are written
under ``.bench_out/`` in the checkout. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROBES = 11
# Fixed operation count of a traced run, in rounds, so that its counts
# repeat exactly for a seed (about 10 s of work per pass on a 2 GHz Xeon).
TRACED_ROUNDS = {"sweep": 2, "trace": 3, "stability": 3, "envelope": 2}
PROFILE_TOP = 15

# Host-speed normalisation. The host this benchmark was written on runs the
# same code at speeds up to 2x apart from one stretch of seconds to the next
# (CPU time follows wall time, so it is CPU speed, not scheduling). Each
# timed interval is therefore scaled by CAL_REF_S / (median time of a fixed
# calibration kernel measured right before and after it): times are given
# in seconds of a host on which one kernel run takes CAL_REF_S.
CAL_REF_S = 1.25e-3
CAL_SAMPLES = 8


def _add_src_path():
    if not (SRC / "tsepdm" / "__init__.py").is_file():
        sys.exit(f"error: no tsepdm package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def pin_to_current_cpu() -> set[int]:
    """Keep this process, and the set-up processes it starts, on the CPU it
    is running on, so that calibration and measured work share one CPU.
    Returns the previous CPU set."""
    allowed = os.sched_getaffinity(0)
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu} if cpu in allowed else {min(allowed)})
    return allowed


def _calibration_kernel():
    import numpy as np
    x = 0.0
    for i in range(3000):
        x += i * 0.5
    m = np.eye(4) * 0.5
    v = np.ones(4)
    for _ in range(300):
        v = m @ v + v
    return x, v


def calibrate() -> list[float]:
    samples = []
    for _ in range(CAL_SAMPLES):
        t0 = perf_counter()
        _calibration_kernel()
        samples.append(perf_counter() - t0)
    return samples


def timed(fn, *args):
    """(result, raw seconds, host-speed scale) of one call; the normalised
    time is raw * scale."""
    before = calibrate()
    t0 = perf_counter()
    result = fn(*args)
    raw = perf_counter() - t0
    return result, raw, CAL_REF_S / statistics.median(before + calibrate())


def setup(workload: str, workdir: Path):
    """Import the package and build the workload's inputs (set-up)."""
    import workloads
    return workloads.Context(workload, workdir)


def probe_setup(workload: str) -> float:
    """Set-up time of a fresh process, as measured inside it."""
    t0 = perf_counter()
    _add_src_path()
    setup(workload, OUT_DIR / f"probe-{os.getpid()}")
    elapsed = perf_counter() - t0
    shutil.rmtree(OUT_DIR / f"probe-{os.getpid()}", ignore_errors=True)
    return elapsed


def measure_setup(workload: str) -> tuple[float, float]:
    """Median (raw, normalised) set-up seconds over fresh processes."""
    def probe():
        proc = subprocess.run([sys.executable, __file__, "--probe-setup", workload],
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    raws, norms = [], []
    for _ in range(SETUP_PROBES):
        inner, _, scale = timed(probe)
        raws.append(inner)
        norms.append(inner * scale)
    return statistics.median(raws), statistics.median(norms)


class Checker:
    """Compares each part's outputs with the stored reference."""

    def __init__(self):
        self.reference = json.loads(REFERENCE.read_text())

    def problems(self, part, observed: dict, counts: dict | None = None) -> list[str]:
        import workloads
        from tracer import REFERENCE_COUNTS
        entry = self.reference.get(part.key)
        if entry is None:
            return [f"{part.key}: no reference entry"]
        found = workloads.mismatches(entry["digest"], observed, where=part.key)
        if counts is not None:
            # A count the reference or the run lacks reads 0, so a call that
            # stops being made shows as a mismatch.
            want = {k: entry["counts"].get(k, 0) for k in REFERENCE_COUNTS}
            seen = {k: counts.get(k, 0) for k in REFERENCE_COUNTS}
            found += workloads.mismatches(want, seen, where=part.key + ".counts")
        return found


def run_op(ctx, op, checker, tracer=None) -> dict:
    """Execute one operation, time it, check it. Never raises."""
    import workloads
    rec = {"ok": True, "raw": 0.0, "norm": 0.0, "sim_ms": 0.0, "digests": []}
    snaps = []

    def call():
        raws = []
        for part in op:
            snaps.append(tracer.snapshot() if tracer else None)
            raws.append(workloads.execute(ctx, part))
        snaps.append(tracer.snapshot() if tracer else None)
        return raws

    if tracer:
        tracer.begin_op()
    drive_evals = ctx.drive_evals
    try:
        raws, rec["raw"], scale = timed(call)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rec["ok"] = False
        return rec
    rec["norm"] = rec["raw"] * scale
    if tracer:
        tracer.counts["gssa.drive_evals"] += ctx.drive_evals - drive_evals
    for i, (part, raw) in enumerate(zip(op, raws)):
        try:
            observed = workloads.observe(ctx, part, raw)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rec["ok"] = False
            continue
        counts = tracer.counts_between(snaps[i], snaps[i + 1]) if tracer else None
        rec["digests"].append(observed)
        rec["sim_ms"] += workloads.sim_ms(ctx, part)
        for problem in checker.problems(part, observed, counts):
            print(f"mismatch: {problem}", file=sys.stderr)
            rec["ok"] = False
    return rec


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    import workloads
    setup_raw, setup_norm = measure_setup(workload)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    ctx = setup(workload, workdir)
    checker = Checker()
    recs = []
    t_start = perf_counter()
    for op in itertools.chain.from_iterable(workloads.rounds(workload, seed)):
        if recs and perf_counter() - t_start >= seconds:
            break
        recs.append(run_op(ctx, op, checker))
    shutil.rmtree(workdir, ignore_errors=True)
    good = [r for r in recs if r["ok"]]
    failed = len(recs) - len(good)
    sim_ms = sum(r["sim_ms"] for r in good)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not good:
        return {"attempted": len(recs), "failed": failed, "metrics": {}}
    metrics = {
        "sim_ms_per_s": (sim_ms / sum(r["norm"] for r in good), "ms/s"),
        "op_p50_ms": (statistics.median(r["norm"] for r in good) * 1e3, "ms"),
        "setup_s": (setup_norm, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (1.0 - failed / len(recs), "ratio"),
    }
    raw = {
        "sim_ms_per_s": sim_ms / sum(r["raw"] for r in good),
        "op_p50_ms": statistics.median(r["raw"] for r in good) * 1e3,
        "setup_s": setup_raw,
    }
    print(f"operations: {len(recs)} attempted, {failed} failed, "
          f"failed_ratio {failed / len(recs):.4f} ratio")
    for name, (value, unit) in metrics.items():
        note = f"   (unnormalised {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<14} {value:12.6g} {unit:<6}{note}")
    return {"attempted": len(recs), "failed": failed, "metrics": metrics}


def traced_run(workload: str, seed: int) -> dict:
    import cProfile
    import io
    import pstats

    from tracer import Tracer, installed, layer_metrics

    import workloads
    tracer = Tracer()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    with installed(tracer):
        tracer.begin_op()
        ctx = setup(workload, workdir)
    checker = Checker()
    stream = workloads.rounds(workload, seed)
    traced_rounds = [next(stream) for _ in range(TRACED_ROUNDS[workload])]
    ops = [op for ops_of_round in traced_rounds for op in ops_of_round]

    # Untraced and traced executions alternate op by op, so host-speed drift
    # hits both sides of the overhead figure alike.
    plain_s = traced_s = 0.0
    recs = []
    for op in ops:
        plain = run_op(ctx, op, checker)
        with installed(tracer):
            traced = run_op(ctx, op, checker, tracer)
        if plain["digests"] != traced["digests"]:
            print(f"mismatch: traced and untraced outputs differ for {op}", file=sys.stderr)
            traced["ok"] = False
        recs += [plain, traced]
        plain_s += plain["norm"]
        traced_s += traced["norm"]
    overhead_pct = (traced_s / plain_s - 1.0) * 100.0 if plain_s > 0 else 0.0

    profiler = cProfile.Profile()
    profiler.enable()
    recs.append(run_op(ctx, ops[0], checker))
    profiler.disable()
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).strip_dirs().sort_stats("tottime").print_stats(
        PROFILE_TOP)
    profile_path = OUT_DIR / f"profile-{workload}-seed{seed}.txt"
    profile_path.write_text(text.getvalue())

    pool_speedup = 0.0
    if workload == "sweep":
        pool_speedup, pool_ok = _pool_speedup(ctx, traced_rounds[0], checker)
        recs.append({"ok": pool_ok})
    shutil.rmtree(workdir, ignore_errors=True)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.npz")

    metrics = layer_metrics(tracer, pool_speedup, overhead_pct)
    failed = sum(not r["ok"] for r in recs)
    print(f"traced run: {len(ops)} operations per pass, {len(recs)} checked, "
          f"{failed} failed; spans and profile in {OUT_DIR.name}/")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.6g} {unit}")
    print(f"cProfile of one {workload} operation, top {PROFILE_TOP} by self time:")
    for line in text.getvalue().splitlines():
        if line.strip():
            print("  " + line)
    return {"attempted": len(recs), "failed": failed, "metrics": metrics}


def _pool_speedup(ctx, ops, checker) -> tuple[float, bool]:
    """run_density_sweep over the densities of ``ops``, with the first op's
    family: serial time divided by the time on a pool of nproc workers."""
    import dataclasses

    from tsepdm import experiments, plant

    import workloads
    family = ops[0][0].args[:3]
    densities = tuple(sorted({op[0].args[3] for op in ops}))
    preset = dataclasses.replace(ctx.presets[family], densities=densities)
    nproc = os.cpu_count() or 1
    serial, serial_raw, serial_scale = timed(experiments.run_density_sweep,
                                             plant.DEFAULT_PARAMS, preset, 1)
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, range(nproc))       # the pool's workers need every CPU
    try:
        pooled, pooled_raw, pooled_scale = timed(experiments.run_density_sweep,
                                                 plant.DEFAULT_PARAMS, preset, nproc)
    finally:
        os.sched_setaffinity(0, pinned)
    ok = True
    for reports in (serial, pooled):
        for rep in reports:
            part = workloads.Part("sweep", (*family, rep.d))
            if checker.problems(part, workloads.observe(ctx, part, rep)):
                ok = False
    return serial_raw * serial_scale / (pooled_raw * pooled_scale), ok


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "trace", "stability", "envelope"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of a --trace 0 run (run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        print(probe_setup(args.probe_setup))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be given and positive")
    _add_src_path()
    if not REFERENCE.is_file():
        sys.exit(f"error: missing reference {REFERENCE}")
    OUT_DIR.mkdir(exist_ok=True)
    pin_to_current_cpu()
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    if not result["metrics"]:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
