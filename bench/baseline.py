"""Measure the benchmark's baseline and write ``bench/baseline.json``.

    python3 bench/baseline.py

For every workload: two sets of end-to-end runs (tracing off), one run per
seed 1-10 in each. Each set is reported as median, quartiles and the
quartile spread as a share of the median, and the second set's median is
compared with the first's against the metric's bound. Then two traced runs
on one seed, whose count metrics must agree exactly, and the cProfile
breakdown of that traced run. Run lengths and bounds come from
BENCHMARK.json. The file is always rewritten whole, from one commit.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
SETS = 2
TRACED_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worsening(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH_DIR))
    import run

    out_path = BENCH_DIR / "baseline.json"
    baseline = {"machine": run.machine_record(), "run_seconds": spec["run_seconds"],
                "seeds": [SEEDS.start, SEEDS.stop - 1], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[run_once(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
                for _ in range(SETS)]
        end_to_end = [{m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results])
                       for m in spec["end_to_end"]} for results in sets]
        agreement = {}
        for m in spec["end_to_end"]:
            worse = worsening(m, end_to_end[0][m["name"]]["median"],
                              end_to_end[1][m["name"]]["median"])
            agreement[m["name"]] = {"worse_by": worse, "bound": m["bound"],
                                    "within": worse <= m["bound"]}
        traced = [run_once(workload, TRACED_SEED, spec["run_seconds"], 1)
                  for _ in range(2)]
        counts_repeat = all(
            traced[0]["metrics"][name]["value"] == traced[1]["metrics"][name]["value"]
            for name, metric in traced[0]["metrics"].items() if metric["unit"] == "count")
        profile = run.OUT_DIR / f"profile-{workload}-seed{TRACED_SEED}.txt"
        baseline["workloads"][workload] = {
            "attempted": [[r["attempted"] for r in results] for results in sets],
            "failed": [[r["failed"] for r in results] for results in sets],
            "end_to_end": end_to_end,
            "second_set_vs_first": agreement,
            "per_layer": {name: m["value"] for name, m in traced[0]["metrics"].items()},
            "traced_failed": [t["failed"] for t in traced],
            "traced_counts_repeat": counts_repeat,
            "profile": profile.read_text().splitlines() if profile.is_file() else [],
        }
        for i, summary in enumerate(end_to_end, 1):
            spreads = ", ".join(f"{k} {v['median']:.4g} ({v['spread']:.1%})"
                                for k, v in summary.items())
            print(f"{workload} set {i}: {spreads}", flush=True)
        drift = ", ".join(f"{k} {v['worse_by']:+.1%}" for k, v in agreement.items())
        print(f"{workload} set 2 worse than set 1 by: {drift}; "
              f"counts repeat: {counts_repeat}", flush=True)
        out_path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
