"""Regenerate ``bench/reference.json``: the expected output of every part any
seed can generate, with its output counts.

    python3 bench/make_reference.py

Run it from a checkout of the commit whose outputs are the reference; the
benchmark then checks every later commit against them. The file is always
rewritten whole, so that every entry comes from that one commit. Each part runs with
the tracer installed, so the stored counts come from the same wrappers the
traced benchmark run uses.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracer import REFERENCE_COUNTS, Tracer, installed  # noqa: E402

OUT_DIR = BENCH_DIR.parent / ".bench_out"
_contexts: dict[str, workloads.Context] = {}


def reference_entry(workload: str, part: workloads.Part) -> tuple[str, dict]:
    if workload not in _contexts:
        _contexts[workload] = workloads.Context(
            workload, OUT_DIR / f"ref-{os.getpid()}-{workload}")
    ctx = _contexts[workload]
    tracer = Tracer()
    with installed(tracer):
        before = tracer.snapshot()
        raw = workloads.execute(ctx, part)
        after = tracer.snapshot()
    counts = tracer.counts_between(before, after)
    return part.key, {"digest": workloads.observe(ctx, part, raw),
                      "counts": {k: counts[k] for k in REFERENCE_COUNTS if k in counts}}


def main() -> int:
    path = BENCH_DIR / "reference.json"
    reference = {}
    tasks = [(w, p) for w in workloads.WORKLOADS for p in workloads.all_parts(w)]
    OUT_DIR.mkdir(exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=os.cpu_count() or 1, mp_context=ctx) as pool:
        for i, (key, entry) in enumerate(pool.map(reference_entry, *zip(*tasks))):
            reference[key] = entry
            if i % 50 == 0:
                print(f"{i + 1}/{len(tasks)} {key}", flush=True)
    lines = [f"{json.dumps(key)}: {json.dumps(reference[key], sort_keys=True)}"
             for key in sorted(reference)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    for leftover in OUT_DIR.glob("ref-*"):
        shutil.rmtree(leftover, ignore_errors=True)
    print(f"wrote {len(reference)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
