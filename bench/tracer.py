"""Span tracing at the package's module boundaries, from outside the package.

The tracer wraps public names in the module that looks them up (for example
``tsepdm.experiments.simulate`` and ``tsepdm.plant.rk4_affine_maps``) and
records one span per call: name, start, end, parent span and operation id.
Spans live in flat arrays in memory and are written out once, at the end.
A layer's self time is its spans' time minus the time their child spans
cover. Counts (ticks, half cycles, crossings, rows...) are taken from call
arguments and results after the span has closed; that bookkeeping runs in a
``trace.count`` span of its own, so it is charged to no layer.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# Counts that are outputs of the program, not of how it is structured: the
# reference stores them and traced runs compare them exactly.
REFERENCE_COUNTS = ("plant.half_cycles", "plant.events", "plant.crossings",
                    "modulator.run_ticks", "modulator.lane_ticks",
                    "gssa.env_steps", "datafiles.rows")


def _count_trace(trace, *args, **kwargs):
    secondary = [ev.y for ev in trace.events if ev.side == "secondary"]
    return {"plant.half_cycles": len(trace.envelope_t),
            "plant.events": len(trace.events),
            "plant.crossings": len(secondary),
            "modulator.pulses": sum(ev.y for ev in trace.events),
            "plant.samples": trace.states.shape[0],
            "plant.sample_bytes": trace.t.nbytes + trace.states.nbytes + trace.u.nbytes,
            "plant.starved_runs": int(any("starved" in msg for msg in trace.diagnostics))}


def _count_run(result, *args, **kwargs):
    from tsepdm.modulator import count_violations
    y, e = result
    return {"modulator.run_ticks": y.size, "modulator.pulses": int(y.sum()),
            "modulator.violations": count_violations(e)}


def _count_grid(result, *args, **kwargs):
    from tsepdm.modulator import count_violations
    y, e = result
    return {"modulator.lane_ticks": y.size, "modulator.pulses": int(y.sum()),
            "modulator.violations": count_violations(e)}


def _count_rows(result, path, *args, **kwargs):
    lines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
    return {"datafiles.rows": lines - 1, "datafiles.bytes": Path(path).stat().st_size}


def _count_manifest(result, *args, **kwargs):
    return {"datafiles.bytes": Path(result).stat().st_size}


def _count_bode(result, *args, **kwargs):
    return {"gssa.bode_points": len(result)}


def _count_envelope(result, *args, **kwargs):
    return {"gssa.env_steps": len(result[0]) - 1}


# (module, attribute, span name, count function). A target the package no
# longer has is an error: skipping it would leave its layer's figures at 0.
TARGETS = (
    ("tsepdm.experiments", "run_sweep_point", "experiments.run_sweep_point", None),
    ("tsepdm.experiments", "simulate", "plant.simulate", _count_trace),
    ("tsepdm.plant", "simulate", "plant.simulate", _count_trace),
    ("tsepdm.plant", "rk4_affine_maps", "plant.rk4_affine_maps", None),
    ("tsepdm.experiments", "build_first_order", "ntf.build_first_order", None),
    ("tsepdm.experiments", "build_third_order", "ntf.build_third_order", None),
    ("tsepdm.modulator", "to_error_filter", "ntf.to_error_filter", None),
    ("tsepdm.modulator", "run", "modulator.run", _count_run),
    ("tsepdm.modulator", "run_const_grid", "modulator.run_const_grid", _count_grid),
    ("tsepdm.analysis", "fluctuation", "analysis.fluctuation", None),
    ("tsepdm.analysis", "spectrum_of_sequence", "analysis.spectrum_of_sequence", None),
    ("tsepdm.datafiles", "write_rows", "datafiles.write_rows", _count_rows),
    ("tsepdm.datafiles", "write_manifest", "datafiles.write_manifest", _count_manifest),
    ("tsepdm.datafiles", "params_from_config", "datafiles.params_from_config", None),
    ("tsepdm.cli", "main", "cli.main", None),
    ("tsepdm.gssa", "build_envelope_model", "gssa.build_envelope_model", None),
    ("tsepdm.gssa", "find_bode_peak", "gssa.find_bode_peak", None),
    ("tsepdm.gssa", "amplitude_bode", "gssa.amplitude_bode", _count_bode),
    ("tsepdm.gssa", "simulate_envelope", "gssa.simulate_envelope", _count_envelope),
)
# Modulator classes whose instances get a traced ``step``.
MODULATOR_FACTORIES = (("tsepdm.experiments", "PulseDensityModulator"),
                       ("tsepdm.modulator", "PulseDensityModulator"))


class Tracer:
    """In-memory span store plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self):
        self.op_id += 1

    def wrap(self, name: str, fn, count=None):
        nid = self._name(name)
        count_id = self._name("trace.count")

        def open_span(name_id):
            idx = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            return idx

        def close_span(idx, t0, t1):
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                close_span(idx, t0, t1)
            if count is not None:
                cidx = open_span(count_id)
                c0 = perf_counter()
                self.counts.update(count(result, *args, **kwargs))
                close_span(cidx, c0, perf_counter())
            return result

        return traced

    def snapshot(self) -> tuple[int, Counter]:
        return len(self.start), Counter(self.counts)

    def counts_between(self, snap_a, snap_b) -> dict[str, int]:
        """Counter increments and span calls per name between two snapshots."""
        (first, before), (last, after) = snap_a, snap_b
        out = dict(after - before)
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        for nid, n in enumerate(np.bincount(ids, minlength=len(self.names))):
            if n:
                out["calls:" + self.names[nid]] = int(n)
        return out

    def span_table(self):
        """(names, name_id, parent, op, start, end, self_time) as arrays."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        op = np.frombuffer(self.op, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return self.names, name_id, parent, op, start, end, dur - covered

    def write(self, path: Path):
        names, name_id, parent, op, start, end, self_time = self.span_table()
        np.savez_compressed(path, names=np.array(names), name_id=name_id, parent=parent,
                            op=op, start=start, end=end, self_time=self_time)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target name for the duration of the block."""
    saved = []
    try:
        for modname, attr, span, count in TARGETS:
            mod, orig = _target(modname, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, tracer.wrap(span, orig, count))
        for modname, attr in MODULATOR_FACTORIES:
            mod, cls = _target(modname, attr)
            saved.append((mod, attr, cls))
            setattr(mod, attr, _traced_factory(tracer, cls))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def _target(modname: str, attr: str):
    mod = importlib.import_module(modname)
    if not hasattr(mod, attr):
        raise AttributeError(f"tracer target {modname}.{attr} is gone; update TARGETS "
                             "in bench/tracer.py")
    return mod, getattr(mod, attr)


def _traced_factory(tracer: Tracer, cls):
    def make(*args, **kwargs):
        instance = cls(*args, **kwargs)
        instance.step = tracer.wrap("modulator.step", instance.step)
        return instance
    return make


def layer_metrics(tracer: Tracer, pool_speedup: float, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the recorded spans and counters."""
    names, name_id, _parent, _op, _start, _end, self_time = tracer.span_table()
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start,
                                                                      dtype=np.float64)
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    incl = np.bincount(name_id, weights=dur, minlength=n)
    self_s = np.bincount(name_id, weights=self_time, minlength=n)
    c = tracer.counts

    def pick(arr, *span_names):
        return float(sum(arr[names.index(s)] for s in span_names if s in names))

    def layer(arr, prefix):
        return float(sum(arr[i] for i, s in enumerate(names) if s.startswith(prefix + ".")))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    step_calls = pick(calls, "modulator.step")
    scalar_ticks = step_calls + c["modulator.run_ticks"]
    split_calls = pick(calls, "plant.rk4_affine_maps")
    split_s = pick(incl, "plant.rk4_affine_maps")
    datafiles_mb = c["datafiles.bytes"] / 1e6
    m = {
        "ntf.calls": (layer(calls, "ntf"), "count"),
        "ntf.s": (layer(self_s, "ntf"), "s"),
        "modulator.ticks": (scalar_ticks + c["modulator.lane_ticks"], "count"),
        "modulator.pulses": (c["modulator.pulses"], "count"),
        "modulator.s": (layer(self_s, "modulator"), "s"),
        "modulator.ticks_per_s": (rate(scalar_ticks, pick(incl, "modulator.step",
                                                          "modulator.run")), "1/s"),
        "modulator.lane_ticks_per_s": (rate(c["modulator.lane_ticks"],
                                            pick(incl, "modulator.run_const_grid")), "1/s"),
        "modulator.violations": (c["modulator.violations"], "count"),
        "plant.calls": (pick(calls, "plant.simulate"), "count"),
        "plant.half_cycles": (c["plant.half_cycles"], "count"),
        "plant.s": (layer(self_s, "plant"), "s"),
        "plant.half_cycles_per_s": (rate(c["plant.half_cycles"],
                                         pick(incl, "plant.simulate")), "1/s"),
        "plant.crossings": (c["plant.crossings"], "count"),
        "plant.split_calls": (split_calls, "count"),
        "plant.split_s": (split_s, "s"),
        "plant.split_us": (rate(split_s * 1e6, split_calls), "us"),
        "plant.samples": (c["plant.samples"], "count"),
        "plant.sample_mb": (c["plant.sample_bytes"] / 1e6, "MB"),
        "plant.starved_runs": (c["plant.starved_runs"], "count"),
        "gssa.models": (pick(calls, "gssa.build_envelope_model"), "count"),
        "gssa.model_s": (pick(incl, "gssa.build_envelope_model"), "s"),
        "gssa.bode_points": (c["gssa.bode_points"], "count"),
        "gssa.bode_points_per_s": (rate(c["gssa.bode_points"],
                                        pick(incl, "gssa.amplitude_bode")), "1/s"),
        "gssa.env_steps": (c["gssa.env_steps"], "count"),
        "gssa.env_steps_per_s": (rate(c["gssa.env_steps"],
                                      pick(incl, "gssa.simulate_envelope")), "1/s"),
        "gssa.drive_evals": (c["gssa.drive_evals"], "count"),
        "analysis.calls": (layer(calls, "analysis"), "count"),
        "analysis.s": (layer(self_s, "analysis"), "s"),
        "experiments.points": (pick(calls, "experiments.run_sweep_point"), "count"),
        "experiments.self_s": (pick(self_s, "experiments.run_sweep_point"), "s"),
        "experiments.pool_speedup": (pool_speedup, "x"),
        "cli.calls": (pick(calls, "cli.main"), "count"),
        "cli.self_s": (pick(self_s, "cli.main"), "s"),
        "datafiles.rows": (c["datafiles.rows"], "count"),
        "datafiles.mb": (datafiles_mb, "MB"),
        "datafiles.s": (layer(self_s, "datafiles"), "s"),
        "datafiles.mb_per_s": (rate(datafiles_mb, pick(incl, "datafiles.write_rows",
                                                       "datafiles.write_manifest")), "MB/s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {k: (float(v), unit) for k, (v, unit) in m.items()}
