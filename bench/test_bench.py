"""Tests of the benchmark itself: seeded inputs, reference coverage, and
tracing that leaves outputs untouched.

    python3 -m pytest bench/test_bench.py
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import REFERENCE_COUNTS, Tracer, installed  # noqa: E402


def first_ops(workload, seed, n_rounds=3):
    return list(itertools.chain.from_iterable(
        itertools.islice(workloads.rounds(workload, seed), n_rounds)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_generable_part(workload):
    reference = json.loads(run.REFERENCE.read_text())
    universe = {p.key for p in workloads.all_parts(workload)}
    assert universe <= reference.keys()
    for seed in range(20):
        for op in first_ops(workload, seed, n_rounds=5):
            assert {p.key for p in op} <= universe


def cheapest_op(workload):
    """A short operation of each workload, so the tests stay quick."""
    if workload == "sweep":
        return (workloads.Part("sweep", ("primary", "tse", 0.075, 0.963)),)
    if workload == "trace":
        return (workloads.Part("simulate", (0.963, 1.0, "tse", workloads.TRACE_DURATIONS[0])),
                workloads.Part("samples", (0.963, 1.0, "tse")))
    if workload == "stability":
        return (workloads.Part("modulate", ("tse", 0.075, 0.963)),)
    return (workloads.Part("model", (0.15,)), workloads.Part("envelope", (0.15, 0.963)))


@pytest.fixture(scope="module")
def checker():
    return run.Checker()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_repeats(workload, checker, tmp_path):
    ctx = workloads.Context(workload, tmp_path)
    op = cheapest_op(workload)
    plain = run.run_op(ctx, op, checker)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with installed(tracer):
            traced = run.run_op(ctx, op, checker, tracer)
        assert traced["ok"] and traced["digests"] == plain["digests"]
        counts.append({k: tracer.counts[k] for k in REFERENCE_COUNTS})
    assert plain["ok"]
    assert counts[0] == counts[1]


def test_tracer_restores_wrapped_names():
    from tsepdm import experiments, plant
    originals = (experiments.simulate, plant.rk4_affine_maps,
                 experiments.PulseDensityModulator)
    with installed(Tracer()):
        assert experiments.simulate is not originals[0]
    assert (experiments.simulate, plant.rk4_affine_maps,
            experiments.PulseDensityModulator) == originals


def test_tracer_refuses_a_missing_target(monkeypatch):
    import tracer
    from tsepdm import experiments
    original = experiments.simulate
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("tsepdm.plant", "no_such_function", "plant.no_such_function", None),))
    with pytest.raises(AttributeError, match="no_such_function"):
        with installed(Tracer()):
            pass
    assert experiments.simulate is original


def test_missing_count_is_a_mismatch(checker):
    part = workloads.Part("sweep", ("primary", "tse", 0.075, 0.963))
    entry = checker.reference[part.key]
    assert entry["counts"]["plant.half_cycles"] > 0
    assert checker.problems(part, entry["digest"], dict(entry["counts"])) == []
    counts = {k: v for k, v in entry["counts"].items() if k != "plant.half_cycles"}
    assert checker.problems(part, entry["digest"], counts)


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("b.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("a.outer", lambda: [inner() for _ in range(3)])
    outer()
    names, name_id, parent, _op, start, end, self_time = tracer.span_table()
    total = end - start
    outer_idx = names.index("a.outer")
    (row,) = [i for i in range(len(name_id)) if name_id[i] == outer_idx]
    children = total[parent == row].sum()
    assert self_time[row] == pytest.approx(total[row] - children)
    assert (parent == row).sum() == 3


def test_mismatches_tolerance():
    assert workloads.mismatches({"a": [1.0, "x", 3]}, {"a": [1.0 + 1e-12, "x", 3]}) == []
    assert workloads.mismatches({"a": 1.0}, {"a": 1.0 + 1e-6})
    assert workloads.mismatches({"a": 3}, {"a": 4})
