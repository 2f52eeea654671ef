"""Error-feedback modulator: recurrences, stability band, gating."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import signal

from tsepdm import modulator as mod
from tsepdm import ntf
from tsepdm.plant import CHUNK


NTF1 = ntf.build_first_order()
NTF3 = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9))


def accumulator_oracle(densities):
    """Classic first-order accumulate-and-subtract loop (independent oracle)."""
    v = 0.0
    y_prev = 0
    ys = []
    for d in densities:
        v = v + d - y_prev
        y = 1 if v >= 1.0 else 0
        ys.append(y)
        y_prev = y
    return np.array(ys)


def reference_tick(b, a, eh, wh, d):
    """One tick of the recurrence on history lists, newest first (the plain
    loop the generated kernels must match bit for bit). Returns (y, e, eh, wh)."""
    w = 0.0
    for b_j, e_j in zip(b, eh):
        w = w + b_j * e_j
    for a_j, w_j in zip(a, wh):
        w = w - a_j * w_j
    v = d - w
    y = v >= 1.0
    e = y - v
    return y, e, [e] + eh[:-1], [w] + wh[:-1]


def reference_run(tf, densities):
    """Reference (y, e, final state) of a fresh modulator over ``densities``."""
    b, a = mod._coefficients(tf)
    eh = wh = [0.0] * len(a)
    ys, es = [], []
    for d in densities:
        y, e, eh, wh = reference_tick(b, a, eh, wh, d)
        ys.append(y)
        es.append(e)
    # With order 0 the tick's history lists grow; the state holds none of them.
    order = len(a)
    return (np.array(ys, dtype=np.int8), np.array(es, dtype=float),
            tuple(eh[:order] + wh[:order]))


def stable_ntf(zeros, poles):
    """Monic NTF with the given zeros and poles (conjugate pairs included)."""
    return ntf.RationalTransferFunction(num=tuple(np.poly(zeros).real),
                                        den=tuple(np.poly(poles).real))


def conjugate_pair(radius, angle):
    return [radius * np.exp(1j * angle), radius * np.exp(-1j * angle)]


# Orders no workload runs, so that every generated kernel shape is covered.
ORACLE_NTFS = [
    NTF1, NTF3,
    ntf.RationalTransferFunction(num=(1.0,), den=(1.0,)),
    stable_ntf([1.0, 1.0], conjugate_pair(0.6, 0.4)),
    # Error filter with negative b and positive a taps: after a zero-density
    # tick from rest, w is +0.0 only because the feedback sum starts at +0.0.
    stable_ntf([-0.5, -0.5], [-0.2, -0.3]),
    stable_ntf([1.0, 1.0, *conjugate_pair(1.0, 0.3)],
               [0.5, 0.4, *conjugate_pair(0.7, 0.3)]),
    stable_ntf([1.0, *conjugate_pair(1.0, 0.2), *conjugate_pair(1.0, 0.5)],
               [0.3, *conjugate_pair(0.8, 0.2), *conjugate_pair(0.6, 0.5)]),
]


def reconstruct_density(ntf_obj, y, e):
    """Invert the modulator relation: d = y - e + (H * e), H = 1 - NTF.

    Uses scipy's filter as an independent realization of H.
    """
    h = ntf.to_error_filter(ntf_obj)
    order = h.order
    b = np.zeros(order + 1)
    b[order + 1 - len(h.num):] = h.num
    a = np.asarray(h.den)
    w = signal.lfilter(b, a, e)
    return y - e + w


def test_first_order_matches_accumulator_oracle():
    rng = np.random.default_rng(42)
    d = rng.uniform(0.0, 1.0, size=2000)
    y, _ = mod.run(NTF1, d)
    assert np.array_equal(y, accumulator_oracle(d))


def test_half_density_alternates():
    y, _ = mod.run(NTF1, 0.5, n_ticks=8)
    assert list(y) == [0, 1, 0, 1, 0, 1, 0, 1]


def test_full_density_all_ones_error_settles_to_zero():
    for tf in (NTF1, NTF3):
        y, e = mod.run(tf, 1.0, n_ticks=64)
        assert np.all(y == 1)
        assert np.allclose(e[tf.order:], 0.0, atol=1e-12)


def test_zero_density_all_zeros():
    for tf in (NTF1, NTF3):
        y, _ = mod.run(tf, 0.0, n_ticks=64)
        assert np.all(y == 0)


def boundary_charge_bound(ntf_obj, n_taps=2000):
    """Max run-boundary pulse deficit: 1 + sum k*|h_k| over the error filter.

    mean(y) - d equals the h-weighted tail sums of e divided by n; with
    |e| <= 1 that is bounded by sum_k k*|h_k| pulses (plus one for the
    final unpaired error sample).
    """
    h = ntf.to_error_filter(ntf_obj)
    b = np.zeros(h.order + 1)
    b[h.order + 1 - len(h.num):] = h.num
    imp = signal.lfilter(b, np.asarray(h.den), np.eye(1, n_taps)[0])
    return 1.0 + np.sum(np.arange(n_taps) * np.abs(imp))


def test_mean_density_conserved_at_worst_case_point():
    # First-order: FIR error filter, deficit below one pulse.
    y, _ = mod.run(NTF1, 0.963, n_ticks=4096)
    assert abs(y.mean() - 0.963) <= 1 / 4096
    # Notch NTF: IIR error filter holds standing charge; the deficit is
    # bounded by the impulse-response moment, not by order + 1.
    y, _ = mod.run(NTF3, 0.963, n_ticks=4096)
    assert abs(y.mean() - 0.963) <= boundary_charge_bound(NTF3) / 4096


def test_mean_density_conserved_across_grid():
    n = 4096
    for tf in (NTF1, NTF3):
        bound = boundary_charge_bound(tf) / n
        for d in np.linspace(0.05, 0.95, 19):
            y, _ = mod.run(tf, d, n_ticks=n)
            assert abs(y.mean() - d) <= bound


def test_mean_density_error_vanishes_with_run_length():
    # The boundary charge is O(1) pulses, so the mean converges as 1/n.
    for tf in (NTF1, NTF3):
        devs = []
        for n in (2048, 8192, 32768):
            y, _ = mod.run(tf, 0.35, n_ticks=n)
            devs.append(abs(y.mean() - 0.35) * n)
        assert max(devs) <= boundary_charge_bound(tf)


def dc_factor(tf, n_taps=2000):
    """(q, g) for an NTF with a zero at z = 1: NTF = (1 - z^-1) G, with G's
    numerator q over NTF's denominator (both in powers of z^-1) and g its
    impulse response."""
    q, _ = np.polydiv(np.asarray(tf.num), [1.0, -1.0])
    return q, signal.lfilter(q, tf.den, np.eye(1, n_taps)[0])


DC_ZERO_NTFS = [tf for tf in ORACLE_NTFS if abs(ntf.evaluate(tf, 1.0)) < 1e-12]


@st.composite
def density_waveforms(draw):
    """Up to 16384 densities in [0, 1]: a constant, a clipped sinusoid, a
    ramp, or a drawn pattern repeated."""
    n = draw(st.integers(1, 16384))
    unit = st.floats(0.0, 1.0)
    kind = draw(st.sampled_from(["const", "sin", "ramp", "pattern"]))
    if kind == "const":
        return np.full(n, draw(unit))
    if kind == "sin":
        mid, amp, period = draw(unit), draw(unit), draw(st.floats(2.0, 4096.0))
        return np.clip(mid + amp * np.sin(2.0 * np.pi * np.arange(n) / period), 0.0, 1.0)
    if kind == "ramp":
        return np.linspace(draw(unit), draw(unit), n)
    pattern = draw(st.lists(unit, min_size=1, max_size=40))
    return np.resize(pattern, n)


@given(tf=st.sampled_from(DC_ZERO_NTFS), d=density_waveforms())
@example(tf=NTF3, d=np.full(16384, 0.283))  # the grid's worst: -7.49 pulses at N = 30
@example(tf=NTF1, d=np.full(16384, 0.963))
def test_running_density_error_is_the_error_filtered_by_g(tf, d):
    # y - d = NTF e and NTF = (1 - z^-1) G, so the running sum of y - d over
    # the first N ticks is (g * e)[N - 1], for every N. With e in [-1, 0]
    # it lies in [-sum g+, sum g-]: the standing charge criterion 4 meets.
    y, e = mod.run(tf, d)
    q, g = dc_factor(tf)
    running = np.cumsum(y - d)
    scale = max(1.0, np.abs(g).sum() * np.abs(e).max())  # a term's size
    assert np.abs(running - signal.lfilter(q, tf.den, e)).max() <= 1e-9 * scale
    if e.min() >= -1.0 and e.max() <= 0.0:
        assert -g[g > 0].sum() - 1e-9 <= running.min()
        assert running.max() <= -g[g < 0].sum() + 1e-9


def test_dc_factor_of_the_notch_and_first_order_ntfs():
    # the ranges the property gives: [-9.25, 0] pulses for the notch NTF,
    # whose g is nonnegative with G(1) = 9.25, and [-1, 0] for first order
    _, g = dc_factor(NTF3)
    assert -g[g < 0].sum() < 1e-12
    assert g.sum() == pytest.approx(9.251017, abs=1e-6)
    _, g = dc_factor(NTF1)
    assert np.array_equal(g, np.eye(1, len(g))[0])


def test_ramp_running_mean_tracks_input():
    n = 10_000
    d = mod.ramp_density(n)
    window = 1000
    for tf in (NTF1, NTF3):
        y, _ = mod.run(tf, d)
        kernel = np.ones(window) / window
        y_avg = np.convolve(y, kernel, mode="valid")
        d_avg = np.convolve(d, kernel, mode="valid")
        assert np.max(np.abs(y_avg - d_avg)) < 0.02


def test_exact_reconstruction_identity():
    rng = np.random.default_rng(7)
    for tf in (NTF1, NTF3):
        for d in (0.1, 0.963, None):
            dens = rng.uniform(0, 1, 5000) if d is None else np.full(5000, d)
            y, e = mod.run(tf, dens)
            d_hat = reconstruct_density(tf, y, e)
            assert np.max(np.abs(d_hat - dens)) <= 1e-9


@given(d=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=400),
       tf=st.sampled_from([NTF1, NTF3]))
def test_reconstruction_identity_for_any_density_sequence(d, tf):
    y, e = mod.run(tf, d)
    assert np.max(np.abs(reconstruct_density(tf, y, e) - np.asarray(d))) <= 1e-9


def test_step_rejects_non_finite_density():
    m = mod.PulseDensityModulator(NTF1)
    with pytest.raises(ValueError):
        m.step(float("nan"))


@pytest.mark.parametrize("d", ["0.5", True, np.True_, 0.5j, None],
                         ids=["str", "bool", "numpy-bool", "complex", "none"])
def test_step_rejects_non_real_density(d):
    m = mod.PulseDensityModulator(NTF3)
    with pytest.raises(TypeError, match="pulse density must be a real number"):
        m.step(d)
    assert m.state == (0.0,) * 6


@pytest.mark.parametrize("call", [
    lambda m: m.step(1.5), lambda m: m.step(-0.1),
], ids=["step-above", "step-below"])
def test_densities_outside_the_unit_interval_are_rejected(call):
    # as `run` rejects them, and before the first tick
    m = mod.PulseDensityModulator(NTF3)
    with pytest.raises(ValueError, match=r"^pulse density must be in \[0, 1\], got"):
        call(m)
    assert m.state == (0.0,) * 6


def test_step_takes_int_and_numpy_densities_as_floats():
    for xs in ([1, 0, 1, 1], [np.float64(0.7), np.float32(0.5), np.int64(1), 0]):
        m, ref = mod.PulseDensityModulator(NTF3), mod.PulseDensityModulator(NTF3)
        assert [m.step(x) for x in xs] == [ref.step(float(x)) for x in xs]
        assert np.array(m.state).tobytes() == np.array(ref.state).tobytes()


@st.composite
def _split_densities(draw):
    """A density list and the cut points of its batches, sorted."""
    d = draw(st.lists(st.floats(0.0, 1.0), max_size=3 * CHUNK + 2))
    cuts = draw(st.lists(st.integers(0, len(d)), max_size=6))
    return d, sorted(cuts)


@given(split=_split_densities(), tf=st.sampled_from([NTF1, NTF3]))
@example(split=([0.963] * (2 * CHUNK + 1), [CHUNK, 2 * CHUNK]), tf=NTF3)
@example(split=([0.983] * (2 * CHUNK), [CHUNK - 1, CHUNK, CHUNK + 1]), tf=NTF1)
def test_batch_ticks_equal_per_tick_steps_bit_for_bit(split, tf):
    # The co-simulation ticks the primary in one `_advance` batch and a
    # constant secondary CHUNK ticks at a time; any cut of the sequence into
    # batches gives the pulses and the state of one step per density.
    d, cuts = split
    m, ref = mod.PulseDensityModulator(tf), mod.PulseDensityModulator(tf)
    batched = []
    for lo, hi in zip([0, *cuts], [*cuts, len(d)]):
        batched += m._advance(d[lo:hi])
    stepped = [ref.step(x) for x in d]
    assert batched == stepped
    assert all(type(y) is bool for y in batched) and all(type(y) is int for y in stepped)
    assert np.array(m.state).tobytes() == np.array(ref.state).tobytes()


def test_run_rejects_out_of_range_density():
    with pytest.raises(ValueError):
        mod.run(NTF1, np.array([0.5, 1.2]))


@pytest.mark.parametrize("call, message", [
    (lambda: mod.run(NTF1, [0.5] * 4, n_ticks=-1), "refused for a sequence"),
    (lambda: mod.run(NTF1, 0.5, n_ticks=-1), r"n_ticks must be in \[0, inf\)"),
    (lambda: mod.run(NTF1, [0.5] * 4, n_ticks=5), "refused for a sequence"),
    (lambda: mod.run(NTF1, [[0.5, 0.5], [0.5, 0.5]]), "one-dimensional"),
    (lambda: mod.run_const_grid(NTF1, [[0.25, 0.5]], 4), "one-dimensional"),
    (lambda: mod.run_const_grid(NTF1, [0.25, 0.5], -1), r"n_ticks must be in \[0, inf\)"),
], ids=["run-negative", "run-scalar-negative", "run-too-many", "run-2d",
        "grid-2d", "grid-negative"])
def test_bad_tick_counts_and_shapes_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: mod.run(NTF1, "0.5", n_ticks=2),
    lambda: mod.run(NTF1, "0.5"),
    lambda: mod.run(NTF1, True, n_ticks=2),
    lambda: mod.run(NTF1, [True, False]),
    lambda: mod.run(NTF1, ["0.5", "0.9"]),
    lambda: mod.run_const_grid(NTF1, ["0.5", "0.9"], 3),
    lambda: mod.run_const_grid(NTF1, [True, False], 3),
    lambda: mod.StabilityReport.of(*mod.run(NTF1, "0.5", n_ticks=2), 0.5),
], ids=["run-str", "run-str-no-ticks", "run-bool", "run-bool-list", "run-str-list",
        "grid-str", "grid-bool", "probe-str"])
def test_non_real_densities_are_rejected(call):
    with pytest.raises(TypeError, match="densities must be real numbers"):
        call()


def test_int_and_numpy_densities_run_as_floats():
    for tf in (NTF1, NTF3):
        for got, want in (
                (mod.run(tf, [0, 1, 1] * 20), mod.run(tf, [0.0, 1.0, 1.0] * 20)),
                (mod.run(tf, np.float32([0.5, 0.25] * 30)), mod.run(tf, [0.5, 0.25] * 30)),
                (mod.run(tf, np.float32(0.5), n_ticks=8), mod.run(tf, 0.5, n_ticks=8)),
                (mod.run_const_grid(tf, np.array([0, 1]), 5),
                 mod.run_const_grid(tf, [0.0, 1.0], 5))):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_first_order_error_stays_in_band():
    rng = np.random.default_rng(123)
    for _ in range(10):
        d = rng.uniform(0.0, 1.0, size=3000)
        _, e = mod.run(NTF1, d)
        assert e.min() >= -1.0 - 1e-12
        assert e.max() <= 1e-12


@given(d=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=400))
def test_first_order_error_band_for_any_density_sequence(d):
    _, e = mod.run(NTF1, d)
    assert e.min() >= -1.0 - mod.STABILITY_TOL
    assert e.max() <= mod.STABILITY_TOL


def _probe(tf, d: np.ndarray) -> mod.StabilityReport:
    """The `tsepdm stability` report of one probe waveform."""
    return mod.StabilityReport.of(*mod.run(tf, d), d.mean())


def test_stability_probe_third_order_sinusoid():
    report = _probe(NTF3, mod.sinusoid_density(20_000))
    assert report.violation_count == 0
    assert -1.0 - 1e-9 <= report.e_min and report.e_max <= 1e-9


def test_stability_probe_third_order_ramp():
    report = _probe(NTF3, mod.ramp_density(20_000))
    assert report.violation_count == 0


def test_stability_probe_first_order_constant_grid():
    for d in np.arange(0.1, 0.95, 0.1):
        report = _probe(NTF1, np.full(5000, d))
        assert report.violation_count == 0
        assert report.mean_density_error < 1e-3


def test_const_grid_batch_matches_scalar_runs():
    d_values = [0.1, 0.25, 0.5, 0.75, 0.963]
    for tf in (NTF1, NTF3):
        y_b, e_b = mod.run_const_grid(tf, d_values, 400)
        for j, d in enumerate(d_values):
            y_s, e_s = mod.run(tf, d, n_ticks=400)
            assert np.array_equal(y_b[:, j], y_s)
            assert np.array_equal(e_b[:, j], e_s)


@given(d_values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6, unique=True),
       n_ticks=st.integers(1, 300), tf=st.sampled_from([NTF1, NTF3]))
def test_const_grid_batch_matches_scalar_runs_for_any_densities(d_values, n_ticks, tf):
    y_b, e_b = mod.run_const_grid(tf, d_values, n_ticks)
    for j, d in enumerate(d_values):
        y_s, e_s = mod.run(tf, d, n_ticks=n_ticks)
        assert np.array_equal(y_b[:, j], y_s)
        assert np.array_equal(e_b[:, j], e_s)


@given(d=st.lists(st.floats(0.0, 1.0), max_size=200), tf=st.sampled_from(ORACLE_NTFS))
def test_kernel_matches_reference_loop_bit_for_bit(d, tf):
    # tobytes, not array_equal: a +0.0 / -0.0 drift must fail too.
    y_ref, e_ref, state_ref = reference_run(tf, d)
    y, e = mod.run(tf, d)
    assert (y.tobytes(), e.tobytes()) == (y_ref.tobytes(), e_ref.tobytes())
    m = mod.PulseDensityModulator(tf)
    stepped = np.array([m.step(x) for x in d], dtype=np.int8)
    assert stepped.tobytes() == y_ref.tobytes()
    assert np.array(m.state).tobytes() == np.array(state_ref).tobytes()
    lanes = sorted(set(d))[:5]
    y_b, e_b = mod.run_const_grid(tf, lanes, len(d))
    for j, x in enumerate(lanes):
        y_ref, e_ref, _ = reference_run(tf, [x] * len(d))
        assert y_b[:, j].tobytes() == y_ref.tobytes()
        assert e_b[:, j].tobytes() == e_ref.tobytes()


@pytest.mark.parametrize("tf", ORACLE_NTFS,
                         ids=[f"ntf{i}-order{tf.order}" for i, tf in enumerate(ORACLE_NTFS)])
def test_const_grid_lanes_equal_reference_loop_bytes(tf):
    # One lane runs the float kernel: numpy's one-lane reduce sums eight or
    # more terms pairwise, which drifts from the loop from order 4 on.
    B = mod.LANE_BLOCK
    for lanes in ([0.37], [0.0, 0.963], np.linspace(0.0, 1.0, 45)):
        refs = [reference_run(tf, [x] * (B + 1))[:2] for x in lanes]
        for n_ticks in (0, 1, B - 1, B, B + 1):
            y, e = mod.run_const_grid(tf, lanes, n_ticks)
            assert (y.dtype, e.dtype) == (np.int8, np.float64)
            assert y.shape == e.shape == (n_ticks, len(lanes))
            for j, (y_ref, e_ref) in enumerate(refs):
                assert y[:, j].tobytes() == y_ref[:n_ticks].tobytes()
                assert e[:, j].tobytes() == e_ref[:n_ticks].tobytes()


def test_const_grid_memory_is_its_outputs_plus_a_block():
    grid = np.linspace(0.05, 0.95, 45)
    tracemalloc.start()
    try:
        y, e = mod.run_const_grid(NTF3, grid, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= y.nbytes + e.nbytes + 1_000_000


def test_determinism_bit_identical():
    d = mod.sinusoid_density(4096)
    y1, e1 = mod.run(NTF3, d)
    y2, e2 = mod.run(NTF3, d)
    assert np.array_equal(y1, y2)
    assert np.array_equal(e1, e2)


def test_gate_split_full_square_wave():
    s = mod.gate_split([1, 1, 1, 1])
    assert s.dtype == np.int8
    assert list(s) == [1, -1, 1, -1]
    # the leading leg conducts on s > 0, the lagging leg on s < 0
    assert list(s > 0) == [True, False, True, False]
    assert list(s < 0) == [False, True, False, True]


def test_gate_split_carrier_free_runs_through_skips():
    assert list(mod.gate_split([1, 1, 0, 1])) == [1, -1, 0, -1]


def test_gate_split_all_zero():
    assert not np.any(mod.gate_split([0, 0, 0]))


def test_gate_split_magnitude_matches_y():
    rng = np.random.default_rng(5)
    y = (rng.uniform(size=500) > 0.3).astype(int)
    s = mod.gate_split(y)
    assert np.array_equal(np.abs(s), y)
    assert np.array_equal(s == 0, y == 0)


def test_gate_split_leaves_its_input_unchanged():
    y, _ = mod.run(NTF3, 0.7, n_ticks=64)
    before = y.copy()
    mod.gate_split(y)
    assert np.array_equal(y, before)


@given(d=st.lists(st.floats(0.0, 1.0), max_size=300), tf=st.sampled_from([NTF1, NTF3]))
def test_fresh_modulator_steps_match_run(d, tf):
    m = mod.PulseDensityModulator(tf)
    assert m.state == (0.0,) * (2 * tf.order)
    stepped = [m.step(x) for x in d]
    assert all(type(y) is int for y in stepped)
    y, _ = mod.run(tf, d)
    assert np.array_equal(np.array(stepped, dtype=np.int8), y)
