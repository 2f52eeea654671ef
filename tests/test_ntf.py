"""Noise transfer function construction, evaluation, and design checks."""

import cmath
import math

import numpy as np
import pytest

from tsepdm import ntf


def factored_ntf3(z, rho, r):
    """Independent oracle: evaluate the third-order notch NTF from its factors."""
    z1 = cmath.exp(1j * math.pi * rho)
    z2 = cmath.exp(-1j * math.pi * rho)
    num = (z - 1.0) * (z - z1) * (z - z2)
    den = (z - r) * (z - r * z1) * (z - r * z2)
    return num / den


def test_first_order_coefficients():
    tf = ntf.build_first_order()
    assert tf.num == (1.0, -1.0)
    assert tf.den == (1.0, 0.0)
    assert tf.order == 1


def test_first_order_point_values():
    tf = ntf.build_first_order()
    assert ntf.evaluate(tf, 1.0) == 0.0
    # 1 - 1/z at z = -1 gives 2
    assert ntf.evaluate(tf, -1.0) == pytest.approx(2.0, abs=1e-15)


def test_third_order_expected_coefficients():
    tf = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9))
    c = math.cos(0.075 * math.pi)
    assert np.allclose(tf.num, [1.0, -(1 + 2 * c), (1 + 2 * c), -1.0], atol=1e-15)
    assert np.allclose(tf.den, [1.0, -0.9 * (1 + 2 * c), 0.81 * (1 + 2 * c), -0.729],
                       atol=1e-15)
    # Five-decimal reference expansion with cos(0.075 pi) ~ 0.97237
    assert np.allclose(tf.num, [1.0, -2.94474, 2.94474, -1.0], atol=5e-6)
    assert np.allclose(tf.den, [1.0, -2.65027, 2.38524, -0.729], atol=5e-6)


def test_third_order_cosine_vanishes_at_half():
    tf = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=0.5, pole_radius=0.9))
    assert np.allclose(tf.num, [1.0, -1.0, 1.0, -1.0], atol=1e-15)


def test_third_order_dc_gain_is_zero():
    tf = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9))
    assert abs(ntf.evaluate(tf, 1.0)) < 1e-12


def test_third_order_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ntf.NtfDesignSpec(notch_ratio=1.5)
    with pytest.raises(ValueError):
        ntf.NtfDesignSpec(notch_ratio=0.0)
    with pytest.raises(ValueError):
        ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=1.0)
    with pytest.raises(ValueError):
        ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=-0.1)


def test_expansion_matches_factored_form_at_random_points():
    rho, r = 0.075, 0.9
    tf = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=rho, pole_radius=r))
    rng = np.random.default_rng(20250817)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        expected = factored_ntf3(z, rho, r)
        got = ntf.evaluate(tf, z)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_notch_zero_on_unit_circle():
    tf = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9))
    z = cmath.exp(1j * math.pi * 0.075)
    assert abs(ntf.evaluate(tf, z)) < 1e-12
    assert abs(ntf.evaluate(tf, z.conjugate())) < 1e-12


def test_evaluate_off_notch_matches_direct_substitution():
    rho, r = 0.075, 0.9
    tf = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=rho, pole_radius=r))
    z = cmath.exp(1j * math.pi * 0.2)
    expected = factored_ntf3(z, rho, r)
    got = ntf.evaluate(tf, z)
    assert abs(got) > 1e-3
    assert abs(got - expected) < 1e-12


def test_evaluate_near_pole_raises():
    tf = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9))
    with pytest.raises(ntf.PoleEvaluationError):
        ntf.evaluate(tf, 0.9)


def test_zero_and_pole_radii():
    spec = ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9)
    tf = ntf.build_third_order(spec)
    zeros, poles = ntf.zeros_poles(tf)
    assert np.allclose(np.abs(zeros), 1.0, atol=1e-12)
    assert np.allclose(np.abs(poles), 0.9, atol=1e-12)


def test_zero_pole_radii_over_parameter_range():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rho = rng.uniform(0.02, 0.98)
        r = rng.uniform(0.05, 0.95)
        tf = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=rho, pole_radius=r))
        zeros, poles = ntf.zeros_poles(tf)
        assert np.allclose(np.abs(zeros), 1.0, atol=1e-10)
        assert np.allclose(np.abs(poles), r, atol=1e-10)


def test_requirements_pass_for_third_order():
    spec = ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9)
    report = ntf.check_requirements(ntf.build_third_order(spec), spec)
    assert report.dc_gain_zero and report.realizable and report.notch_ok


def test_requirements_pass_over_parameter_range():
    rng = np.random.default_rng(11)
    for _ in range(25):
        spec = ntf.NtfDesignSpec(notch_ratio=rng.uniform(0.02, 0.98),
                                 pole_radius=rng.uniform(0.05, 0.95))
        report = ntf.check_requirements(ntf.build_third_order(spec), spec)
        assert report.dc_gain_zero and report.realizable and report.notch_ok, report.notes


def test_requirements_first_order_fails_notch():
    spec = ntf.NtfDesignSpec(notch_ratio=0.075)
    report = ntf.check_requirements(ntf.build_first_order(), spec)
    assert report.dc_gain_zero
    assert report.realizable
    assert not report.notch_ok
    # |1 - exp(-j pi rho)| = 2 sin(pi rho / 2)
    assert report.notch_gain == pytest.approx(2 * math.sin(math.pi * 0.075 / 2), abs=1e-12)


def test_requirements_constant_one_fails_dc():
    tf = ntf.RationalTransferFunction(num=(1.0,), den=(1.0,))
    report = ntf.check_requirements(tf, ntf.NtfDesignSpec(notch_ratio=0.075))
    assert not report.dc_gain_zero
    assert report.dc_residual == pytest.approx(1.0)


def test_error_filter_first_order():
    h = ntf.to_error_filter(ntf.build_first_order())
    assert h.num == (1.0,)
    assert h.den == (1.0, 0.0)


def test_error_filter_third_order_expected_coefficients():
    spec = ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9)
    h = ntf.to_error_filter(ntf.build_third_order(spec))
    c = math.cos(0.075 * math.pi)
    expected = [0.1 * (1 + 2 * c), -0.19 * (1 + 2 * c), 1.0 - 0.729]
    assert np.allclose(h.num, expected, atol=1e-12)
    assert np.allclose(h.num, [0.29447, -0.55950, 0.271], atol=5e-6)
    assert h.den == ntf.build_third_order(spec).den


def test_error_filter_of_unity_is_zero():
    h = ntf.to_error_filter(ntf.RationalTransferFunction(num=(1.0,), den=(1.0,)))
    assert h.num == (0.0,)


def test_error_filter_rejects_unrealizable():
    # NTF(inf) = 0: strictly proper input has no valid error filter
    tf = ntf.RationalTransferFunction(num=(1.0,), den=(1.0, 0.0))
    with pytest.raises(ValueError):
        ntf.to_error_filter(tf)


@pytest.mark.parametrize("num, realizable", [
    ((1.0, -1.0), True), ((1.0 + 1e-13, -1.0), True), ((1.0 + 1e-11, -1.0), False),
    ((2.0, -1.0), False), ((1.0,), False)])
def test_requirement_check_and_error_filter_share_one_realizability_rule(num, realizable):
    tf = ntf.RationalTransferFunction(num=num, den=(1.0, 0.0))
    report = ntf.check_requirements(tf, ntf.NtfDesignSpec(0.075))
    assert report.realizable is realizable
    if realizable:
        ntf.to_error_filter(tf)
    else:
        with pytest.raises(ValueError, match="not realizable"):
            ntf.to_error_filter(tf)


def test_error_filter_complements_ntf_pointwise():
    rng = np.random.default_rng(3)
    for tf in (ntf.build_first_order(),
               ntf.build_third_order(ntf.NtfDesignSpec(0.075)),
               ntf.build_third_order(ntf.NtfDesignSpec(0.3, 0.5))):
        h = ntf.to_error_filter(tf)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                total = ntf.evaluate(tf, z) + ntf.evaluate(h, z)
            except ntf.PoleEvaluationError:
                continue
            assert abs(total - 1.0) < 1e-10


def test_bode_grid_and_values():
    tf1 = ntf.build_first_order()
    rows = ntf.bode_data(tf1, 200)
    assert rows.shape == (200, 3)
    assert rows[0, 0] == pytest.approx(1 / 200)
    assert rows[-1, 0] == pytest.approx(1.0)
    # at ratio 1 (z = -1): |1 - 1/z| = 2 -> 6.02 dB
    assert rows[-1, 1] == pytest.approx(20 * math.log10(2.0), abs=1e-9)
    # low-frequency magnitude dives toward the dc zero
    assert rows[0, 1] < -30.0


def test_bode_notch_clamped_to_floor():
    tf = ntf.build_third_order(ntf.NtfDesignSpec(notch_ratio=0.075, pole_radius=0.9))
    rows = ntf.bode_data(tf, 200)
    idx = np.argmin(np.abs(rows[:, 0] - 0.075))
    assert rows[idx, 0] == pytest.approx(0.075)
    assert rows[idx, 1] <= -180.0  # exact zero clamps to the -200 dB floor


def test_bode_rejects_single_point():
    with pytest.raises(ValueError):
        ntf.bode_data(ntf.build_first_order(), 1)


def test_transfer_function_invariants_enforced():
    with pytest.raises(ValueError):
        ntf.RationalTransferFunction(num=(1.0, 0.0), den=(2.0, 0.0))  # not monic
    with pytest.raises(ValueError):
        ntf.RationalTransferFunction(num=(1.0, 0.0, 0.0), den=(1.0, 0.0))  # degree
    with pytest.raises(ValueError):
        ntf.RationalTransferFunction(num=(float("nan"),), den=(1.0,))


@pytest.mark.parametrize("num, den, message", [
    ((1.0,), (), "denominator must be non-empty"), ((), (1.0,), "numerator must be non-empty")])
def test_transfer_function_refuses_empty_coefficients(num, den, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ntf.RationalTransferFunction(num=num, den=den)
