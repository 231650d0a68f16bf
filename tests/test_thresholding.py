import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcorr import (
    SampleMatrix,
    ThresholdRule,
    ValidationError,
    apply_rule,
    apply_threshold,
    diff_corr_thresholds,
    diff_cov_thresholds,
    moment_set,
    single_corr_thresholds,
)
from diffcorr.thresholding import _noise, unit_thresholds
from oracles import naive_rule
from properties import check_rule_conditions


def _moments(seed, n=16, p=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) @ (rng.standard_normal((p, p)) + 2 * np.eye(p))
    return moment_set(SampleMatrix(x))


def test_soft_rule_example():
    assert apply_rule(ThresholdRule("soft"), 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_all_rules_kill_small_arguments():
    for kind in ("hard", "soft", "adaptive-lasso"):
        rule = ThresholdRule(kind)
        for z in (-1.0, -0.3, 0.0, 0.5, 1.0):
            assert apply_rule(rule, z, 1.0) == 0.0


def test_every_zero_output_is_positive_zero():
    # soft and adaptive-lasso kill a negative entry as z * 0, which is -0.0
    z = np.array([-2.0, -0.7, -0.5, -1e-300, -0.0, 0.0, 0.5, 0.7, 2.0])
    for kind in ("hard", "soft", "adaptive-lasso"):
        rule = ThresholdRule(kind)
        for lam in (0.0, 0.7, np.full(z.shape, 3.0)):
            out = apply_rule(rule, z, lam)
            assert not np.any(np.signbit(out[out == 0.0])), (kind, lam)
        for value in (-0.3, -0.0):
            assert math.copysign(1.0, apply_rule(rule, value, 1.0)) == 1.0
        est = apply_threshold(-np.ones((3, 3)), np.full((3, 3), 2.0), rule)
        assert not np.any(np.signbit(est))


def test_adaptive_lasso_example():
    # 2 * (1 - (1/2)^4) = 1.875
    assert apply_rule(ThresholdRule("adaptive-lasso", 4.0), 2.0, 1.0) == pytest.approx(
        1.875, abs=1e-15
    )


def test_adaptive_lasso_zero_input_convention():
    assert apply_rule(ThresholdRule("adaptive-lasso"), 0.0, 0.0) == 0.0
    assert apply_rule(ThresholdRule("adaptive-lasso"), 0.0, 1.0) == 0.0


def test_hard_rule_kills_boundary():
    assert apply_rule(ThresholdRule("hard"), 1.0, 1.0) == 0.0
    assert apply_rule(ThresholdRule("hard"), 1.0 + 1e-12, 1.0) == 1.0 + 1e-12


def test_rule_validation():
    with pytest.raises(ValidationError):
        ThresholdRule("scad")
    with pytest.raises(ValidationError):
        ThresholdRule("adaptive-lasso", eta=0.5)
    with pytest.raises(ValidationError, match="exponent"):
        ThresholdRule("adaptive-lasso", eta=float("nan"))
    assert ThresholdRule("adaptive-lasso", eta=float("inf")).eta == float("inf")
    with pytest.raises(ValidationError):
        apply_rule(ThresholdRule("soft"), 1.0, -0.1)


def test_rule_name_normalization():
    assert ThresholdRule("adaptive_lasso").kind == "adaptive-lasso"
    assert ThresholdRule("HARD").kind == "hard"


def test_conditions_grid():
    check_rule_conditions()


@settings(max_examples=200, deadline=None)
@given(
    z=st.floats(-50.0, 50.0),
    lam=st.floats(0.0, 50.0),
    kind=st.sampled_from(["hard", "soft", "adaptive-lasso"]),
)
def test_rules_match_scalar_oracle(z, lam, kind):
    got = apply_rule(ThresholdRule(kind), z, lam)
    assert got == pytest.approx(naive_rule(kind, z, lam), rel=1e-12, abs=1e-12)


def test_diff_corr_thresholds_zero_tau():
    m1, m2 = _moments(1), _moments(2)
    t = diff_corr_thresholds(m1, m2, 0.0)
    assert np.array_equal(t, np.zeros((3, 3)))


def test_diff_corr_thresholds_p1_log_term_vanishes():
    m1, m2 = _moments(3, p=1), _moments(4, p=1)
    t = diff_corr_thresholds(m1, m2, 2.0)
    assert t[0, 0] == 0.0  # log 1 = 0 by the formula's literal value


def test_diff_corr_thresholds_hand_evaluation():
    # columns +/-2, +/-3 and (1, -1, 3, -3): variances 4, 9, 5, cov_02 = 4 and
    # no other covariance, so corr_02 = 2 / sqrt(5). The centered cross
    # products give cov_noise 0, 0, 16 on the diagonal and 36, 4, 45 at
    # (0, 1), (0, 2), (1, 2); divided by the variance products, corr_noise is
    # 0, 0, 16/25 on the diagonal and 1, 1/5, 1 off it.
    x = np.array([[2.0, 3.0, 1.0], [-2.0, 3.0, -1.0], [2.0, -3.0, 3.0], [-2.0, -3.0, -3.0]])
    m1 = moment_set(SampleMatrix(x))
    m2 = moment_set(SampleMatrix(np.vstack([x, x])))  # the same statistics at n = 8
    tau = 0.7
    scale = tau * (math.sqrt(math.log(3) / 4) + math.sqrt(math.log(3) / 8))
    got = diff_corr_thresholds(m1, m2, tau)
    assert got[0, 0] == 0.0
    assert got[0, 1] == pytest.approx(scale * 1.0, rel=1e-12)
    assert got[0, 2] == pytest.approx(
        scale * (math.sqrt(0.2) + 0.5 * (2 / math.sqrt(5)) * (0.0 + 0.8)), rel=1e-12
    )
    assert got[2, 2] == pytest.approx(scale * (0.8 + 0.5 * (0.8 + 0.8)), rel=1e-12)


def test_diff_corr_thresholds_sample_size_scaling():
    m1, m2 = _moments(5), _moments(6)
    base = diff_corr_thresholds(m1, m2, 1.3)
    doubled = diff_corr_thresholds(
        replace(m1, n=2 * m1.n), replace(m2, n=2 * m2.n), 1.3
    )
    assert np.max(np.abs(doubled - base / math.sqrt(2.0))) < 1e-14


def test_diff_corr_thresholds_symmetric_and_dim_checked():
    m1, m2 = _moments(7), _moments(8)
    t = diff_corr_thresholds(m1, m2, 0.9)
    assert np.array_equal(t, t.T)
    with pytest.raises(ValidationError):
        diff_corr_thresholds(m1, _moments(9, p=2), 0.9)


def test_single_corr_thresholds_scaling():
    m = _moments(10)
    base = single_corr_thresholds(m, 1.0)
    quadrupled = single_corr_thresholds(replace(m, n=4 * m.n), 1.0)
    assert np.max(np.abs(quadrupled - base / 2.0)) < 1e-14
    assert np.array_equal(single_corr_thresholds(m, 0.0), np.zeros((3, 3)))


def test_single_group_levels_are_zero_on_the_diagonal():
    m1, m2 = _moments(20), _moments(21)
    for statistic in ("corr", "cov"):
        assert np.array_equal(np.diag(unit_thresholds(statistic, [m1])), np.zeros(3))
        # a difference thresholds its diagonal like any other entry
        assert np.all(np.diag(unit_thresholds(statistic, [m1, m2])) > 0.0)


def test_diff_cov_thresholds():
    m1, m2 = _moments(11), _moments(12)
    assert np.array_equal(diff_cov_thresholds(m1, m2, 0.0), np.zeros((3, 3)))

    # two +/-1 columns with a constant product: no centered product varies
    quiet = moment_set(SampleMatrix(np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])))
    assert np.array_equal(diff_cov_thresholds(quiet, quiet, 2.0), np.zeros((2, 2)))

    got = diff_cov_thresholds(m1, m2, 1.7)
    expected = 1.7 * (
        np.sqrt(math.log(3) / m1.n * _noise(m1, "cov"))
        + np.sqrt(math.log(3) / m2.n * _noise(m2, "cov"))
    )
    assert np.max(np.abs(got - expected)) < 1e-14


def test_diff_corr_thresholds_scale_invariant_in_data():
    rng = np.random.default_rng(14)
    x1 = rng.standard_normal((20, 4))
    x2 = rng.standard_normal((22, 4))
    scales = rng.uniform(0.5, 3.0, size=4)
    base = diff_corr_thresholds(
        moment_set(SampleMatrix(x1)), moment_set(SampleMatrix(x2)), 1.2
    )
    rescaled = diff_corr_thresholds(
        moment_set(SampleMatrix(x1 * scales)), moment_set(SampleMatrix(x2 * scales)), 1.2
    )
    assert np.max(np.abs(rescaled - base)) < 1e-10


def test_apply_threshold_identity_when_zero():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    zero = np.zeros((4, 4))
    assert np.array_equal(apply_threshold(m, zero, ThresholdRule("soft")), m)


def test_apply_threshold_kills_everything_above_max():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3))
    big = np.full((3, 3), np.max(np.abs(m)) + 1.0)
    for kind in ("hard", "soft", "adaptive-lasso"):
        assert np.array_equal(apply_threshold(m, big, ThresholdRule(kind)), np.zeros((3, 3)))


def test_apply_threshold_entrywise_oracle():
    m = np.array([[0.5, -2.0, 1.1], [3.0, -0.2, 0.0], [1.5, 2.5, -4.0]])
    t = np.array([[1.0, 1.0, 1.2], [2.0, 0.1, 0.5], [1.5, 3.0, 3.5]])
    got = apply_threshold(m, t, ThresholdRule("hard"))
    expected = np.array(
        [[naive_rule("hard", m[i, j], t[i, j]) for j in range(3)] for i in range(3)]
    )
    assert np.array_equal(got, expected)


def test_apply_threshold_shape_mismatch():
    with pytest.raises(ValidationError):
        apply_threshold(np.zeros((2, 2)), np.zeros((3, 3)), ThresholdRule("soft"))


def test_apply_threshold_rejects_negative_or_non_finite_levels():
    for level in (-0.1, np.nan, np.inf):
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            apply_threshold(np.ones((1, 1)), np.array([[level]]), ThresholdRule("soft"))
