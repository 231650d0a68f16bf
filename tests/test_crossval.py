import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcorr import (
    CvConfig,
    DegenerateSplitError,
    SampleMatrix,
    ThresholdRule,
    TwoGroupDataset,
    ValidationError,
    cv_select_tau,
    cv_select_tau_single,
    estimate_diff_corr,
    generate_pair,
    mvn_sample,
    scale_to_covariance,
)
from diffcorr import test_equality as run_equality_test
from diffcorr import thresholding
from diffcorr.crossval import _draw_split, _loss_curve
from diffcorr.thresholding import apply_rule
from oracles import naive_cv_diff_corr
from properties import check_cv_determinism, gaussian_dataset


def _model2_dataset(p=30, n=50, seed=0):
    r1, r2 = generate_pair("model2", p)
    s1 = scale_to_covariance(r1, seed)
    s2 = scale_to_covariance(r2, seed + 1)
    return TwoGroupDataset(
        mvn_sample(s1, n, seed + 2), mvn_sample(s2, n, seed + 3)
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        CvConfig(k_folds=1)
    with pytest.raises(ValidationError):
        CvConfig(h_repeats=0)
    with pytest.raises(ValidationError):
        CvConfig(grid_n=0)
    with pytest.raises(ValidationError):
        CvConfig(seed=-1)


def test_grid_shape():
    assert np.array_equal(CvConfig(grid_n=1).grid(), np.arange(6.0))
    grid = CvConfig(grid_n=50).grid()
    assert len(grid) == 251 and grid[0] == 0.0 and grid[-1] == 5.0
    assert grid[1] == pytest.approx(0.02)


def test_split_partition():
    rng = np.random.default_rng(0)
    for n, n_test in ((10, 2), (17, 3), (50, 10)):
        train, test = _draw_split(rng, n, n_test)
        assert len(train) == n - n_test and len(test) == n_test
        assert sorted(list(train) + list(test)) == list(range(n))


def test_argmin_property():
    ds = gaussian_dataset(1, p=4, n1=24, n2=24)
    result = cv_select_tau(ds, CvConfig(grid_n=10, seed=7))
    at_hat = result.losses[list(result.grid).index(result.tau_hat)]
    assert np.all(at_hat <= result.losses)
    assert np.all(result.losses >= 0.0)


def test_coarse_grid_membership():
    ds = gaussian_dataset(2, p=4, n1=20, n2=20)
    result = cv_select_tau(ds, CvConfig(grid_n=1, seed=3))
    assert result.tau_hat in {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}
    assert len(result.grid) == 6


def test_determinism():
    check_cv_determinism()


@pytest.mark.parametrize("kind", ["hard", "soft", "adaptive-lasso"])
def test_matches_naive_reimplementation(kind):
    ds = _model2_dataset()
    cfg = CvConfig(k_folds=5, h_repeats=3, grid_n=10, seed=42)
    result = cv_select_tau(ds, cfg, "diff-corr", rule=ThresholdRule(kind))
    tau_naive, grid_naive, losses_naive = naive_cv_diff_corr(
        ds.group1.data, ds.group2.data, 5, 3, 10, 42, kind
    )
    assert result.tau_hat == tau_naive
    assert np.allclose(result.grid, grid_naive, atol=1e-12)
    scale = max(1.0, float(np.max(np.abs(losses_naive))))
    assert np.max(np.abs(result.losses - np.array(losses_naive))) < 1e-9 * scale


def test_degenerate_split_raises():
    rng = np.random.default_rng(5)
    data = np.column_stack([rng.standard_normal(12), np.full(12, 3.0)])
    sm = SampleMatrix(data)
    ds = TwoGroupDataset(sm, sm)
    with pytest.raises(DegenerateSplitError):
        cv_select_tau(ds, CvConfig(k_folds=3, h_repeats=1, grid_n=1))


def test_too_small_groups_rejected():
    rng = np.random.default_rng(6)
    sm = SampleMatrix(rng.standard_normal((5, 3)))
    ds = TwoGroupDataset(sm, sm)
    with pytest.raises(ValidationError):
        cv_select_tau(ds, CvConfig(k_folds=5))  # test part would have one row


def test_unknown_kind_and_missing_split():
    ds = gaussian_dataset(7, p=4, n1=20, n2=20)
    with pytest.raises(ValidationError):
        cv_select_tau(ds, CvConfig(), "bogus")
    with pytest.raises(ValidationError):
        cv_select_tau(ds, CvConfig(), "cross-corr")
    for kind in ("diff-corr", "diff-cov"):  # only cross-corr takes a split
        with pytest.raises(ValidationError, match="only to cross-corr"):
            cv_select_tau(ds, CvConfig(), kind, split=3)
    with pytest.raises(ValidationError):
        cv_select_tau_single(ds.group1, CvConfig(), "diff-corr")


def test_single_sample_kinds_run():
    rng = np.random.default_rng(8)
    x = SampleMatrix(rng.standard_normal((40, 5)))
    for kind in ("single-corr", "cov-threshold"):
        result = cv_select_tau_single(x, CvConfig(grid_n=5, seed=1), kind)
        assert 0.0 <= result.tau_hat <= 5.0
        assert np.all(np.isfinite(result.losses))


def test_cv_backed_estimate_refits_on_full_data():
    ds = _model2_dataset(p=12, n=40, seed=9)
    cfg = CvConfig(grid_n=5, seed=11)
    est = estimate_diff_corr(ds, None, ThresholdRule("soft"), cfg)
    assert est.cv is not None
    assert est.tau == est.cv.tau_hat
    fixed = estimate_diff_corr(ds, est.tau, ThresholdRule("soft"))
    assert np.array_equal(est.estimate, fixed.estimate)


def test_estimator_cross_validates_the_rule_it_fits():
    ds = _model2_dataset(p=12, n=40, seed=9)
    cfg = CvConfig(grid_n=5, seed=11)
    hard = ThresholdRule("hard")
    est = estimate_diff_corr(ds, None, hard, cfg)
    assert np.array_equal(est.cv.losses, cv_select_tau(ds, cfg, rule=hard).losses)
    # the default rule scores a different curve, so the comparison is not vacuous
    assert not np.array_equal(est.cv.losses, cv_select_tau(ds, cfg).losses)


def _curve_by_fitting(rule, raw, unit, target, grid):
    """The loss curve the slow way: fit at every tau and score."""
    losses = []
    for tau in grid:
        dev = apply_rule(rule, raw, tau * unit) - target
        losses.append(float(np.sum(dev * dev)))
    return np.array(losses)


CURVE_RULES = [ThresholdRule("hard"), ThresholdRule("soft")] + [
    ThresholdRule("adaptive-lasso", eta) for eta in (1.0, 4.0, 10.0, 300.0)
]


@pytest.mark.parametrize("grid_n", [1, 50, 200])
@pytest.mark.parametrize("rule", CURVE_RULES, ids=lambda r: f"{r.kind}-{r.eta:g}")
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_loss_curve_matches_fitting_at_every_tau(rule, grid_n, seed):
    rng = np.random.default_rng(seed)
    grid = CvConfig(grid_n=grid_n).grid()
    p = 6
    raw = 0.5 * rng.standard_normal((p, p))
    unit = 0.3 * np.abs(rng.standard_normal((p, p)))
    target = 0.5 * rng.standard_normal((p, p))
    raw[0, 1] = 0.0  # zero entry
    unit[0, 2] = 0.0  # kept at every tau
    raw[1, 0] = unit[1, 0] = 0.0  # killed at every tau
    raw[0, 3] = 1e-300  # kept only at tau = 0
    unit[3, 0] = 5e-324  # |z| / u overflows to inf
    for i, j in ((2, 3), (4, 5), (5, 5), (1, 1)):  # |z| exactly at a grid level
        g = rng.integers(len(grid))
        raw[i, j] = rng.choice([-1.0, 1.0]) * (grid[g] * unit[i, j])
    single = unit.copy()
    np.fill_diagonal(single, 0.0)  # a single group's levels keep the raw diagonal
    for levels in (unit, single):
        want = _curve_by_fitting(rule, raw, levels, target, grid)
        got = _loss_curve(rule, raw, levels, target, grid)
        tol = 1e-12 * np.max(want)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= tol
        # tau_hat is the first minimiser. When several grid points lie within
        # rounding of the minimum (eta = 300 shrinks by less than an ulp over
        # long runs of the grid), either curve may pick any of them.
        tied = want <= np.min(want) + tol
        if np.count_nonzero(tied) == 1:
            assert np.argmin(got) == np.argmin(want)
        else:
            assert tied[np.argmin(got)]


def test_only_training_parts_compute_noise(monkeypatch):
    shapes = []
    product_variance = thresholding._product_variance

    def counted(c, cov):
        shapes.append(c.shape)
        return product_variance(c, cov)

    monkeypatch.setattr(thresholding, "_product_variance", counted)
    ds = gaussian_dataset(0, p=4, n1=20, n2=20)
    cfg = CvConfig(h_repeats=3)
    # a training part keeps 16 of the 20 rows, a held-out part 4
    cv_select_tau(ds, cfg)
    assert shapes == [(16, 4)] * 6
    shapes.clear()
    cv_select_tau_single(ds.group1, cfg)
    assert shapes == [(16, 4)] * 3
    shapes.clear()
    run_equality_test(ds)
    assert shapes == []
