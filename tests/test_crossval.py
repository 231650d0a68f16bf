import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcorr import (
    CvConfig,
    DegenerateSplitError,
    DegenerateVariableError,
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
from diffcorr import crossval, moments, thresholding
from diffcorr.crossval import _draw_split, _loss_curve
from diffcorr.estimators import _fit
from diffcorr.thresholding import KINDS, RULE_NAMES, apply_rule
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
        (got,) = _loss_curve((rule,), grid, [(1.0, raw, levels, target)])
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


def _blocked_dataset(p, seed=None):
    rng = np.random.default_rng(p if seed is None else seed)
    x1 = rng.standard_normal((30, p))
    x2 = rng.standard_normal((25, p)) @ (np.eye(p) + 0.3 * rng.standard_normal((p, p)))
    return TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))


def _cv(ds, kind, split, rule, cfg):
    if KINDS[kind].two_group:
        return cv_select_tau(ds, cfg, kind, split, rule)
    return cv_select_tau_single(ds.group1, cfg, kind, rule)


@pytest.mark.parametrize("p", range(7, 14))
def test_cv_in_row_blocks_matches_one_block(p, monkeypatch):
    ds = _blocked_dataset(p)
    cfg = CvConfig(h_repeats=2, grid_n=10, seed=p)
    cases = [
        (kind, split)
        for kind, spec in KINDS.items()
        for split in ((1, p - 1) if spec.cross_block else (None,))
    ]
    for rule in map(ThresholdRule, RULE_NAMES):
        tau_naive, _, losses_naive = naive_cv_diff_corr(
            ds.group1.data, ds.group2.data, 5, 2, 10, p, rule.kind
        )
        monkeypatch.setattr(moments, "_BLOCK_ROWS", p)  # one block: the full matrices
        whole = {case: _cv(ds, *case, rule, cfg) for case in cases}
        # the last block takes any shorter remainder: p // 2 rows make two
        # blocks, the second one row longer for odd p; p - 1 rows make one
        for rows in (1, 2, 3, p // 2, p - 1):
            monkeypatch.setattr(moments, "_BLOCK_ROWS", rows)
            for case in cases:
                got, want = _cv(ds, *case, rule, cfg), whole[case]
                assert got.tau_hat == want.tau_hat, (rule.kind, case, rows)
                assert np.max(np.abs(got.losses - want.losses)) <= 1e-12 * np.max(want.losses)
                if case == ("diff-corr", None):
                    assert got.tau_hat == tau_naive
                    scale = max(1.0, float(np.max(np.abs(losses_naive))))
                    assert np.max(np.abs(got.losses - losses_naive)) < 1e-9 * scale


def test_hard_curve_keeps_its_plateaus_in_row_blocks(monkeypatch):
    ds = _blocked_dataset(11)
    cfg = CvConfig(h_repeats=2, grid_n=50, seed=3)
    hard = ThresholdRule("hard")
    monkeypatch.setattr(moments, "_BLOCK_ROWS", 11)
    want = cv_select_tau(ds, cfg, rule=hard).losses
    flat = np.diff(want) == 0.0
    # runs of equal losses: the grid points between two changes of the support
    plateaus = np.split(np.arange(want.size), np.flatnonzero(~flat) + 1)
    assert sum(len(run) > 1 for run in plateaus) >= 3
    for rows in (1, 2, 3, 5):
        monkeypatch.setattr(moments, "_BLOCK_ROWS", rows)
        got = cv_select_tau(ds, cfg, rule=hard).losses
        for run in plateaus:
            assert np.array_equal(got[run], np.full(len(run), got[run[0]]))
        assert np.array_equal(np.diff(got) == 0.0, flat)
        assert np.argmin(got) == np.argmin(want)


def _replayed_draws(samples, cfg):
    """(draws, failed draws) of the split protocol replayed with numpy: per
    repetition and attempt one permutation per group, in group order, until a
    group's training or held-out part has a constant column."""
    draws = failed = 0
    for h in range(cfg.h_repeats):
        rng = np.random.default_rng([cfg.seed, h])
        for _ in range(10):
            for x in samples:
                perm = rng.permutation(x.n)
                draws += 1
                parts = np.split(perm, [x.n // cfg.k_folds])
                if any(np.any(np.ptp(x.data[part], axis=0) == 0.0) for part in parts):
                    failed += 1
                    break
            else:
                break
    return draws, failed


def _count_draws(monkeypatch):
    calls = {"draws": 0, "failed": 0}
    draw_folds = crossval._draw_folds

    def counted(*args):
        calls["draws"] += 1
        try:
            return draw_folds(*args)
        except DegenerateVariableError:
            calls["failed"] += 1
            raise

    monkeypatch.setattr(crossval, "_draw_folds", counted)
    return calls


def test_zero_variance_fold_in_the_second_group_is_redrawn(monkeypatch):
    ds = _blocked_dataset(9, seed=21)
    x2 = ds.group2.data.copy()
    # column 3 varies only through rows 4 and 11: a part holding both or
    # neither of them has a zero variance there
    x2[:, 3] = 0.0
    x2[[4, 11], 3] = (1.0, -1.0)
    ds = TwoGroupDataset(ds.group1, SampleMatrix(x2))
    cfg = CvConfig(h_repeats=3, grid_n=10, seed=5)
    calls = _count_draws(monkeypatch)
    for rows in (2, 9):
        monkeypatch.setattr(moments, "_BLOCK_ROWS", rows)
        calls.update(draws=0, failed=0)
        result = cv_select_tau(ds, cfg, rule=ThresholdRule("soft"))
        draws, failed = _replayed_draws([ds.group1, ds.group2], cfg)
        assert failed > 0
        assert (calls["draws"], calls["failed"]) == (draws, failed)
        tau_naive, _, losses_naive = naive_cv_diff_corr(
            ds.group1.data, x2, 5, 3, 10, 5, "soft"
        )
        assert result.tau_hat == tau_naive
        assert np.max(np.abs(result.losses - losses_naive)) < 1e-9 * np.max(losses_naive)
    # varying through one row only, every split leaves a part constant
    x2[11, 3] = 0.0
    ds = TwoGroupDataset(ds.group1, SampleMatrix(x2))
    calls.update(draws=0, failed=0)
    with pytest.raises(DegenerateSplitError, match="repetition 0: every one of 10"):
        cv_select_tau(ds, cfg)
    assert (calls["draws"], calls["failed"]) == (20, 10)


def test_shared_fold_parts_give_the_same_results_under_redraws(monkeypatch):
    # column 3 of group 2 varies only through rows 4 and 11, so folds are
    # redrawn; within a shared scope the CVs of both kinds reuse each part
    ds = _blocked_dataset(9, seed=21)
    x2 = ds.group2.data.copy()
    x2[:, 3] = 0.0
    x2[[4, 11], 3] = (1.0, -1.0)
    ds = TwoGroupDataset(ds.group1, SampleMatrix(x2))
    cfg = CvConfig(h_repeats=3, grid_n=10, seed=5)
    rules = (ThresholdRule("hard"), ThresholdRule("soft"))
    calls = _count_draws(monkeypatch)
    computed = []
    sample_moments = moments.sample_moments
    monkeypatch.setattr(moments, "sample_moments", lambda *a: computed.append(a) or sample_moments(*a))

    def results():
        computed.clear()
        return [cv_select_tau(ds, cfg, rule=rules), cv_select_tau_single(ds.group2, cfg, rule=rules),
                cv_select_tau_single(ds.group1, cfg, rule=rules)]

    alone, unshared = results(), len(computed)
    assert calls["failed"] > 0
    with moments._shared_moments():
        shared = results()
    assert len(computed) < unshared  # group 1's parts are diff-corr's
    for a, b in zip(alone, shared):
        assert np.array_equal(a.tau_hat, b.tau_hat)
        assert a.losses.tobytes() == b.losses.tobytes()


def test_fold_parts_keep_their_variances_on_every_block_diagonal(monkeypatch):
    # every block moment set CV reads, of a training or a held-out part,
    # carries its columns' variances on its covariance diagonal, as a full set does
    seen = []
    raw = thresholding.EstimatorKind.raw

    def spy(spec, sets):
        seen.extend(sets)
        return raw(spec, sets)

    monkeypatch.setattr(thresholding.EstimatorKind, "raw", spy)
    ds = _blocked_dataset(150, seed=22)  # blocks of 64 and 86 rows
    cfg = CvConfig(h_repeats=2, grid_n=10, seed=6)
    for kind, spec in KINDS.items():
        _cv(ds, kind, 70 if spec.cross_block else None, ThresholdRule("hard"), cfg)
    assert {m.cov.shape[0] for m in seen} >= {64, 86}
    for m in seen:
        assert np.array_equal(np.diag(m.cov), m.var[:m.cov.shape[0]])


def test_cov_kinds_form_no_correlation(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cov kind formed correlation rows")

    monkeypatch.setattr(moments, "_correlation", refuse)
    monkeypatch.setattr(moments, "_BLOCK_ROWS", 3)  # several blocks at p = 10
    ds = gaussian_dataset(33, p=10, n1=30, n2=26)
    cfg = CvConfig(h_repeats=2, grid_n=20, seed=4)
    rules = (ThresholdRule("hard"), ThresholdRule("adaptive-lasso"))
    cv_select_tau(ds, cfg, "diff-cov", None, rules)
    cv_select_tau_single(ds.group1, cfg, "cov-threshold", rules)
    for tau in (None, 0.5):
        _fit("diff-cov", ds, tau, rules, cfg)
        _fit("cov-threshold", ds.group2, tau, rules, cfg)
    with pytest.raises(AssertionError, match="correlation rows"):
        cv_select_tau(ds, cfg, "diff-corr")


def test_cv_working_set_stays_below_four_p_by_p_arrays():
    p = 800
    rng = np.random.default_rng(0)
    ds = TwoGroupDataset(
        SampleMatrix(rng.standard_normal((60, p))), SampleMatrix(rng.standard_normal((60, p)))
    )
    tracemalloc.start()
    try:
        cv_select_tau(ds, CvConfig(h_repeats=1, grid_n=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the folds' full covariance, correlation and noise matrices would be
    # about 20 p x p arrays
    assert peak < 4 * p * p * 8


@pytest.mark.parametrize("rules", [
    ("hard",), ("soft",), (("adaptive-lasso", 4.0),), ("hard", "adaptive-lasso"),
    ("soft", ("adaptive-lasso", 1.0)), ("hard", "soft", ("adaptive-lasso", 2.0)),
], ids=str)
def test_one_pass_gives_every_rule_its_own_curve_bit_for_bit(rules):
    rules = tuple(ThresholdRule(*r) if isinstance(r, tuple) else ThresholdRule(r) for r in rules)
    rng = np.random.default_rng(len(rules))
    grid = CvConfig(grid_n=20).grid()
    # three parts of different weights and shapes, as row blocks give them
    parts = []
    for weight, shape in ((1.0, (4, 9)), (2.0, (4, 5)), (2.0, (3, 1))):
        raw = 0.5 * rng.standard_normal(shape)
        unit = 0.3 * np.abs(rng.standard_normal(shape))
        unit[0, 0] = 0.0  # kept at every tau
        parts.append((weight, raw, unit, 0.5 * rng.standard_normal(shape)))
    curves = _loss_curve(rules, grid, parts)
    assert curves.shape == (len(rules), len(grid))
    for rule, curve in zip(rules, curves):
        (alone,) = _loss_curve((rule,), grid, parts)
        assert np.array_equal(curve, alone), rule


def test_cv_of_a_rule_tuple_equals_one_call_per_rule(monkeypatch):
    p = 11
    ds = _blocked_dataset(p)
    cfg = CvConfig(h_repeats=2, grid_n=20, seed=4)
    rules = (ThresholdRule("soft"), ThresholdRule("hard"), ThresholdRule("adaptive-lasso", 2.0))
    cases = [
        (kind, split)
        for kind, spec in KINDS.items()
        for split in ((1, p - 1) if spec.cross_block else (None,))
    ]
    monkeypatch.setattr(moments, "_BLOCK_ROWS", 4)  # blocks of 4, 4 and 3 rows
    for case in cases:
        for chosen in (rules, rules[1:], rules[:1]):
            together = _cv(ds, *case, chosen, cfg)
            assert together.tau_hat.shape == (len(chosen),)
            assert together.losses.shape == (len(chosen), len(together.grid))
            assert together.splits_used == cfg.h_repeats
            for i, rule in enumerate(chosen):
                alone = _cv(ds, *case, rule, cfg)
                assert isinstance(alone.tau_hat, float)
                assert together.tau_hat[i] == alone.tau_hat, (case, rule)
                assert np.array_equal(together.losses[i], alone.losses), (case, rule)
                assert np.array_equal(together.grid, alone.grid)


def test_rule_tuples_need_distinct_kinds():
    ds = _blocked_dataset(5)
    for bad in ((), (ThresholdRule("hard"), ThresholdRule("hard")),
                (ThresholdRule("adaptive-lasso", 2.0), ThresholdRule("adaptive-lasso"))):
        with pytest.raises(ValidationError, match="distinct kinds"):
            cv_select_tau(ds, CvConfig(h_repeats=1), rule=bad)
        with pytest.raises(ValidationError, match="distinct kinds"):
            cv_select_tau_single(ds.group1, CvConfig(h_repeats=1), rule=bad)
