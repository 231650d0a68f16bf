import tracemalloc

import numpy as np
import pytest

from diffcorr import (
    CvConfig,
    DifferentialEstimate,
    SampleMatrix,
    ThresholdRule,
    TwoGroupDataset,
    ValidationError,
    apply_threshold,
    baseline_cov_then_normalize,
    baseline_sample_difference,
    baseline_separate_corr,
    diff_corr_thresholds,
    diff_cov_thresholds,
    estimate_cross_corr,
    estimate_diff_corr,
    estimate_diff_cov,
    estimate_single_corr,
    moment_set,
    single_corr_thresholds,
    support_ranking,
)
from diffcorr import test_equality as run_equality_test
from diffcorr.estimators import _fit
from diffcorr.thresholding import KINDS, _cov_thresholds
from oracles import (
    naive_cov_then_normalize,
    naive_estimate_cross_corr,
    naive_estimate_diff_corr,
    naive_estimate_diff_cov,
    naive_estimate_single_corr,
    naive_rule,
    naive_sample_difference,
    naive_separate_corr,
    naive_statistics_and_unit_levels,
)
from properties import check_estimator_invariances, check_monotone_support, gaussian_dataset

SOFT = ThresholdRule("soft")
HARD = ThresholdRule("hard")
AL = ThresholdRule("adaptive-lasso")


def _same_group_dataset(seed=0, n=15, p=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) @ (rng.standard_normal((p, p)) + 2 * np.eye(p))
    sm = SampleMatrix(x)
    return TwoGroupDataset(sm, sm)


def test_diff_corr_identical_groups_is_zero():
    ds = _same_group_dataset()
    for tau in (0.0, 0.5, 3.0):
        est = estimate_diff_corr(ds, tau, SOFT)
        assert np.array_equal(est.estimate, np.zeros((4, 4)))
    assert estimate_diff_corr(ds, 1.0, SOFT).nonzero_count() == 0


def test_diff_corr_large_tau_kills_everything():
    ds = gaussian_dataset(10, p=4, n1=25, n2=25)
    est = estimate_diff_corr(ds, 1e8, SOFT)
    lam = diff_corr_thresholds(moment_set(ds.group1), moment_set(ds.group2), 1e8)
    assert np.all(lam[~np.eye(4, dtype=bool)] > 2.0)
    assert np.array_equal(est.estimate, np.zeros((4, 4)))


def test_overflowing_noise_levels_are_rejected():
    # at 1e150 the covariance noise levels, corr_noise_ij var_i var_j, overflow
    rng = np.random.default_rng(16)
    ds = TwoGroupDataset(
        SampleMatrix(rng.standard_normal((20, 4)) * 1e150),
        SampleMatrix(rng.standard_normal((20, 4)) * 1e150),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match=r"threshold matrix entries must be finite and >= 0"):
            estimate_diff_cov(ds, 1.0, SOFT)


@pytest.mark.parametrize("scale", [1e150, 1e-150])
@pytest.mark.parametrize("kind", ["diff-corr", "cross-corr", "single-corr"])
def test_corr_kinds_do_not_depend_on_the_scale(kind, scale):
    # the correlation statistics are formed from the standardized data alone
    spec = KINDS[kind]
    ds = gaussian_dataset(35, p=6, n1=30, n2=26)
    scaled = TwoGroupDataset(*(SampleMatrix(x.data * scale) for x in (ds.group1, ds.group2)))
    split = 2 if spec.cross_block else None
    cfg = CvConfig(h_repeats=2, grid_n=20, seed=5)
    for tau in (0.6, None):
        want, got = (
            _fit(kind, d if spec.two_group else d.group1, tau, AL, cfg, split)
            for d in (ds, scaled)
        )
        assert want.tau == got.tau
        assert np.max(np.abs(got.estimate - want.estimate)) <= 1e-12 * np.max(np.abs(want.estimate))


@pytest.mark.parametrize("scale", [1e-158, 1e-160])
def test_subnormal_variances_keep_their_digits(scale):
    # the variances are subnormal here, so each is formed from its column
    # scaled by its largest |value|: the corr kinds and t_n keep their digits
    rng = np.random.default_rng(27)
    x1, x2 = rng.standard_normal((30, 6)), rng.standard_normal((30, 6))
    ds, scaled = (TwoGroupDataset(SampleMatrix(x1 * s), SampleMatrix(x2 * s)) for s in (1.0, scale))
    for kind in ("diff-corr", "cross-corr", "single-corr"):
        spec = KINDS[kind]
        split = 2 if spec.cross_block else None
        want, got = (_fit(kind, d if spec.two_group else d.group1, 0.5, AL, None, split)
                     for d in (ds, scaled))
        assert np.max(np.abs(got.estimate - want.estimate)) <= 1e-12 * np.max(np.abs(want.estimate))
    want, got = (run_equality_test(d).t_n for d in (ds, scaled))
    assert abs(got - want) <= 1e-12 * want


def test_diff_corr_zero_diagonal_and_symmetry():
    ds = gaussian_dataset(11, p=5, n1=30, n2=20)
    est = estimate_diff_corr(ds, 0.3, AL)
    assert np.array_equal(np.diag(est.estimate), np.zeros(5))
    assert np.array_equal(est.estimate, est.estimate.T)


def test_diff_corr_materialized_conditions():
    ds = gaussian_dataset(12, p=5, n1=20, n2=20)
    m1, m2 = moment_set(ds.group1), moment_set(ds.group2)
    raw = m1.corr - m2.corr
    lam = diff_corr_thresholds(m1, m2, 0.6)
    for rule in (HARD, SOFT, AL):
        est = estimate_diff_corr(ds, 0.6, rule)
        assert np.all(est.estimate[np.abs(raw) <= lam] == 0.0)
        assert np.all(np.abs(est.estimate - raw) <= lam + 1e-12)


def test_diff_corr_against_naive_oracle():
    rng = np.random.default_rng(2024)
    x1 = rng.standard_normal((20, 4)) @ (rng.standard_normal((4, 4)) + np.eye(4))
    x2 = rng.standard_normal((20, 4)) @ (rng.standard_normal((4, 4)) + np.eye(4))
    ds = TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))
    got = estimate_diff_corr(ds, 1.0, SOFT).estimate
    expected = np.array(naive_estimate_diff_corr(x1, x2, 1.0, "soft"))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_single_corr_zero_tau_returns_sample_correlation():
    rng = np.random.default_rng(3)
    x = SampleMatrix(rng.standard_normal((18, 4)))
    est = estimate_single_corr(x, 0.0, SOFT)
    assert np.array_equal(est.estimate, moment_set(x).corr)


def test_single_corr_keeps_unit_diagonal():
    rng = np.random.default_rng(4)
    x = SampleMatrix(rng.standard_normal((12, 3)))
    for rule in (HARD, SOFT, AL):
        est = estimate_single_corr(x, 50.0, rule)
        assert np.array_equal(est.estimate, np.eye(3))
    assert np.array_equal(np.diag(single_corr_thresholds(moment_set(x), 50.0)), np.zeros(3))


def test_diagonal_only_overflow_is_never_applied():
    # at 1e80 only column 0's covariance noise with itself, corr_noise_00 var_0^2,
    # overflows, so its diagonal noise level is inf and every other one is finite
    rng = np.random.default_rng(16)
    x1, x2 = rng.standard_normal((20, 4)), rng.standard_normal((20, 4))
    big1, big2 = (x * np.array([1e80, 1.0, 1.0, 1.0]) for x in (x1, x2))
    ds = TwoGroupDataset(SampleMatrix(big1), SampleMatrix(big2))
    with np.errstate(over="ignore", invalid="ignore"):
        # a single covariance's diagonal level is 0, so the inf is never applied
        got = baseline_cov_then_normalize(ds, 1.0)
    # the correlation levels are formed from the standardized data, so they fit
    single = estimate_single_corr(SampleMatrix(big1), 1.0).estimate
    want_single = estimate_single_corr(SampleMatrix(x1), 1.0).estimate
    assert np.max(np.abs(single - want_single)) < 1e-12
    # covariance thresholding is scale-equivariant, so the scaling changes nothing
    want = baseline_cov_then_normalize(TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2)), 1.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_single_corr_perfectly_correlated_pair():
    base = np.array([[0.0], [2.0], [4.0], [6.0]])
    x = SampleMatrix(np.hstack([base, 2.0 * base]))
    tau = 0.4
    est = estimate_single_corr(x, tau, SOFT)
    lam = single_corr_thresholds(moment_set(x), tau)[0, 1]
    assert est.estimate[0, 1] == pytest.approx(max(1.0 - lam, 0.0), abs=1e-12)


def test_single_corr_diagonal_population_smoke():
    rng = np.random.default_rng(55)
    x = SampleMatrix(rng.standard_normal((2000, 5)) * np.array([1.0, 2.0, 0.5, 3.0, 1.5]))
    est = estimate_single_corr(x, 2.0, AL)
    assert np.array_equal(est.estimate, np.eye(5))


def test_single_corr_against_naive_oracle():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((15, 4)) @ (rng.standard_normal((4, 4)) + np.eye(4))
    got = estimate_single_corr(SampleMatrix(x), 0.8, AL).estimate
    expected = np.array(naive_estimate_single_corr(x, 0.8, "adaptive-lasso"))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_diff_cov_examples():
    ds = _same_group_dataset(7)
    assert np.array_equal(estimate_diff_cov(ds, 1.0, SOFT).estimate, np.zeros((4, 4)))

    ds2 = gaussian_dataset(8, p=4, n1=16, n2=14)
    m1, m2 = moment_set(ds2.group1), moment_set(ds2.group2)
    est = estimate_diff_cov(ds2, 0.0, SOFT)
    assert np.array_equal(est.estimate, m1.cov - m2.cov)


def test_diff_cov_against_naive_oracle():
    rng = np.random.default_rng(9)
    x1 = rng.standard_normal((14, 3)) * np.array([1.0, 2.0, 0.7])
    x2 = rng.standard_normal((17, 3)) * np.array([0.8, 1.5, 1.2])
    ds = TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))
    got = estimate_diff_cov(ds, 1.2, HARD).estimate
    expected = np.array(naive_estimate_diff_cov(x1, x2, 1.2, "hard"))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_cross_corr_is_block_of_full_estimate():
    ds = gaussian_dataset(13, p=6, n1=22, n2=25)
    for split in (1, 3, 5):
        full = estimate_diff_corr(ds, 0.7, SOFT).estimate
        block = estimate_cross_corr(ds, split, 0.7, SOFT)
        assert np.array_equal(block.estimate, full[:split, split:])
        assert block.row_labels == ds.names[:split]
        assert block.col_labels == ds.names[split:]


def test_cross_corr_identical_groups_and_bad_split():
    ds = _same_group_dataset(14)
    assert np.array_equal(estimate_cross_corr(ds, 2, 0.5, SOFT).estimate, np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        estimate_cross_corr(ds, 0, 0.5, SOFT)
    with pytest.raises(ValidationError):
        estimate_cross_corr(ds, 4, 0.5, SOFT)


def test_cross_corr_against_naive_oracle():
    rng = np.random.default_rng(15)
    x1 = rng.standard_normal((19, 5)) @ (rng.standard_normal((5, 5)) + np.eye(5))
    x2 = rng.standard_normal((23, 5)) @ (rng.standard_normal((5, 5)) + np.eye(5))
    ds = TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))
    got = estimate_cross_corr(ds, 2, 0.9, SOFT).estimate
    expected = np.array(naive_estimate_cross_corr(x1, x2, 2, 0.9, "soft"))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_baseline_cov_then_normalize():
    ds = _same_group_dataset(16)
    assert np.array_equal(
        baseline_cov_then_normalize(ds, 1.0, SOFT), np.zeros((4, 4))
    )

    ds2 = gaussian_dataset(17, p=4, n1=20, n2=18)
    m1, m2 = moment_set(ds2.group1), moment_set(ds2.group2)
    est0 = baseline_cov_then_normalize(ds2, 0.0, SOFT)
    assert np.max(np.abs(est0 - (m1.corr - m2.corr))) < 1e-14

    x1, x2 = ds2.group1.data, ds2.group2.data
    got = baseline_cov_then_normalize(ds2, 1.1, HARD)
    expected = np.array(naive_cov_then_normalize(x1, x2, 1.1, "hard"))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_baseline_separate_corr():
    ds = _same_group_dataset(18)
    assert np.array_equal(baseline_separate_corr(ds, 0.7, SOFT), np.zeros((4, 4)))

    ds2 = gaussian_dataset(19, p=4, n1=21, n2=19)
    m1, m2 = moment_set(ds2.group1), moment_set(ds2.group2)
    assert np.array_equal(
        baseline_separate_corr(ds2, 0.0, SOFT), m1.corr - m2.corr
    )

    got = baseline_separate_corr(ds2, 0.9, AL)
    expected = np.array(
        naive_separate_corr(ds2.group1.data, ds2.group2.data, 0.9, "adaptive-lasso")
    )
    assert np.max(np.abs(got - expected)) < 1e-10


def test_baseline_sample_difference():
    ds = _same_group_dataset(20)
    assert np.array_equal(baseline_sample_difference(ds), np.zeros((4, 4)))

    ds2 = gaussian_dataset(21, p=5, n1=24, n2=26)
    got = baseline_sample_difference(ds2)
    assert np.array_equal(got, estimate_diff_corr(ds2, 0.0, SOFT).estimate)
    expected = np.array(naive_sample_difference(ds2.group1.data, ds2.group2.data))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_support_ranking_zero_estimate():
    ds = _same_group_dataset(22)
    ranking = support_ranking(estimate_diff_corr(ds, 1.0, SOFT))
    assert ranking == [(name, 0) for name in ds.names]


def test_support_ranking_single_pair():
    ds = gaussian_dataset(23, p=4, n1=20, n2=20)
    est = estimate_diff_corr(ds, 0.0, SOFT)
    masked = est.estimate.copy()
    masked[:] = 0.0
    masked[0, 2] = masked[2, 0] = 0.5
    from diffcorr import DifferentialEstimate

    fake = DifferentialEstimate(masked, 0.0, SOFT, ds.names, ds.names)
    ranking = support_ranking(fake)
    assert ranking[0] == (ds.names[0], 1)
    assert ranking[1] == (ds.names[2], 1)
    assert {count for _, count in ranking[2:]} == {0}


def test_support_ranking_matches_direct_scan():
    ds = gaussian_dataset(24, p=6, n1=30, n2=30)
    est = estimate_diff_corr(ds, 0.4, HARD)
    ranking = support_ranking(est)
    direct = {
        name: int(np.count_nonzero(est.estimate[i]) - (est.estimate[i, i] != 0.0))
        for i, name in enumerate(ds.names)
    }
    assert dict(ranking) == direct
    counts = [count for _, count in ranking]
    assert counts == sorted(counts, reverse=True)


def test_support_ranking_rejects_rectangular():
    ds = gaussian_dataset(25, p=4, n1=15, n2=15)
    with pytest.raises(ValidationError):
        support_ranking(estimate_cross_corr(ds, 2, 0.5, SOFT))


def test_invariances():
    check_estimator_invariances()


def test_monotone_support():
    check_monotone_support()


# p = 300 walks four row blocks of 64, 64, 64 and 108 rows
BLOCKED_P = 300
SINGLE_KINDS = ("single-corr", "cov-threshold")
# each kind's threshold levels from its full moment sets
LEVELS = {
    "diff-corr": diff_corr_thresholds,
    "diff-cov": diff_cov_thresholds,
    "cross-corr": diff_corr_thresholds,
    "single-corr": single_corr_thresholds,
    "cov-threshold": _cov_thresholds,
}


def _full_moments(kind, ds):
    groups = (ds.group1,) if kind in SINGLE_KINDS else (ds.group1, ds.group2)
    return [moment_set(x) for x in groups]


@pytest.fixture(scope="module")
def blocked_fits():
    """Two groups at p = 300 with the oracle's statistics and unit levels.
    Variables 140:170 share a factor, which group 2 flips on 155:170, so
    correlation differences near 2 survive thresholding, across the cross-corr
    split at 150 too."""
    rng = np.random.default_rng(300)
    x1 = rng.standard_normal((24, BLOCKED_P))
    x1[:, 140:170] += 3.0 * rng.standard_normal((24, 1))
    x2 = rng.standard_normal((26, BLOCKED_P))
    factor = 3.0 * rng.standard_normal((26, 1))
    x2[:, 140:155] += factor
    x2[:, 155:170] -= factor
    ds = TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))
    return ds, naive_statistics_and_unit_levels(x1, x2)


def test_oracle_levels_give_the_naive_estimates():
    rng = np.random.default_rng(5)
    x1, x2 = rng.standard_normal((12, 5)), rng.standard_normal((14, 5))
    table = naive_statistics_and_unit_levels(x1, x2)

    def assembled(kind, tau):
        raw, unit = table[kind]
        return np.array([[naive_rule("soft", z, tau * u) for z, u in zip(*row)]
                         for row in zip(raw, unit)])

    for tau in (0.0, 0.4, 1.3):
        pairs = [
            ("diff-corr", naive_estimate_diff_corr(x1, x2, tau, "soft")),
            ("diff-cov", naive_estimate_diff_cov(x1, x2, tau, "soft")),
            ("single-corr", naive_estimate_single_corr(x1, tau, "soft")),
        ]
        for kind, want in pairs:
            assert np.max(np.abs(assembled(kind, tau) - np.array(want))) < 1e-15


@pytest.mark.parametrize("kind", ["diff-corr", "diff-cov", "cross-corr", *SINGLE_KINDS])
def test_fit_in_row_blocks_against_naive_oracle(kind, blocked_fits):
    ds, table = blocked_fits
    data = ds.group1 if kind in SINGLE_KINDS else ds
    split = BLOCKED_P // 2 if kind == "cross-corr" else None
    raw, unit = (np.array(m) for m in table["diff-corr" if split else kind])
    full = _full_moments(kind, ds)
    for tau in (0.0, 0.7, 2.0):
        assert np.max(np.abs(LEVELS[kind](*full, tau) - tau * unit)) < 1e-12
    for rule in (HARD, SOFT, AL):
        for tau in (0.0, 0.7, 2.0):
            fit = _fit(kind, data, tau, rule, None, split)
            want = np.array([[naive_rule(rule.kind, z, tau * u) for z, u in zip(*row)]
                             for row in zip(raw.tolist(), unit.tolist())])
            if split:
                want = want[:split, split:]
            else:
                assert np.array_equal(fit.estimate, fit.estimate.T)
            assert np.max(np.abs(fit.estimate - want)) < 1e-12
            if tau == 0.7:  # so the oracle checks kept entries, not only zeros
                assert np.count_nonzero(fit.estimate) >= (80 if split else 200)


def test_cross_corr_is_the_diff_corr_block_bit_for_bit(blocked_fits):
    ds, _ = blocked_fits
    split = BLOCKED_P // 2
    for rule in (HARD, SOFT, AL):
        full = estimate_diff_corr(ds, 0.7, rule)
        block = estimate_cross_corr(ds, split, 0.7, rule)
        assert np.array_equal(block.estimate, full.estimate[:split, split:])


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_fit_thresholds_at_its_public_levels(kind, blocked_fits):
    ds, _ = blocked_fits
    data = ds.group1 if kind in SINGLE_KINDS else ds
    split = BLOCKED_P // 2 if kind == "cross-corr" else None
    full = _full_moments(kind, ds)
    raw = KINDS[kind].raw(full)
    for tau in (0.0, 0.7, 2.0):
        levels = LEVELS[kind](*full, tau)
        for rule in (HARD, SOFT, AL):
            want = apply_threshold(raw, levels, rule)[:split, split:]
            assert np.array_equal(_fit(kind, data, tau, rule, None, split).estimate, want)


def test_single_corr_at_zero_tau_is_the_sample_correlation_bit_for_bit(blocked_fits):
    ds, _ = blocked_fits
    want = moment_set(ds.group1).corr
    for rule in (HARD, SOFT, AL):
        assert np.array_equal(estimate_single_corr(ds.group1, 0.0, rule).estimate, want)


def _fit_peak(p, tau, cv=None):
    """Peak traced bytes of estimate_diff_corr on a p-variable dataset."""
    ds = gaussian_dataset(26, p=p, n1=60, n2=60)
    tracemalloc.start()
    try:
        estimate_diff_corr(ds, tau, HARD, cv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fixed_tau_fit_peaks_below_three_p_by_p_arrays():
    p = 600
    # the estimate plus row blocks: a group covariance or correlation held
    # beside them would pass the bound
    assert _fit_peak(p, 1.0) <= 3 * p * p * 8


def test_cv_fit_peaks_below_three_p_by_p_arrays():
    p = 600
    assert _fit_peak(p, None, CvConfig(h_repeats=1, grid_n=10)) <= 3 * p * p * 8


@pytest.mark.parametrize("tau", [None, 0.0, 0.8])
def test_no_fit_forms_a_full_covariance_or_correlation(tau, monkeypatch):
    from diffcorr import moments

    def refuse(*args):
        raise AssertionError("a fit formed a p x p moment matrix")

    monkeypatch.setattr(moments, "_symmetric", refuse)
    monkeypatch.setattr(moments, "_BLOCK_ROWS", 3)  # several blocks at p = 10
    ds = gaussian_dataset(32, p=10, n1=30, n2=26)
    cfg = CvConfig(h_repeats=2, grid_n=20, seed=2)
    for kind, spec in KINDS.items():
        data = ds if spec.two_group else ds.group1
        _fit(kind, data, tau, (HARD, AL), cfg, 4 if spec.cross_block else None)
    with pytest.raises(AssertionError, match="p x p"):
        moment_set(ds.group1).corr


def test_estimate_copies_only_writeable_arrays():
    names = ("a", "b")
    shared = np.array([[1.0, 0.5], [0.5, 1.0]])
    shared.flags.writeable = False
    est = DifferentialEstimate(shared, 1.0, SOFT, names, names)
    assert est.estimate is shared

    mine = np.array([[1.0, 0.5], [0.5, 1.0]])
    est = DifferentialEstimate(mine, 1.0, SOFT, names, names)
    assert not np.shares_memory(est.estimate, mine)
    mine[0, 1] = 9.0
    assert est.estimate[0, 1] == 0.5
    assert not est.estimate.flags.writeable
    with pytest.raises(ValueError):
        est.estimate[0, 0] = 2.0
    est = DifferentialEstimate([[1, 0], [0, 1]], 1.0, SOFT, names, names)
    assert est.estimate.dtype == float and not est.estimate.flags.writeable


def test_fit_hands_its_read_only_arrays_to_the_estimate(monkeypatch):
    from diffcorr import estimators

    built = []

    def spy(estimate, *rest):
        built.append(estimate)
        return DifferentialEstimate(estimate, *rest)

    monkeypatch.setattr(estimators, "DifferentialEstimate", spy)
    ds = gaussian_dataset(27, p=5, n1=20, n2=20)
    est = estimate_diff_corr(ds, 0.5, SOFT)
    estimate, = built
    assert not estimate.flags.writeable and est.estimate is estimate


def _same_fit(got, want):
    assert np.array_equal(got.estimate, want.estimate)
    assert (got.tau, got.rule, got.row_labels, got.col_labels) == (
        want.tau, want.rule, want.row_labels, want.col_labels)
    if want.cv is None:
        assert got.cv is None
    else:
        assert got.cv.tau_hat == want.cv.tau_hat and got.cv.splits_used == want.cv.splits_used
        assert np.array_equal(got.cv.losses, want.cv.losses)
        assert np.array_equal(got.cv.grid, want.cv.grid)


def test_a_rule_tuple_fits_as_one_fit_per_rule(monkeypatch):
    from diffcorr import moments

    monkeypatch.setattr(moments, "_BLOCK_ROWS", 3)  # blocks of 3, 3 and 4 rows
    ds = gaussian_dataset(31, p=10, n1=30, n2=26)
    cfg = CvConfig(h_repeats=2, grid_n=20, seed=8)
    rules = (ThresholdRule("adaptive-lasso", 2.0), HARD, SOFT)
    for kind, spec in KINDS.items():
        data = ds if spec.two_group else ds.group2
        for split in ((1, 4, 9) if spec.cross_block else (None,)):
            for tau in (None, 0.6):
                fits = _fit(kind, data, tau, rules, cfg, split)
                assert isinstance(fits, tuple) and len(fits) == len(rules)
                for fit, rule in zip(fits, rules):
                    _same_fit(fit, _fit(kind, data, tau, rule, cfg, split))
    fits = estimate_cross_corr(ds, 4, None, rules[:2], cfg)
    for fit, rule in zip(fits, rules):
        _same_fit(fit, estimate_cross_corr(ds, 4, None, rule, cfg))
    for baseline in (baseline_cov_then_normalize, baseline_separate_corr):
        together = baseline(ds, None, rules, cfg)
        assert len(together) == len(rules)
        for got, rule in zip(together, rules):
            assert np.array_equal(got, baseline(ds, None, rule, cfg))
    with pytest.raises(ValidationError, match="distinct kinds"):
        estimate_diff_corr(ds, 1.0, (HARD, HARD))
