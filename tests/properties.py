"""Reusable invariant checks, shared by the unit tests and the acceptance
suite. Every check raises AssertionError with a diagnostic on failure."""

import numpy as np

from diffcorr import (
    CvConfig,
    SampleMatrix,
    ThresholdRule,
    TwoGroupDataset,
    apply_rule,
    correlation_variance,
    cv_select_tau,
    estimate_cross_corr,
    estimate_diff_corr,
    frobenius_norm,
    matrix_l1_norm,
    moment_set,
    spectral_norm,
    test_statistic,
)
from diffcorr.thresholding import _noise

RULES = (ThresholdRule("hard"), ThresholdRule("soft"), ThresholdRule("adaptive-lasso"))

Z_GRID = np.round(np.arange(-3.0, 3.0001, 0.05), 10)
LAM_GRID = np.round(np.arange(0.0, 3.0001, 0.05), 10)


def gaussian_dataset(seed, p=4, n1=20, n2=20):
    rng = np.random.default_rng(seed)
    mix1 = rng.standard_normal((p, p)) + np.eye(p)
    mix2 = rng.standard_normal((p, p)) + np.eye(p)
    x1 = rng.standard_normal((n1, p)) @ mix1
    x2 = rng.standard_normal((n2, p)) @ mix2
    return TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))


def check_rule_conditions():
    """(C2) and (C3) for all rules on the grid; (C1) with constant 1 for soft
    and constant eta for adaptive-lasso (hard violates (C1))."""
    for rule in RULES:
        for lam in LAM_GRID:
            out = apply_rule(rule, Z_GRID, lam)
            killed = np.abs(Z_GRID) <= lam
            assert np.all(out[killed] == 0.0), f"(C2) fails for {rule.kind} at lam={lam}"
            assert np.all(np.abs(out - Z_GRID) <= lam + 1e-12), f"(C3) fails for {rule.kind}"
            if rule.kind != "hard":
                c = 1.0 if rule.kind == "soft" else rule.eta
                min_abs_y = np.maximum(np.abs(Z_GRID) - lam, 0.0)
                assert np.all(np.abs(out) <= c * min_abs_y + 1e-12), (
                    f"(C1) with c={c} fails for {rule.kind} at lam={lam}"
                )
    # oddness and monotonicity in z for the odd step-free rules
    for rule in RULES:
        for lam in (0.0, 0.5, 1.5):
            out = apply_rule(rule, Z_GRID, lam)
            flipped = apply_rule(rule, -Z_GRID, lam)
            assert np.all(out == -flipped), f"{rule.kind} is not odd"
            if rule.kind in ("hard", "soft"):
                assert np.all(np.diff(out) >= -1e-12), f"{rule.kind} not nondecreasing"


def check_moment_invariances(seed=0, tol=1e-12):
    rng = np.random.default_rng(seed)
    n, p = 12, 4
    x = rng.standard_normal((n, p)) @ (rng.standard_normal((p, p)) + 2 * np.eye(p))

    def statistics(m):
        return {
            "cov": m.cov, "corr": m.corr,
            "cov_noise": _noise(m, "cov"), "corr_noise": _noise(m, "corr"),
        }

    base_moments = moment_set(SampleMatrix(x))
    base = statistics(base_moments)
    base_var = correlation_variance(base_moments)

    # positive per-column rescaling leaves correlation-scale statistics fixed
    scales = rng.uniform(0.5, 3.0, size=p)
    scaled_moments = moment_set(SampleMatrix(x * scales))
    scaled = statistics(scaled_moments)
    scaled_var = correlation_variance(scaled_moments)
    assert np.max(np.abs(scaled["corr"] - base["corr"])) <= tol
    assert np.max(np.abs(scaled["corr_noise"] - base["corr_noise"])) <= tol
    assert np.max(np.abs(scaled_var - base_var)) <= tol

    # adding a constant vector to every observation changes nothing
    shifted = statistics(moment_set(SampleMatrix(x + rng.uniform(-5, 5, size=p))))
    for field in base:
        assert np.max(np.abs(shifted[field] - base[field])) <= tol

    # permuting columns permutes every output identically
    perm = rng.permutation(p)
    permuted = statistics(moment_set(SampleMatrix(x[:, perm])))
    for field in base:
        expected = base[field][np.ix_(perm, perm)]
        assert np.max(np.abs(permuted[field] - expected)) <= tol


def check_estimator_invariances(seed=1, tol=1e-10):
    ds = gaussian_dataset(seed, p=5, n1=18, n2=22)
    rng = np.random.default_rng(seed + 1)
    tau = 0.8
    for rule in RULES:
        base = estimate_diff_corr(ds, tau, rule).estimate

        scales = rng.uniform(0.5, 2.5, size=ds.p)
        scaled_ds = TwoGroupDataset(
            SampleMatrix(ds.group1.data * scales, ds.names),
            SampleMatrix(ds.group2.data * scales, ds.names),
        )
        scaled = estimate_diff_corr(scaled_ds, tau, rule).estimate
        assert np.max(np.abs(scaled - base)) <= tol, f"scale invariance ({rule.kind})"

        swapped = estimate_diff_corr(
            TwoGroupDataset(ds.group2, ds.group1), tau, rule
        ).estimate
        assert np.max(np.abs(swapped + base)) <= tol, f"group antisymmetry ({rule.kind})"

        perm = rng.permutation(ds.p)
        names = tuple(ds.names[i] for i in perm)
        permuted_ds = TwoGroupDataset(
            SampleMatrix(ds.group1.data[:, perm], names),
            SampleMatrix(ds.group2.data[:, perm], names),
        )
        permuted = estimate_diff_corr(permuted_ds, tau, rule).estimate
        assert np.max(np.abs(permuted - base[np.ix_(perm, perm)])) <= tol, (
            f"permutation equivariance ({rule.kind})"
        )

        block = estimate_cross_corr(ds, 2, tau, rule).estimate
        assert np.array_equal(block, base[:2, 2:]), f"block consistency ({rule.kind})"


def check_monotone_support(seed=2):
    ds = gaussian_dataset(seed, p=6, n1=25, n2=25)
    for rule in RULES:
        previous = None
        for tau in np.linspace(0.0, 3.0, 16):
            count = int(np.count_nonzero(estimate_diff_corr(ds, tau, rule).estimate))
            if previous is not None:
                assert count <= previous, (
                    f"support grew from {previous} to {count} at tau={tau} ({rule.kind})"
                )
            previous = count


def check_tstat_invariances(seed=3, tol=1e-10):
    ds = gaussian_dataset(seed, p=5, n1=30, n2=26)
    _, t_base = test_statistic(ds)

    rng = np.random.default_rng(seed + 1)
    scales = rng.uniform(0.5, 2.0, size=ds.p)
    scaled = TwoGroupDataset(
        SampleMatrix(ds.group1.data * scales, ds.names),
        SampleMatrix(ds.group2.data * scales, ds.names),
    )
    _, t_scaled = test_statistic(scaled)
    assert np.max(np.abs(t_scaled - t_base)) <= tol, "t_pairs scale invariance"

    _, t_swapped = test_statistic(TwoGroupDataset(ds.group2, ds.group1))
    assert np.max(np.abs(t_swapped - t_base)) <= tol, "t_pairs group-swap symmetry"


def check_cv_determinism(seed=4):
    ds = gaussian_dataset(seed, p=4, n1=20, n2=20)
    cfg = CvConfig(k_folds=4, h_repeats=3, grid_n=5, seed=99)
    first = cv_select_tau(ds, cfg, rule=ThresholdRule("soft"))
    second = cv_select_tau(ds, cfg, rule=ThresholdRule("soft"))
    assert first.tau_hat == second.tau_hat
    assert np.array_equal(first.grid, second.grid)
    assert np.array_equal(first.losses, second.losses)
    assert np.all(first.losses >= 0.0) and np.all(np.isfinite(first.losses))
    assert first.losses.min() == first.losses[list(first.grid).index(first.tau_hat)]


def check_norm_inequalities(seed=5, cases=25):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        p = int(rng.integers(2, 7))
        a = rng.standard_normal((p, p))
        sym = (a + a.T) / 2.0
        spec, l1, fro = spectral_norm(sym), matrix_l1_norm(sym), frobenius_norm(sym)
        assert spec <= l1 + 1e-10, "spectral > l1 on a symmetric matrix"
        assert spec <= fro + 1e-10
        assert fro <= np.sqrt(p) * spec + 1e-10
        c = float(rng.uniform(-3.0, 3.0))
        for norm in (spectral_norm, matrix_l1_norm, frobenius_norm):
            assert abs(norm(c * sym) - abs(c) * norm(sym)) <= 1e-10 * max(1.0, norm(sym))


ALL_CHECKS = (
    check_rule_conditions,
    check_moment_invariances,
    check_estimator_invariances,
    check_monotone_support,
    check_tstat_invariances,
    check_cv_determinism,
    check_norm_inequalities,
)
