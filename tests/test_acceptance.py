"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The benchmark-backed
criteria share module-scoped runs; everything is seeded and deterministic.
"""

import numpy as np
import pytest

from diffcorr import (
    SampleMatrix,
    ThresholdRule,
    TwoGroupDataset,
    baseline_cov_then_normalize,
    baseline_sample_difference,
    baseline_separate_corr,
    critical_tau,
    decide_test,
    estimate_cross_corr,
    estimate_diff_corr,
    estimate_diff_cov,
    estimate_single_corr,
    extreme_value_pvalue,
    mvn_sample,
    run_benchmark,
)
from diffcorr import test_statistic as compute_statistic
from oracles import (
    naive_cov_then_normalize,
    naive_estimate_cross_corr,
    naive_estimate_diff_corr,
    naive_estimate_diff_cov,
    naive_estimate_single_corr,
    naive_sample_difference,
    naive_separate_corr,
    naive_test_statistic,
)
from properties import ALL_CHECKS

HARD = ThresholdRule("hard")
SEED = 20240801

# Reference Monte-Carlo cells for the two benchmark configurations at
# p = 100, n1 = n2 = 50 with the hard rule: (mean, sd over replications).
MODEL1_DIFF_CORR_SPECTRAL = (0.50, 0.41)
MODEL1_SAMPLE_SPECTRAL = (7.28, 0.93)
MODEL2_DIFF_CORR_SPECTRAL = (0.98, 1.00)
MODEL2_DIFF_CORR_FROBENIUS = (3.36, 2.53)

BENCH_ESTIMATORS = ["diff-corr", "cov-normalize", "sample-diff"]


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _within(mean, reference):
    target, sd = reference
    return abs(mean - target) <= 3.0 * sd


@pytest.fixture(scope="module")
def model1_run():
    return run_benchmark(
        "model1", [(100, 50, 50)], reps=20, rules=[HARD],
        estimators=BENCH_ESTIMATORS, seed=SEED,
    )


@pytest.fixture(scope="module")
def model2_run():
    return run_benchmark(
        "model2", [(100, 50, 50)], reps=20, rules=[HARD],
        estimators=BENCH_ESTIMATORS, seed=SEED + 1,
    )


@pytest.fixture(scope="module")
def model2_large_n_run():
    return run_benchmark(
        "model2", [(100, 500, 500)], reps=20, rules=[HARD],
        estimators=["diff-corr"], seed=SEED + 2,
    )


def test_criterion_1_model1_reference_cells(model1_run):
    diff = model1_run.cell(estimator="diff-corr", norm="spectral").mean
    sample = model1_run.cell(estimator="sample-diff", norm="spectral").mean
    ok = _within(diff, MODEL1_DIFF_CORR_SPECTRAL) and _within(sample, MODEL1_SAMPLE_SPECTRAL)
    _report(
        1,
        ok,
        f"model1 spectral means: thresholded {diff:.3f} "
        f"(reference {MODEL1_DIFF_CORR_SPECTRAL[0]} +/- {3 * MODEL1_DIFF_CORR_SPECTRAL[1]:.2f}), "
        f"sample difference {sample:.3f} "
        f"(reference {MODEL1_SAMPLE_SPECTRAL[0]} +/- {3 * MODEL1_SAMPLE_SPECTRAL[1]:.2f})",
    )


def test_criterion_2_model2_reference_cells(model2_run):
    spec = model2_run.cell(estimator="diff-corr", norm="spectral").mean
    fro = model2_run.cell(estimator="diff-corr", norm="frobenius").mean
    ok = _within(spec, MODEL2_DIFF_CORR_SPECTRAL) and _within(fro, MODEL2_DIFF_CORR_FROBENIUS)
    _report(
        2,
        ok,
        f"model2 thresholded means: spectral {spec:.3f} "
        f"(reference {MODEL2_DIFF_CORR_SPECTRAL[0]} +/- {3 * MODEL2_DIFF_CORR_SPECTRAL[1]:.2f}), "
        f"frobenius {fro:.3f} "
        f"(reference {MODEL2_DIFF_CORR_FROBENIUS[0]} +/- {3 * MODEL2_DIFF_CORR_FROBENIUS[1]:.2f})",
    )


def test_criterion_3_dominance_ordering(model1_run, model2_run):
    gaps = []
    ok = True
    for name, run in (("model1", model1_run), ("model2", model2_run)):
        for norm in ("spectral", "l1", "frobenius"):
            direct = run.cell(estimator="diff-corr", norm=norm).mean
            normalized = run.cell(estimator="cov-normalize", norm=norm).mean
            sample = run.cell(estimator="sample-diff", norm=norm).mean
            ok = ok and direct < normalized and direct < sample
            gaps.append(f"{name}/{norm}: {direct:.2f} < {normalized:.2f}, {sample:.2f}")
    _report(3, ok, "; ".join(gaps))


def test_criterion_4_rate_direction(model2_run, model2_large_n_run):
    small_n = model2_run.cell(estimator="diff-corr", norm="spectral").mean
    large_n = model2_large_n_run.cell(estimator="diff-corr", norm="spectral").mean
    _report(
        4,
        large_n < small_n,
        f"model2 spectral mean at n=500 is {large_n:.3f} vs {small_n:.3f} at n=50",
    )


def test_criterion_5_test_size():
    p, n, reps, alpha = 50, 100, 200, 0.05
    rejections = 0
    identity = np.eye(p)
    for rep in range(reps):
        s1, s2 = np.random.SeedSequence([SEED + 3, rep]).generate_state(2, np.uint64).tolist()
        ds = TwoGroupDataset(mvn_sample(identity, n, s1), mvn_sample(identity, n, s2))
        t_n, _ = compute_statistic(ds)
        if decide_test(t_n, p, alpha)[0]:
            rejections += 1
    rate = rejections / reps
    _report(
        5,
        0.005 <= rate <= 0.12,
        f"empirical size {rate:.3f} over {reps} null replications at (p={p}, n={n}), "
        "band [0.005, 0.12]. Known limitation: the extreme-value calibration of the "
        "max statistic over-rejects at n=100 and reaches the band only near n=300",
    )


def test_criterion_6_test_power():
    p, n, reps = 50, 200, 100
    r1 = np.eye(p)
    r1[0, 1] = r1[1, 0] = 0.6
    r2 = np.eye(p)
    rejections = 0
    for rep in range(reps):
        s1, s2 = np.random.SeedSequence([SEED + 4, rep]).generate_state(2, np.uint64).tolist()
        ds = TwoGroupDataset(mvn_sample(r1, n, s1), mvn_sample(r2, n, s2))
        t_n, _ = compute_statistic(ds)
        if decide_test(t_n, p, 0.05)[0]:
            rejections += 1
    rate = rejections / reps
    _report(6, rate >= 0.9, f"power {rate:.2f} over {reps} single-entry alternatives")


def test_criterion_7_oracle_equivalence():
    rules = ("hard", "soft", "adaptive-lasso")
    worst = 0.0
    for case in range(50):
        seeds = np.random.SeedSequence([SEED + 5, case]).generate_state(1, np.uint64).tolist()
        rng = np.random.default_rng(seeds[0])
        p = int(rng.integers(2, 7))
        n1 = int(rng.integers(8, 26))
        n2 = int(rng.integers(8, 26))
        # moderate mixing keeps correlations away from +/-1, where the
        # statistic's near-zero denominators amplify float noise past 1e-10
        x1 = rng.standard_normal((n1, p)) @ (0.4 * rng.standard_normal((p, p)) + np.eye(p))
        x2 = rng.standard_normal((n2, p)) @ (0.4 * rng.standard_normal((p, p)) + np.eye(p))
        ds = TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))
        tau = float(np.round(rng.uniform(0.0, 2.0), 3))
        kind = rules[case % 3]
        rule = ThresholdRule(kind)
        split = int(rng.integers(1, p))

        got_expected = [
            (estimate_diff_corr(ds, tau, rule).estimate,
             naive_estimate_diff_corr(x1, x2, tau, kind)),
            (estimate_single_corr(ds.group1, tau, rule).estimate,
             naive_estimate_single_corr(x1, tau, kind)),
            (estimate_diff_cov(ds, tau, rule).estimate,
             naive_estimate_diff_cov(x1, x2, tau, kind)),
            (estimate_cross_corr(ds, split, tau, rule).estimate,
             naive_estimate_cross_corr(x1, x2, split, tau, kind)),
            (baseline_cov_then_normalize(ds, tau, rule),
             naive_cov_then_normalize(x1, x2, tau, kind)),
            (baseline_separate_corr(ds, tau, rule),
             naive_separate_corr(x1, x2, tau, kind)),
            (baseline_sample_difference(ds),
             naive_sample_difference(x1, x2)),
        ]
        for got, expected in got_expected:
            worst = max(worst, float(np.max(np.abs(got - np.array(expected)))))

        t_n, t_ij = compute_statistic(ds)
        t_n_naive, t_ij_naive = naive_test_statistic(x1, x2)
        worst = max(worst, abs(t_n - t_n_naive))
        worst = max(worst, float(np.max(np.abs(t_ij - np.array(t_ij_naive)))))
    _report(
        7,
        worst < 1e-10,
        f"largest deviation from the naive-loop oracle over 50 instances: {worst:.2e}",
    )


def test_criterion_8_property_suites():
    names = []
    for check in ALL_CHECKS:
        check()
        names.append(check.__name__)
    _report(8, True, f"property checks passed: {', '.join(names)}")


def test_criterion_9_closed_forms():
    import mpmath as mp

    mp.mp.dps = 50
    alpha = mp.mpf("0.05")
    reference = float(-mp.log(8 * mp.pi) - 2 * mp.log(mp.log(1 / (1 - alpha))))
    got = critical_tau(0.05)
    tau_ok = abs(got - reference) < 1e-10

    boundary_ok = True
    for p in (3, 10, 50, 500):
        boundary = 4.0 * np.log(p) - np.log(np.log(p)) + got
        boundary_ok = boundary_ok and abs(extreme_value_pvalue(boundary, p) - 0.05) < 1e-10
    _report(
        9,
        tau_ok and boundary_ok,
        f"critical value at alpha=0.05 is {got:.12f} (reference {reference:.12f}); "
        "p-value at the rejection boundary returns alpha to 1e-10",
    )
