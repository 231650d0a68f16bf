import numpy as np
import pytest

from diffcorr import (
    NotPSDError,
    ThresholdRule,
    ValidationError,
    generate_pair,
    moment_set,
    mvn_sample,
    run_benchmark,
    sample_correlation,
    scale_to_covariance,
)

HARD = ThresholdRule("hard")


def test_generate_pair_validation():
    with pytest.raises(ValidationError):
        generate_pair("model3", 10)
    with pytest.raises(ValidationError):
        generate_pair("model1", 7)  # odd
    with pytest.raises(ValidationError):
        generate_pair("model1", 2)
    with pytest.raises(ValidationError):
        generate_pair("model2", 0)


def test_model1_zero_perturbation_draw():
    # seed 0 at p = 4 draws an all-zero perturbation: both matrices coincide
    r1, r2 = generate_pair("model1", 4, 0)
    assert np.array_equal(r1, r2)


def test_model1_constructed_invariants():
    for seed in range(6):
        r1, r2 = generate_pair("model1", 12, seed)
        for r in (r1, r2):
            assert np.array_equal(np.diag(r), np.ones(12))
            assert np.array_equal(r, r.T)
            assert np.linalg.eigvalsh(r)[0] >= 1e-3 - 1e-12
        # fixed first matrix: 0.2 block on the upper-left half, identity elsewhere
        assert np.all(r1[:6, :6][~np.eye(6, dtype=bool)] == 0.2)
        assert np.array_equal(r1[6:, 6:], np.eye(6))
        assert np.array_equal(r1[:6, 6:], np.zeros((6, 6)))


def test_model1_difference_support():
    r1, r2 = generate_pair("model1", 10, 0)
    diff = r2 - r1
    nonzero = diff != 0.0
    assert np.count_nonzero(nonzero) > 0
    # support confined to the off-diagonal upper-left block
    assert not np.any(nonzero[5:, :])
    assert not np.any(nonzero[:, 5:])
    assert not np.any(np.diag(nonzero))
    # all activated entries share one magnitude: the feasibility constant
    magnitudes = np.unique(np.abs(diff[nonzero]))
    assert len(magnitudes) == 1
    assert 1e-4 <= magnitudes[0] <= 0.2
    assert np.array_equal(diff, diff.T)


def test_model1_determinism():
    a1, a2 = generate_pair("model1", 8, 11)
    b1, b2 = generate_pair("model1", 8, 11)
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)


def test_model2_entries():
    r1, r2 = generate_pair("model2", 12)
    assert np.all(np.diag(r1) == 1.0) and np.all(np.diag(r2) == 1.0)
    assert r1[0, 1] == pytest.approx(-0.72, abs=1e-15)
    assert r2[0, 1] == pytest.approx(-0.72 + 0.2 * (2.0 / 3.0), abs=1e-15)
    assert np.all(r1[np.abs(np.subtract.outer(np.arange(12), np.arange(12))) >= 10] == 0.0)


def test_model2_difference_is_banded():
    r1, r2 = generate_pair("model2", 40)
    diff = r2 - r1
    dist = np.abs(np.subtract.outer(np.arange(40), np.arange(40)))
    assert np.all(diff[dist >= 3] == 0.0)
    assert np.all(diff[(dist >= 1) & (dist <= 2)] != 0.0)
    for r in (r1, r2):
        assert np.linalg.eigvalsh(r)[0] >= -1e-10


def test_generate_pair_dispatch():
    r1, r2 = generate_pair("model2", 9, 1)
    assert r1.shape == (9, 9) and r1[0, 1] == pytest.approx(-0.72, abs=1e-15)
    # model2 is deterministic: the seed does not matter
    s1, s2 = generate_pair("model2", 9)
    assert np.array_equal(r1, s1) and np.array_equal(r2, s2)
    g1, _ = generate_pair("model1", 6, 4)
    assert g1.shape == (6, 6) and g1[0, 1] == 0.2


def test_scale_to_covariance_matches_drawn_diagonal():
    r1, _ = generate_pair("model2", 7)
    seed = 21
    sigma = scale_to_covariance(r1, seed)
    # mirror the documented draw to recover the diagonal
    w = np.random.default_rng(seed).standard_normal(7)
    assert np.max(np.abs(np.diag(sigma) - np.abs(w))) < 1e-15
    scale = np.sqrt(np.abs(w))
    assert np.max(np.abs(sigma - np.outer(scale, scale) * r1)) < 1e-15


def test_scale_to_covariance_normalization_roundtrip():
    r1, r2 = generate_pair("model2", 15)
    for r, seed in ((r1, 5), (r2, 6)):
        sigma = scale_to_covariance(r, seed)
        assert np.max(np.abs(sample_correlation(sigma) - r)) < 1e-12


def test_scale_to_covariance_validates_input():
    with pytest.raises(ValidationError):
        scale_to_covariance(np.array([[1.0, 0.2], [0.3, 1.0]]), 0)  # asymmetric
    with pytest.raises(ValidationError):
        scale_to_covariance(np.array([[2.0, 0.0], [0.0, 1.0]]), 0)  # diagonal not 1


def test_mvn_sample_law_of_large_numbers():
    x = mvn_sample(np.eye(3), 10_000, 77)
    cov = moment_set(x).cov
    assert np.max(np.abs(cov - np.eye(3))) < 0.1


def test_mvn_sample_uncorrelated_population():
    n = 4000
    x = mvn_sample(np.diag([1.0, 4.0, 0.25]), n, 13)
    corr = moment_set(x).corr
    off = corr[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) <= 4.0 / np.sqrt(n)


def test_mvn_sample_shapes_and_determinism():
    x = mvn_sample(np.array([[1.0]]), 2, 3)
    assert x.data.shape == (2, 1) and np.all(np.isfinite(x.data))
    y = mvn_sample(np.array([[1.0]]), 2, 3)
    assert np.array_equal(x.data, y.data)


def test_mvn_sample_semidefinite_fallback_and_rejection():
    ones = np.ones((2, 2))  # rank one, Cholesky fails
    x = mvn_sample(ones, 50, 9)
    assert np.max(np.abs(x.data[:, 0] - x.data[:, 1])) < 1e-12
    with pytest.raises(NotPSDError):
        mvn_sample(np.array([[1.0, 2.0], [2.0, 1.0]]), 10, 0)


def test_benchmark_shape_contract():
    report = run_benchmark(
        "model2",
        [(10, 20, 20)],
        reps=2,
        rules=[ThresholdRule("soft"), HARD],
        estimators=["diff-corr", "sample-diff"],
        seed=5,
    )
    # 2 rules for the thresholding estimator + 1 rule-free baseline, 3 norms each
    assert len(report.rows) == (2 + 1) * 3
    assert all(np.isfinite(row.mean) and np.isfinite(row.sd) and row.sd >= 0 for row in report.rows)
    assert {row.norm for row in report.rows} == {"spectral", "l1", "frobenius"}
    assert all(row.reps == 2 for row in report.rows)


def test_benchmark_determinism():
    kwargs = dict(
        kind="model1",
        sizes=[(8, 16, 16)],
        reps=2,
        rules=[HARD],
        estimators=["diff-corr"],
        seed=12,
    )
    first = run_benchmark(**kwargs)
    second = run_benchmark(**kwargs)
    assert first.rows == second.rows


def test_benchmark_drops_cells_below_success_floor(monkeypatch):
    import diffcorr.simulation as sim

    real_fit = sim._FITS["diff-corr"]
    calls = {"n": 0}

    def flaky_fit(ds, rule, cfg):
        calls["n"] += 1
        if calls["n"] % 2 == 0:  # fail half the replications
            raise ValidationError("injected failure")
        return real_fit(ds, rule, cfg)

    monkeypatch.setitem(sim._FITS, "diff-corr", flaky_fit)
    report = run_benchmark(
        "model2",
        [(8, 16, 16)],
        reps=4,
        rules=[HARD],
        estimators=["diff-corr", "sample-diff"],
        seed=3,
    )
    # 2/4 successes is below the 80% floor: the flaky estimator's rows vanish
    assert {row.estimator for row in report.rows} == {"sample-diff"}
    assert len(report.failures) == 2
    assert all(est == "diff-corr" for est, _ in report.failures)


def test_benchmark_multiple_cells():
    report = run_benchmark(
        "model2",
        [(8, 16, 16), (12, 20, 24)],
        reps=2,
        rules=[HARD],
        estimators=["diff-corr"],
        seed=7,
    )
    assert len(report.rows) == 2 * 3
    first = report.cell(p=8, norm="spectral")
    second = report.cell(p=12, norm="spectral")
    assert (first.n1, first.n2) == (16, 16)
    assert (second.n1, second.n2) == (20, 24)


def test_benchmark_validation():
    with pytest.raises(ValidationError):
        run_benchmark("model2", [(8, 16, 16)], reps=1)
    with pytest.raises(ValidationError):
        run_benchmark("model9", [(8, 16, 16)], reps=2)
    with pytest.raises(ValidationError):
        run_benchmark("model2", [(8, 16, 16)], reps=2, estimators=["nope"])


@pytest.mark.parametrize("empty", ["rules", "estimators"])
def test_benchmark_rejects_empty_lists(empty):
    # only None selects the defaults; an empty list must not run them silently
    with pytest.raises(ValidationError):
        run_benchmark("model2", [(8, 16, 16)], reps=2, **{empty: []})
