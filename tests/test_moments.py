import numpy as np
import pytest

from diffcorr import (
    DegenerateVariableError,
    SampleMatrix,
    correlation_variance,
    moment_set,
    sample_correlation,
)
from diffcorr.moments import _covariance, _product_variance
from oracles import naive_corr, naive_cov, naive_eta, naive_theta, naive_xi
from properties import check_moment_invariances


def test_covariance_single_column():
    x = SampleMatrix(np.array([[0.0], [2.0]]))
    assert moment_set(x).cov[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_covariance_divides_by_n():
    # three observations of one variable: centered squares sum to 2, 1/n gives 2/3
    x = SampleMatrix(np.array([[0.0], [1.0], [2.0]]))
    assert moment_set(x).cov[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_covariance_constant_column_is_zero():
    x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    cov = _covariance(x)
    assert cov[0, 0] == 0.0 and cov[0, 1] == 0.0


def test_covariance_against_double_loop():
    x = np.array(
        [
            [1.2, -0.7, 3.1],
            [0.4, 0.0, -1.5],
            [2.2, 1.1, 0.3],
            [-0.9, 0.8, 1.9],
            [1.5, -2.0, 0.6],
        ]
    )
    got = moment_set(SampleMatrix(x)).cov
    expected = np.array(naive_cov(x))
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.array_equal(got, got.T)


def test_correlation_examples():
    cov = np.array([[4.0, 6.0], [6.0, 9.0]])
    corr = sample_correlation(cov)
    assert corr[0, 1] == 1.0 and corr[1, 0] == 1.0
    assert np.array_equal(np.diag(corr), np.ones(2))

    assert np.array_equal(sample_correlation(np.diag([2.0, 5.0, 0.1])), np.eye(3))


def test_correlation_against_formula():
    cov = np.array([[2.0, 0.3, -0.8], [0.3, 1.5, 0.4], [-0.8, 0.4, 3.0]])
    got = sample_correlation(cov)
    expected = np.array(naive_corr(cov.tolist()))
    assert np.max(np.abs(got - expected)) < 1e-14


def test_correlation_rejects_zero_variance():
    with pytest.raises(DegenerateVariableError) as err:
        sample_correlation(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert err.value.index == 1


def test_covariance_noise_constant_data():
    x = np.zeros((4, 2)) + 3.0
    centered = x - x.mean(axis=0)
    assert np.array_equal(_product_variance(centered, _covariance(x)), np.zeros((2, 2)))


def test_covariance_noise_two_point_column():
    # both centered products equal the covariance, so the spread is zero
    x = SampleMatrix(np.array([[0.0], [2.0]]))
    assert moment_set(x).cov_noise[0, 0] == 0.0


def test_covariance_noise_against_double_loop():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 2)) * np.array([1.0, 2.5]) + 1.0
    got = moment_set(SampleMatrix(x)).cov_noise
    expected = np.array(naive_theta(x, naive_cov(x)))
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.all(got >= 0.0)


def test_noise_on_heavy_offset_and_two_valued_columns():
    rng = np.random.default_rng(12)
    n = 10
    offset = 1e6 + rng.standard_normal(n)
    binary = rng.integers(0, 2, size=n).astype(float)
    binary[:2] = (0.0, 1.0)  # both values present
    # centered square is constant, so the noise is zero; the Gram form rounds below it
    balanced = np.tile([0.9, 8.7], n // 2)
    x = np.column_stack([offset, binary, balanced, offset + 2.0 * binary])
    m = moment_set(SampleMatrix(x))
    theta = np.array(naive_theta(x, naive_cov(x)))
    assert np.max(np.abs(m.cov_noise - theta)) < 1e-12
    assert np.all(m.cov_noise >= 0.0)
    corr_noise = m.corr_noise
    expected = np.array(naive_xi(theta, naive_cov(x)))
    assert np.max(np.abs(corr_noise - expected)) < 1e-12
    assert np.all(corr_noise >= 0.0)


def test_correlation_noise_examples():
    # two-point columns: every centered product equals its mean, so no noise
    x = SampleMatrix(np.array([[0.0, 1.0], [2.0, 7.0]]))
    assert np.array_equal(moment_set(x).corr_noise, np.zeros((2, 2)))
    # uncorrelated +/-2 and +/-3 columns: cov_noise_01 = 36 = var_0 * var_1
    x = SampleMatrix(np.array([[2.0, 3.0], [-2.0, 3.0], [2.0, -3.0], [-2.0, -3.0]]))
    assert moment_set(x).corr_noise[0, 1] == pytest.approx(1.0, abs=1e-15)


def test_correlation_noise_against_division():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((8, 3))
    got = moment_set(SampleMatrix(x)).corr_noise
    expected = np.array(naive_xi(naive_theta(x, naive_cov(x)), naive_cov(x)))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_correlation_variance_rejects_constant_data():
    with pytest.raises(DegenerateVariableError):
        moment_set(SampleMatrix(np.full((5, 2), 7.0)))


def test_correlation_variance_diagonal_is_exactly_zero():
    rng = np.random.default_rng(3)
    x = SampleMatrix(rng.standard_normal((9, 4)))
    m = moment_set(x)
    var = correlation_variance(x, m)
    assert np.array_equal(np.diag(var), np.zeros(4))
    assert np.all(var >= 0.0)


def _near_collinear(rng):
    x = rng.standard_normal((40, 6))
    x[:, 3] = x[:, 0] + 1e-6 * rng.standard_normal(40)
    return x


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(
            lambda rng: rng.standard_normal((8, 2)) @ np.array([[1.0, 0.4], [0.0, 0.9]]),
            id="n8-p2",
        ),
        pytest.param(lambda rng: rng.standard_normal((3, 7)), id="n3-p7"),
        pytest.param(
            lambda rng: rng.standard_normal((30, 5)) @ np.triu(np.full((5, 5), 0.5)),
            id="n30-p5",
        ),
        pytest.param(lambda rng: rng.standard_normal((300, 4)) + 3.0, id="n300-p4"),
        pytest.param(_near_collinear, id="n40-p6-near-collinear"),
    ],
)
def test_correlation_variance_against_double_loop(build):
    x = build(np.random.default_rng(8))
    sm = SampleMatrix(x)
    got = correlation_variance(sm, moment_set(sm))
    expected = np.array(naive_eta(x))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_moment_set_consistent_with_pieces():
    rng = np.random.default_rng(21)
    x = SampleMatrix(rng.standard_normal((10, 3)))
    m = moment_set(x)
    assert np.array_equal(m.cov, _covariance(x.data))
    assert np.array_equal(m.corr, sample_correlation(m.cov))
    assert np.array_equal(m.cov_noise, _product_variance(x.data - x.data.mean(axis=0), m.cov))
    var = np.diag(m.cov)
    assert np.array_equal(m.corr_noise, m.cov_noise / np.outer(var, var))
    assert (m.n, m.p) == (10, 3)


def test_streaming_matches_double_loop_on_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = rng.standard_normal((10, 4)) * rng.uniform(0.5, 2.0, size=4)
        got = moment_set(SampleMatrix(x)).cov_noise
        expected = np.array(naive_theta(x, naive_cov(x)))
        assert np.max(np.abs(got - expected)) < 1e-10


def test_invariances():
    check_moment_invariances(seed=0)
    check_moment_invariances(seed=123)


def test_covariance_is_positive_semidefinite():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n, p = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        cov = moment_set(SampleMatrix(rng.standard_normal((n, p)))).cov
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10


def test_corr_bounds_after_clamping():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((6, 1))
    # nearly collinear columns push the raw ratio marginally past 1
    x = SampleMatrix(np.hstack([base, base * 3.0 + 1e-14 * rng.standard_normal((6, 1))]))
    m = moment_set(x)
    assert np.all(np.abs(m.corr) <= 1.0)
    assert np.array_equal(np.diag(m.corr), np.ones(2))
