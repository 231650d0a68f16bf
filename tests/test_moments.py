import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcorr import (
    DegenerateVariableError,
    MomentSet,
    SampleMatrix,
    TwoGroupDataset,
    ValidationError,
    correlation_variance,
    moment_set,
    sample_correlation,
)
from diffcorr import moments
from diffcorr import test_statistic as compute_statistic
from diffcorr.thresholding import _noise
from oracles import naive_corr, naive_cov, naive_eta, naive_theta, naive_xi
from properties import check_moment_invariances


def _by_hand(c):
    """The full moment set of the centered data c, built as sample_moments builds
    one but with a zero variance allowed: it standardizes its column to 0."""
    n = len(c)
    var = np.einsum("kj,kj->j", c, c) / n
    a = np.divide(c, np.sqrt(var), out=np.zeros_like(c), where=var > 0.0)
    dev = a * a - 1.0
    return MomentSet(a, a * a, var, np.einsum("kj,kj->j", dev, dev) / n, *c.shape)


def _block_at_once(x, r0, r1):
    """Rows r0:r1 against columns r0:p of the covariance, correlation and
    correlation noise of the data x, formed at once by the recipe of a row
    block: the Gram rows g of the standardized data with a unit diagonal,
    g sd_i sd_j with the variances on the diagonal, clip(g), and
    (a^2)^T a^2 / n - g^2 with its leading square symmetrized, clamped at 0."""
    n, b = len(x), r1 - r0
    c = x - x.mean(axis=0)
    var = np.einsum("kj,kj->j", c, c) / n
    a = (c / np.sqrt(var))[:, r0:]
    g = a[:, :b].T @ a / n
    np.fill_diagonal(g, 1.0)
    sd = np.sqrt(var[r0:])
    cov = g * sd[:b, None] * sd
    np.fill_diagonal(cov, var[r0:])
    sq = a * a
    noise = sq[:, :b].T @ sq / n - g * g
    noise[:, :b] = (noise[:, :b] + noise[:, :b].T) * 0.5
    return cov, np.clip(g, -1.0, 1.0), np.maximum(noise, 0.0)


def _upper(rows):
    """The entries of rows r0:r1, given from column r0 on, that lie on or above
    the diagonal."""
    return rows[np.triu(np.ones(rows.shape, dtype=bool))]


def test_covariance_single_column():
    x = SampleMatrix(np.array([[0.0], [2.0]]))
    assert moment_set(x).cov[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_covariance_divides_by_n():
    # three observations of one variable: centered squares sum to 2, 1/n gives 2/3
    x = SampleMatrix(np.array([[0.0], [1.0], [2.0]]))
    assert moment_set(x).cov[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_covariance_constant_column_is_zero():
    x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    cov = _by_hand(x - x.mean(axis=0)).cov
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


@pytest.mark.parametrize("variance", [np.nan, np.inf])
def test_correlation_rejects_a_variance_that_is_not_finite(variance):
    with pytest.raises(DegenerateVariableError, match="not positive and finite") as err:
        sample_correlation(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, variance]]))
    assert err.value.index == 2


@pytest.mark.parametrize(
    "shape", [(), (3,), (2, 3), (3, 2), (0, 2), (2, 2, 2)], ids=lambda shape: str(shape)
)
def test_correlation_rejects_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValidationError, match="square"):
        sample_correlation(np.ones(shape))


@pytest.mark.parametrize("scale", [1e-150, 1e-80, 1e80, 1e150])
def test_correlation_at_extreme_scales(scale):
    # variance products at these scales leave the float range
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 6)) @ (rng.standard_normal((6, 6)) + np.eye(6))
    want = moment_set(SampleMatrix(x)).corr
    got = moment_set(SampleMatrix(x * scale)).corr
    assert np.max(np.abs(got - want)) < 1e-15


def test_a_column_is_degenerate_exactly_when_its_values_are_equal():
    # equal values from 1e-310 to 1e300, either sign; those up to 1e160, whose
    # variance stays finite, with one entry moved by 1 to 3 ulps either way; and
    # 1e16 plus 0, 2 or 4 (2 is its ulp)
    rng = np.random.default_rng(30)
    base = np.geomspace(1e-310, 1e300, 500) * np.resize([1.0, -1.0], 500)
    small = base[np.abs(base) < 1e160]
    for n in (2, 3, 10, 57):
        moved, cols = np.tile(small, (n, 1)), np.arange(small.size)
        rows, steps = rng.integers(0, n, small.size), rng.integers(1, 4, small.size)
        toward = np.where(rng.random(small.size) < 0.5, -np.inf, np.inf)
        cells = moved[rows, cols]
        for step in range(3):
            cells = np.where(steps > step, np.nextafter(cells, toward), cells)
        moved[rows, cols] = cells
        offsets = 1e16 + 2.0 * rng.integers(0, 3, (n, 200)) * (rng.random(200) < 0.8)
        data = np.column_stack([np.tile(base, (n, 1)), moved, offsets])
        constant = (data == data[0]).all(axis=0)
        assert constant[:base.size].all() and not constant[base.size:][:small.size].any()
        assert np.array_equal(moments.sample_moments(data).degenerate, constant)


def test_covariance_noise_constant_data():
    x = np.zeros((4, 2)) + 3.0
    centered = x - x.mean(axis=0)
    # moment_set rejects constant data, so the moment set is built by hand
    m = _by_hand(centered)
    assert np.array_equal(_noise(m, "cov"), np.zeros((2, 2)))


def test_covariance_noise_two_point_column():
    # both centered products equal the covariance, so the spread is zero
    x = SampleMatrix(np.array([[0.0], [2.0]]))
    assert _noise(moment_set(x), "cov")[0, 0] == 0.0


def test_covariance_noise_against_double_loop():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 2)) * np.array([1.0, 2.5]) + 1.0
    got = _noise(moment_set(SampleMatrix(x)), "cov")
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
    cov_noise = _noise(m, "cov")
    assert np.max(np.abs(cov_noise - theta)) < 1e-12
    assert np.all(cov_noise >= 0.0)
    corr_noise = _noise(m, "corr")
    expected = np.array(naive_xi(theta, naive_cov(x)))
    assert np.max(np.abs(corr_noise - expected)) < 1e-12
    assert np.all(corr_noise >= 0.0)


def test_correlation_noise_examples():
    # two-point columns: every centered product equals its mean, so no noise
    x = SampleMatrix(np.array([[0.0, 1.0], [2.0, 7.0]]))
    assert np.array_equal(_noise(moment_set(x), "corr"), np.zeros((2, 2)))
    # uncorrelated +/-2 and +/-3 columns: cov_noise_01 = 36 = var_0 * var_1
    x = SampleMatrix(np.array([[2.0, 3.0], [-2.0, 3.0], [2.0, -3.0], [-2.0, -3.0]]))
    assert _noise(moment_set(x), "corr")[0, 1] == pytest.approx(1.0, abs=1e-15)


def test_correlation_noise_against_division():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((8, 3))
    got = _noise(moment_set(SampleMatrix(x)), "corr")
    expected = np.array(naive_xi(naive_theta(x, naive_cov(x)), naive_cov(x)))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_correlation_variance_rejects_constant_data():
    with pytest.raises(DegenerateVariableError):
        moment_set(SampleMatrix(np.full((5, 2), 7.0)))


def test_correlation_variance_diagonal_is_exactly_zero():
    rng = np.random.default_rng(3)
    x = SampleMatrix(rng.standard_normal((9, 4)))
    var = correlation_variance(moment_set(x))
    assert np.array_equal(np.diag(var), np.zeros(4))
    assert np.array_equal(var, var.T)
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
    got = correlation_variance(moment_set(SampleMatrix(x)))
    expected = np.array(naive_eta(x))
    assert np.max(np.abs(got - expected)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40))
def test_correlation_variance_on_adversarial_columns(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 7))
    x[:, 1] += 1e6  # heavy offset
    x[:, 2] = rng.integers(0, 2, size=n)
    x[:2, 2] = (0.0, 1.0)  # both values present
    x[:, 4] = x[:, 3] + 1e-6 * rng.standard_normal(n)  # near-collinear pair
    x[:, 6] = x[:, 5]  # exact duplicate
    got = correlation_variance(moment_set(SampleMatrix(x)))
    expected = np.array(naive_eta(x))
    assert np.max(np.abs(got - expected)) < 1e-10
    assert np.array_equal(got, got.T)
    assert np.array_equal(np.diag(got), np.zeros(7))


def _per_sample_variance(x, m, i, j):
    """theta_ij straight from its definition, on the program's variances and
    correlation: at a near-collinear pair the per-sample terms cancel to a
    few digits, so the value moves with the last bits of every input, and an
    oracle with its own moments agrees only to about 1e-3."""
    a = (x - x.mean(axis=0)) / np.sqrt(np.diag(m.cov))
    term = a[:, i] * a[:, j] - 0.5 * m.corr[i, j] * (a[:, i] ** 2 + a[:, j] ** 2)
    return float(np.mean(term * term))


def test_correlation_variance_recomputes_cancelling_pairs():
    # the Gram expansion of theta_03 cancels to below 0 and would be clamped
    # to 0; the pair must be recomputed from the per-sample formula
    x = _near_collinear(np.random.default_rng(8))
    sm = SampleMatrix(x)
    m = moment_set(sm)
    got = correlation_variance(m)
    want = _per_sample_variance(x, m, 0, 3)
    assert 0.0 < want < 1e-20
    assert got[0, 3] == got[3, 0]
    assert abs(got[0, 3] - want) <= 1e-12 * want
    naive = naive_eta(x)[0][3]
    assert abs(got[0, 3] - naive) <= 1e-2 * naive
    # a zero theta in both groups would make the pair's denominator zero
    _, t_pairs = compute_statistic(TwoGroupDataset(sm, sm))
    assert t_pairs[2] == 0.0  # pair (0, 3) is the third of row 0


def test_moment_set_consistent_with_pieces():
    rng = np.random.default_rng(21)
    x = SampleMatrix(rng.standard_normal((10, 3)))
    m = moment_set(x)
    centered = x.data - x.data.mean(axis=0)
    assert np.array_equal(m.var, np.einsum("kj,kj->j", centered, centered) / 10)
    assert np.array_equal(m.a, centered / np.sqrt(m.var))
    assert np.array_equal(m.sq, m.a * m.a)
    assert np.array_equal(m.corr_noise_jj, np.mean((m.a * m.a - 1.0) ** 2, axis=0))
    cov, corr, corr_noise = _block_at_once(x.data, 0, 3)  # one block holds every row
    assert np.array_equal(_upper(m.cov), _upper(cov))
    assert np.array_equal(_upper(m.corr), _upper(corr))
    assert np.array_equal(_upper(_noise(m, "corr")), _upper(corr_noise))
    cov_noise = _noise(m, "cov")
    assert np.array_equal(cov_noise, np.outer(m.var, m.var) * _noise(m, "corr"))
    for values in (m.cov, m.corr, cov_noise):
        assert np.array_equal(values, values.T)
    assert (m.n, m.p) == (10, 3)


def test_streaming_matches_double_loop_on_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = rng.standard_normal((10, 4)) * rng.uniform(0.5, 2.0, size=4)
        got = _noise(moment_set(SampleMatrix(x)), "cov")
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


def test_correlation_variance_blocks_match_the_full_form():
    rng = np.random.default_rng(5)
    for p, n in ((2, 9), (7, 30), (13, 20), (25, 4)):
        m = moment_set(SampleMatrix(rng.standard_normal((n, p)) @ rng.standard_normal((p, p))))
        full = correlation_variance(m)
        for step in (1, 2, 3, p - 1):
            for r0 in range(0, p, step):
                rows = slice(r0, min(r0 + step, p))
                block = correlation_variance(m.rows(r0, rows.stop))
                assert block.shape == (rows.stop - r0, p - r0)
                # the same sums from Gram products of other shapes: equal
                # up to the last bits of a BLAS dot product
                assert np.max(np.abs(block - full[rows, r0:])) <= 1e-14 * np.max(full)


def test_correlation_variance_recomputes_cancelling_pairs_in_a_later_block(monkeypatch):
    # pair (5, 7) is near-collinear; rows 3..5 hold it with columns 3..8
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 9))
    x[:, 7] = x[:, 5] + 1e-6 * rng.standard_normal(40)
    sm = SampleMatrix(x)
    m = moment_set(sm)
    want = _per_sample_variance(x, m, 5, 7)
    assert 0.0 < want < 1e-20
    block = correlation_variance(m.rows(3, 6))
    assert abs(block[2, 4] - want) <= 1e-12 * want
    monkeypatch.setattr(moments, "_BLOCK_ROWS", 3)
    _, t_pairs = compute_statistic(TwoGroupDataset(sm, sm))
    assert np.array_equal(t_pairs, np.zeros(36))


def test_correlation_in_row_blocks_is_the_outer_product_form(monkeypatch):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((12, 11)) * np.logspace(-150, 150, 11)
    for rows in (moments._BLOCK_ROWS, 1, 2, 5):
        monkeypatch.setattr(moments, "_BLOCK_ROWS", rows)
        corr = moment_set(SampleMatrix(x)).corr
        assert np.array_equal(corr, corr.T)
        for r0, r1 in moments.triangle_blocks(11):
            # each block's rows, from the Gram product of that block formed at once
            want = _block_at_once(x, r0, r1)[1]
            assert np.array_equal(_upper(corr[r0:r1, r0:]), _upper(want))


def test_triangle_blocks_cover_the_rows_once_in_blocks_of_at_least_the_block_rows(monkeypatch):
    for rows in range(1, 131):
        monkeypatch.setattr(moments, "_BLOCK_ROWS", rows)
        for n_rows in range(1, 301):
            blocks = moments.triangle_blocks(n_rows)
            starts, stops = zip(*blocks)
            assert starts[0] == 0 and stops[-1] == n_rows
            assert list(starts[1:]) == list(stops[:-1])  # contiguous, so each row once
            sizes = [r1 - r0 for r0, r1 in blocks]
            assert max(sizes) < 2 * rows
            # a short remainder joins the last block
            assert len(blocks) == 1 or min(sizes) >= rows, (rows, n_rows)


def test_a_full_set_forms_its_moments_from_row_blocks(monkeypatch):
    monkeypatch.setattr(moments, "_BLOCK_ROWS", 3)  # blocks of 3, 3 and 4 rows
    rng = np.random.default_rng(10)
    x = rng.standard_normal((14, 10)) @ (rng.standard_normal((10, 10)) + np.eye(10))
    first = moment_set(SampleMatrix(x))
    corr = first.corr  # formed before any covariance
    m = moment_set(SampleMatrix(x))
    cov = m.cov
    assert np.array_equal(cov, cov.T) and np.array_equal(corr, corr.T)
    assert np.array_equal(np.diag(cov), m.var)
    assert np.max(np.abs(cov - np.array(naive_cov(x)))) < 1e-12
    assert np.array_equal(corr, m.corr)  # here read after the covariance
    assert np.max(np.abs(corr - np.array(naive_corr(naive_cov(x))))) < 1e-14
    for r0, r1 in moments.triangle_blocks(10):
        block = m.rows(r0, r1)
        want_cov, want_corr, _ = _block_at_once(x, r0, r1)
        for got, full, want in ((block.cov, cov, want_cov), (block.corr, corr, want_corr)):
            assert np.array_equal(_upper(got), _upper(full[r0:r1, r0:]))
            assert np.array_equal(_upper(got), _upper(want))


def test_reading_the_correlation_forms_no_covariance():
    p = 600
    m = moment_set(SampleMatrix(np.random.default_rng(6).standard_normal((60, p))))
    tracemalloc.start()
    try:
        m.corr
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the correlation and its row blocks; a covariance beside it would pass the bound
    assert peak <= 2 * p * p * 8
