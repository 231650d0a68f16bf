"""Entrywise sample statistics for one group.

All statistics center the data first and divide by n (not n - 1); the
threshold formulas downstream are calibrated to that convention. Besides the
sample covariance and correlation, two per-entry noise levels are computed:

- cov_noise[i, j]: variance of the centered cross products
  (x_i - mean_i)(x_j - mean_j), the noise level of a covariance entry.
- corr_noise[i, j]: cov_noise normalized by the variance product, the noise
  level of a correlation entry.

correlation_variance gives the per-entry variance theta_ij of a correlation
entry with the first-order correction terms, the denominator of the equality
test's statistic. It expands theta into two Gram products of the
standardized data and recomputes from the per-sample formula the few pairs
where that expansion cancels too much to trust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SampleMatrix
from .errors import DegenerateVariableError

# a pair whose expansion terms sum in magnitude to more than this multiple of
# its theta is recomputed from the per-sample formula
_CANCELLATION_GUARD = 100.0


@dataclass(frozen=True)
class MomentSet:
    """All entrywise statistics of one sample."""

    cov: np.ndarray
    corr: np.ndarray
    cov_noise: np.ndarray
    corr_noise: np.ndarray
    n: int
    p: int


def _centered(data: np.ndarray) -> np.ndarray:
    return data - data.mean(axis=0)


def _covariance(data: np.ndarray) -> np.ndarray:
    n = data.shape[0]
    c = _centered(data)
    cov = c.T @ c / n
    # matmul does not guarantee bitwise symmetry
    return (cov + cov.T) * 0.5


def _positive_variances(cov: np.ndarray) -> np.ndarray:
    var = np.diag(cov)
    bad = np.flatnonzero(var <= 0.0)
    if bad.size:
        raise DegenerateVariableError(int(bad[0]))
    return var


def _correlation(cov: np.ndarray) -> np.ndarray:
    var = _positive_variances(cov)
    scale = np.sqrt(var)
    corr = cov / np.outer(scale, scale)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def _product_variance(c: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Mean over samples of (c_i c_j - cov_ij)^2 for centered data c, as
    E[c_i^2 c_j^2] - cov_ij^2 from one Gram product of the squared data;
    symmetrized, and clamped at 0 against rounding."""
    sq = c * c
    noise = sq.T @ sq / c.shape[0] - cov * cov
    return np.maximum((noise + noise.T) * 0.5, 0.0)


def sample_correlation(cov: np.ndarray) -> np.ndarray:
    """Correlation from a covariance matrix: unit diagonal, entries clamped
    to [-1, 1]; any non-positive variance is an error."""
    return _correlation(np.asarray(cov, dtype=float))


def moment_set(x: SampleMatrix) -> MomentSet:
    """Compute every entrywise statistic of one sample in a single pass."""
    cov = _covariance(x.data)
    corr = _correlation(cov)
    noise = _product_variance(_centered(x.data), cov)
    var = np.diag(cov)
    return MomentSet(
        cov=cov,
        corr=corr,
        cov_noise=noise,
        corr_noise=noise / np.outer(var, var),
        n=x.n,
        p=x.p,
    )


def correlation_variance(x: SampleMatrix, moments: MomentSet) -> np.ndarray:
    """Per-entry variance of a sample correlation entry including the
    first-order correction terms.

    theta_ij is the mean over samples of
        (a_i a_j - h_ij (a_i^2 + a_j^2))^2,  h = corr / 2,
    where a is the standardized centered data. Expanded, with the Gram
    products M22 = (a^2)^T a^2 / n, M31 = (a^3)^T a / n and M4 = diag(M22),
        theta_ij = M22_ij - 2 h_ij (M31_ij + M31_ji)
                   + h_ij^2 (M4_i + 2 M22_ij + M4_j).
    The terms nearly cancel where a pair is close to collinear, and the sum
    then keeps few correct digits (Chan, Golub and LeVeque 1983). So the same
    sum is also formed with every term in absolute value, and each pair i < j
    whose magnitude exceeds _CANCELLATION_GUARD times its theta is recomputed
    from the mean of squares above. The working set is a few p x p arrays
    (the recomputation takes at most p pairs at a time, an n x p term). The
    result is exactly symmetric, its diagonal is exactly zero and it is
    clamped at 0.
    """
    var = _positive_variances(moments.cov)
    n, p = x.n, x.p
    a = _centered(x.data) / np.sqrt(var)
    sq = a * a
    half_corr = 0.5 * moments.corr
    m22 = sq.T @ sq
    m22 /= n
    m31 = (sq * a).T @ a
    m31 /= n
    # the terms that are never negative: M22_ij + h_ij^2 (M4_i + 2 M22_ij + M4_j)
    plus = m22 * 2.0
    m4 = np.diag(m22).copy()
    plus += m4[:, None]
    plus += m4
    plus *= half_corr
    plus *= half_corr
    plus += m22
    del m22
    theta = m31 + m31.T
    theta *= half_corr
    theta *= -2.0
    theta += plus
    np.abs(m31, out=m31)
    magnitude = m31 + m31.T
    del m31
    magnitude *= np.abs(half_corr)
    magnitude *= 2.0
    magnitude += plus
    del plus
    theta += theta.T
    theta *= 0.5
    rows, cols = np.nonzero(np.triu(magnitude > _CANCELLATION_GUARD * theta, k=1))
    del magnitude
    for start in range(0, rows.size, p):
        i, j = rows[start:start + p], cols[start:start + p]
        term = a[:, i] * a[:, j]
        term -= half_corr[i, j] * (sq[:, i] + sq[:, j])
        theta[i, j] = theta[j, i] = np.einsum("kj,kj->j", term, term) / n
    np.fill_diagonal(theta, 0.0)
    return np.maximum(theta, 0.0, out=theta)
