"""Entrywise sample statistics for one group.

All statistics center the data first and divide by n (not n - 1); the
threshold formulas downstream are calibrated to that convention. Besides the
sample covariance and correlation, two per-entry noise levels are computed:

- cov_noise[i, j]: variance of the centered cross products
  (x_i - mean_i)(x_j - mean_j), the noise level of a covariance entry.
- corr_noise[i, j]: cov_noise normalized by the variance product, the noise
  level of a correlation entry.

correlation_variance adds the first-order correction terms for the variance
of a single correlation entry; it feeds the equality-test denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SampleMatrix
from .errors import DegenerateVariableError

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

    Computed as the mean over samples of
        (a_i a_j - (corr_ij / 2) * (a_i^2 + a_j^2))^2
    where a is the standardized centered data. Row i of the result is reduced
    from one n x p term, so the working set is a few n x p arrays. The
    diagonal is exactly zero.
    """
    var = _positive_variances(moments.cov)
    a = _centered(x.data) / np.sqrt(var)
    sq = a * a
    half_corr = 0.5 * moments.corr
    acc = np.empty_like(moments.corr)
    for i in range(x.p):
        term = a[:, i, None] * a
        term -= half_corr[i] * (sq[:, i, None] + sq)
        acc[i] = np.einsum("kj,kj->j", term, term)
    return acc / x.n
