"""Entrywise sample statistics for one group.

A moment set holds one group's data, centered once, with its sample
covariance and correlation. Every statistic divides by n (not n - 1);
the threshold formulas downstream are calibrated to that convention.

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
    """The centered data of one sample with its covariance and correlation."""

    centered: np.ndarray
    cov: np.ndarray
    corr: np.ndarray
    n: int
    p: int


def _covariance(c: np.ndarray) -> np.ndarray:
    """Covariance of the centered data c."""
    cov = c.T @ c / c.shape[0]
    # matmul does not guarantee bitwise symmetry
    return (cov + cov.T) * 0.5


def _positive_variances(cov: np.ndarray, names=None) -> np.ndarray:
    var = np.diag(cov)
    bad = np.flatnonzero(var <= 0.0)
    if bad.size:
        raise DegenerateVariableError(int(bad[0]), names[bad[0]] if names else None)
    return var


def _correlation(cov: np.ndarray, names=None) -> np.ndarray:
    # var = r * 4^k with r in [0.5, 2): scaling cov by the powers of two is
    # exact, and sqrt(r_i r_j) rounds to r when r_i == r_j, so two identical
    # columns get exactly 1 and no product of variances leaves the float range
    mantissa, exponent = np.frexp(_positive_variances(cov, names))
    half = exponent // 2
    r = np.ldexp(mantissa, exponent - 2 * half)
    corr = np.ldexp(cov, -half[:, None])
    np.ldexp(corr, -half, out=corr)
    denom = np.outer(r, r)
    corr /= np.sqrt(denom, out=denom)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def sample_correlation(cov: np.ndarray) -> np.ndarray:
    """Correlation from a covariance matrix: unit diagonal, entries clamped
    to [-1, 1]; any non-positive variance is an error."""
    return _correlation(np.asarray(cov, dtype=float))


def moment_set(x: SampleMatrix) -> MomentSet:
    """Center one sample and compute its covariance and correlation."""
    centered = x.data - x.data.mean(axis=0)
    cov = _covariance(centered)
    corr = _correlation(cov, x.names)
    return MomentSet(centered=centered, cov=cov, corr=corr, n=x.n, p=x.p)


def correlation_variance(moments: MomentSet) -> np.ndarray:
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
    n, p = moments.n, moments.p
    a = moments.centered / np.sqrt(var)
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
