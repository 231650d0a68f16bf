"""Entrywise sample statistics for one group.

A moment set holds one group's centered data, column variances, covariance
and correlation, in full or by row block. Every statistic divides by n (not n - 1);
the threshold formulas downstream are calibrated to that convention.

correlation_variance gives the per-entry variance theta_ij of a correlation
entry with the first-order correction terms, the denominator of the equality
test's statistic, in full or one row block at a time. It expands theta into
Gram products of the standardized data and recomputes from the per-sample
formula the few pairs where that expansion cancels too much to trust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SampleMatrix
from .errors import DegenerateVariableError

# a pair whose expansion terms sum in magnitude to more than this multiple of
# its theta is recomputed from the per-sample formula
_CANCELLATION_GUARD = 100.0
# p x p results are formed this many entries (1 MiB of floats) at a time
_BLOCK_ELEMENTS = 2**17


@dataclass(frozen=True)
class MomentSet:
    """One sample's centered data, column variances, covariance and correlation:
    all of them, or a row block r0:r1 with cov and corr of rows r0:r1 against
    columns r0:p and centered and var of columns r0:p (row i is column i)."""

    centered: np.ndarray
    var: np.ndarray
    cov: np.ndarray
    corr: np.ndarray
    n: int
    p: int


def _covariance(c: np.ndarray) -> np.ndarray:
    """Covariance of the centered data c."""
    cov = c.T @ c / c.shape[0]
    # matmul does not guarantee bitwise symmetry
    return (cov + cov.T) * 0.5


def _positive_variances(var: np.ndarray, names=None) -> np.ndarray:
    bad = np.flatnonzero(var <= 0.0)
    if bad.size:
        raise DegenerateVariableError(int(bad[0]), names[bad[0]] if names else None)
    return var


def row_blocks(p: int, n_rows: int | None = None) -> list[slice]:
    """Consecutive slices of the first n_rows (default p) rows of a p-column
    array, each at most _BLOCK_ELEMENTS entries (and at least one row)."""
    step = max(1, _BLOCK_ELEMENTS // max(p, 1))
    n_rows = p if n_rows is None else n_rows
    return [slice(r0, min(r0 + step, n_rows)) for r0 in range(0, n_rows, step)]


def _correlation(cov: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Correlation rows from covariance rows and positive variances (see MomentSet)."""
    # var = r * 4^k with r in [0.5, 2): scaling cov by the powers of two is
    # exact, and sqrt(r_i r_j) rounds to r when r_i == r_j, so two identical
    # columns get exactly 1 and no product of variances leaves the float range
    mantissa, exponent = np.frexp(var)
    half = exponent // 2
    r = np.ldexp(mantissa, exponent - 2 * half)
    b = cov.shape[0]
    corr = np.ldexp(cov, -half[:b, None])
    np.ldexp(corr, -half, out=corr)
    for rows in row_blocks(r.size, b):
        denom = r[rows, None] * r
        corr[rows] /= np.sqrt(denom, out=denom)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)  # the leading b x b square's diagonal
    return corr


def sample_correlation(cov: np.ndarray) -> np.ndarray:
    """Correlation from a covariance matrix: unit diagonal, entries clamped
    to [-1, 1]; any non-positive variance is an error."""
    cov = np.asarray(cov, dtype=float)
    return _correlation(cov, _positive_variances(np.diag(cov)))


def moment_set(x: SampleMatrix) -> MomentSet:
    """Center one sample and compute its covariance and correlation."""
    centered = x.data - x.data.mean(axis=0)
    cov = _covariance(centered)
    var = _positive_variances(np.diag(cov).copy(), x.names)
    return MomentSet(centered, var, cov, _correlation(cov, var), x.n, x.p)


def centered_columns(data: np.ndarray, names=None) -> tuple[np.ndarray, np.ndarray]:
    """A sample's centered data and column variances, which must be positive."""
    centered = data - data.mean(axis=0)
    var = np.einsum("kj,kj->j", centered, centered) / data.shape[0]
    return centered, _positive_variances(var, names)


def moment_rows(centered: np.ndarray, var: np.ndarray, rows: slice) -> MomentSet:
    """Row block r0:r1 of the moment set of centered_columns' output."""
    n, p = centered.shape
    r0, r1, _ = rows.indices(p)
    c, var = centered[:, r0:], var[r0:]
    cov = c[:, :r1 - r0].T @ c / n
    return MomentSet(centered=c, var=var, cov=cov, corr=_correlation(cov, var), n=n, p=p)


def standardized(moments: MomentSet) -> MomentSet:
    """The moment set of a sample's standardized data, whose covariance is
    the sample's correlation: one p x p array where a moment set holds two."""
    a = moments.centered / np.sqrt(_positive_variances(moments.var))
    return MomentSet(a, np.ones(moments.p), moments.corr, moments.corr, moments.n, moments.p)


def correlation_variance(moments: MomentSet, rows: slice | None = None) -> np.ndarray:
    """Per-entry variance theta of a sample correlation entry including the
    first-order correction terms: the p x p matrix, or with rows=slice(r0, r1)
    its block theta[r0:r1, r0:].

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
    from the mean of squares above, p pairs (an n x p term) at a time. The
    working set is a few arrays of the result's size. Entries below the
    diagonal mirror those above it; the diagonal is 0 and all are >= 0.
    """
    p, n = moments.p, moments.n
    r0, r1, _ = (rows or slice(0, p)).indices(p)
    b = r1 - r0
    # row i of the block is variable r0 + i, which is column i of a
    a = moments.centered[:, r0:] / np.sqrt(_positive_variances(moments.var)[r0:])
    sq = a * a
    cube = sq * a
    half_corr = 0.5 * moments.corr[r0:r1, r0:]
    m22 = sq[:, :b].T @ sq / n
    m4 = np.einsum("kj,kj->j", sq, sq) / n
    # the terms that are never negative: M22_ij + h_ij^2 (M4_i + 2 M22_ij + M4_j)
    plus = (2.0 * m22 + m4[:b, None] + m4) * half_corr * half_corr + m22
    del m22
    m31, m13 = cube[:, :b].T @ a / n, a[:, :b].T @ cube / n  # M31_ij, M31_ji
    theta = plus - 2.0 * half_corr * (m31 + m13)
    magnitude = np.abs(m31, out=m31)
    magnitude += np.abs(m13, out=m13)
    del m13
    magnitude *= 2.0 * np.abs(half_corr)
    magnitude += plus
    pairs_i, pairs_j = np.nonzero(np.triu(magnitude > _CANCELLATION_GUARD * theta, k=1))
    for start in range(0, pairs_i.size, p):
        i, j = pairs_i[start:start + p], pairs_j[start:start + p]
        term = a[:, i] * a[:, j]
        term -= half_corr[i, j] * (sq[:, i] + sq[:, j])
        theta[i, j] = np.einsum("kj,kj->j", term, term) / n
    square = theta[:, :b]
    np.copyto(square, square.T, where=np.tri(b, k=-1, dtype=bool))
    np.fill_diagonal(square, 0.0)
    return np.maximum(theta, 0.0, out=theta)
