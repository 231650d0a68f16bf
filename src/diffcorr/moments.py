"""Entrywise sample statistics for one group, and the row blocks every p x p
statistic is formed on.

A moment set standardizes one group's data once, a = centered / sqrt(var),
dividing by n (not n - 1; the threshold formulas downstream are calibrated to
that convention). A block of rows r0:r1 of the upper triangle (MomentSet.rows)
forms one Gram product g = a[:, r0:r1]^T a[:, r0:] / n and reads from it its
correlation rows (g clamped to [-1, 1]), covariance rows (g_ij sd_i sd_j) and
correlation noise levels ((a^2)^T a^2 / n - g^2), so the correlation
statistics do not depend on the data's scale. A full set forms its p x p
matrices from its row blocks when they are read; the fit, cross-validation and
the equality test read only row blocks. Within _shared_moments (a simulate
replication) each sample's and each fold part's set is formed once.

row_blocks is the one producer of those row blocks, _BLOCK_ROWS at a time. It
slices each block when asked for it; a block nobody reads forms no Gram product.

correlation_variance gives the per-entry variance theta_ij of a correlation
entry with the first-order correction terms, the denominator of the equality
test's statistic. It expands theta into Gram products of the standardized
data and recomputes from the per-sample formula the few pairs where that
expansion cancels too much to trust.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import SampleMatrix
from .errors import DegenerateVariableError, ValidationError

# a pair whose expansion terms sum in magnitude to more than this multiple of
# its theta is recomputed from the per-sample formula
_CANCELLATION_GUARD = 100.0
# rows per block of the upper triangle (see row_blocks)
_BLOCK_ROWS = 64
_SHARED = contextvars.ContextVar("shared_moments")  # (id(sample), rows) -> (sample, set)


@dataclass(frozen=True, repr=False)
class MomentSet:
    """One sample's standardized data a, its squares sq, column variances var
    and corr_noise_jj = mean((a_j^2 - 1)^2): of all p columns, or of the columns
    r0:p of a row block of block_rows rows from r0 (row i is column i). A full
    set's degenerate marks the columns sample_moments standardized to zeros, and
    its gram is None. Correlation rows put a column and its copy at exactly +-1
    (see _form_corr). gram, cov, corr and corr_noise are formed when first read,
    and then kept: a row block's by _form_<name>, a full set's from its blocks."""

    a: np.ndarray
    sq: np.ndarray
    var: np.ndarray
    corr_noise_jj: np.ndarray
    n: int
    p: int
    block_rows: int | None = None
    degenerate: np.ndarray | None = None

    def _formed(self, name: str) -> np.ndarray:
        if self.block_rows is None:
            return _symmetric(self, lambda block: getattr(block, name))
        return getattr(self, "_form_" + name)()

    gram = cached_property(lambda self: None if self.block_rows is None else self._form_gram())
    cov = cached_property(lambda self: self._formed("cov"))
    corr = cached_property(lambda self: self._formed("corr"))
    corr_noise = cached_property(lambda self: self._formed("corr_noise"))

    def _form_gram(self) -> np.ndarray:  # one product of the standardized data
        gram = self.a[:, :self.block_rows].T @ self.a / self.n
        np.fill_diagonal(gram, 1.0)
        return gram

    def _form_cov(self) -> np.ndarray:  # with the variances on the diagonal
        sd = np.sqrt(self.var)
        cov = self.gram * sd[:len(self.gram), None]
        cov *= sd
        np.fill_diagonal(cov, self.var)
        return cov

    def _form_corr(self) -> np.ndarray:
        """Gram rows clamped to [-1, 1], with a unit diagonal. A column's copy,
        negation or multiple by a power of two standardizes to it or its negation
        bit for bit (see sample_moments), but Gram products can round their
        correlation off +-1, by at most about 2 n rounding units. So a pair within
        that bound, which holds every pair the clamp can change, is set to +-1
        when its standardized columns match."""
        corr = self.gram.copy()
        np.fill_diagonal(corr, 0.0)
        bound = 1.0 - 2.0 * (self.n + 4) * np.finfo(float).eps
        if corr.max() >= bound or corr.min() <= -bound:  # only near copies come this close
            np.clip(corr, -1.0, 1.0, out=corr)
            near = np.flatnonzero(np.abs(corr) >= bound)  # 2-D nonzero is slow
            pairs_i, pairs_j = np.divmod(near, corr.shape[1])
            for start in range(0, pairs_i.size, self.p):  # n x p values at a time
                i, j = pairs_i[start:start + self.p], pairs_j[start:start + self.p]
                sign = np.copysign(1.0, corr[i, j])
                copy = (self.a[:, i] == self.a[:, j] * sign).all(axis=0)
                corr[i[copy], j[copy]] = sign[copy]
        np.fill_diagonal(corr, 1.0)
        return corr

    def _form_corr_noise(self) -> np.ndarray:
        """E[(a_i a_j - g_ij)^2] = E[a_i^2 a_j^2] - g_ij^2, its leading square
        symmetrized, clamped at 0 against rounding."""
        b, sq = len(self.gram), self.sq
        noise = sq[:, :b].T @ sq / self.n
        noise -= np.square(self.gram)
        noise[:, :b] = (noise[:, :b] + noise[:, :b].T) * 0.5
        return np.maximum(noise, 0.0, out=noise)

    def rows(self, r0: int, r1: int) -> MomentSet:
        """Row block r0:r1 of a full set: its columns r0:p, sliced (see gram)."""
        return MomentSet(self.a[:, r0:], self.sq[:, r0:], self.var[r0:],
                         self.corr_noise_jj[r0:], self.n, self.p, r1 - r0)


def row_blocks(sets: list[MomentSet], n_rows: int):
    """Yield (r0, r1, [m.rows(r0, r1) for m in sets]) for blocks of _BLOCK_ROWS
    rows covering rows 0:n_rows, the last taking any shorter remainder: each
    costs a fixed number of numpy calls."""
    starts = range(0, max(n_rows - _BLOCK_ROWS, 0) + 1, _BLOCK_ROWS)
    for r0, r1 in zip(starts, [*starts[1:], n_rows]):
        yield r0, r1, [m.rows(r0, r1) for m in sets]


def _symmetric(full: MomentSet, read) -> np.ndarray:
    """The symmetric p x p matrix whose rows r0:r1 from column r0 on are read of
    full's row block r0:r1 (see put_triangle_rows)."""
    out = np.empty((full.p, full.p))
    for r0, r1, (block,) in row_blocks([full], full.p):
        put_triangle_rows(out, r0, r1, read(block))
    return out


def put_triangle_rows(out: np.ndarray, r0: int, r1: int, values: np.ndarray) -> None:
    """Write the rows r0:r1 of a symmetric matrix, given from column r0 on, into
    out: the upper triangle as given, and its mirror image below the diagonal
    (a Gram product's r0:r1 square need not be bitwise symmetric)."""
    b = r1 - r0
    out[r0:r1, r0:] = values
    out[r1:, r0:r1] = values[:, b:].T
    square = out[r0:r1, r0:r1]
    np.copyto(square, square.T, where=np.tri(b, k=-1, dtype=bool))


def _reject_degenerate(bad: np.ndarray, names=None) -> None:
    """Raise DegenerateVariableError naming the first column marked in bad."""
    if bad.any():
        first = int(np.argmax(bad))
        raise DegenerateVariableError(first, names[first] if names else None)


def sample_correlation(cov: np.ndarray) -> np.ndarray:
    """Correlation from a square covariance matrix: unit diagonal, entries
    clamped to [-1, 1]; a variance that is not positive and finite is an error."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValidationError(f"a covariance matrix must be square, got shape {cov.shape}")
    var = np.diag(cov)
    _reject_degenerate(~((var > 0.0) & (var < np.inf)))
    corr = np.clip(cov / np.sqrt(var)[:, None] / np.sqrt(var), -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def moment_set(x: SampleMatrix) -> MomentSet:
    """Center one sample and compute its column variances and their terms; its
    covariance and correlation are formed when read. A column that is constant,
    or whose variance is not finite, is a DegenerateVariableError."""
    moments = _part_moments(x)
    _reject_degenerate(moments.degenerate, x.names)
    return moments


@contextlib.contextmanager
def _shared_moments():
    """In this scope _part_moments computes each set once, and holds its sample."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _part_moments(x: SampleMatrix, rows: np.ndarray | None = None) -> MomentSet:
    """The moment set of sample x, or of its rows given by index array."""
    memo, key = _SHARED.get({}), (id(x), None if rows is None else rows.tobytes())
    if key not in memo:
        memo[key] = x, sample_moments(x.data if rows is None else x.data[rows])
    return memo[key][1]


def sample_moments(data: np.ndarray) -> MomentSet:
    """The full moment set of the n x p array data, a sample or a part of one.
    Each centered column is divided, exactly, by the power of two at or above its
    largest |value| before its squares are summed. A column whose largest and
    smallest centered values are equal (constant), or whose variance is not
    finite, is degenerate: standardized to zeros, with variance 0. A column's
    copy, negation or power-of-two multiple gets its standardized values up to
    sign, and its variance times the multiple squared, bit for bit at any scale."""
    n = len(data)
    a = data - data.mean(axis=0)
    top, bottom = a.max(axis=0), a.min(axis=0)
    exponent = np.frexp(np.maximum(top, -bottom))[1]
    np.ldexp(a, -exponent, out=a)
    scaled = np.einsum("kj,kj->j", a, a) / n
    with np.errstate(over="ignore"):
        var = np.ldexp(scaled, 2 * exponent)
    degenerate = (top == bottom) | ~np.isfinite(var)
    scale = np.sqrt(scaled)
    if degenerate.any():
        a[:, degenerate], scale[degenerate], var[degenerate] = 0.0, 1.0, 0.0
    a /= scale
    sq = a * a
    dev = sq - 1.0
    corr_noise_jj = np.einsum("kj,kj->j", dev, dev) / n
    return MomentSet(a, sq, var, corr_noise_jj, *data.shape, degenerate=degenerate)


def correlation_variance(moments: MomentSet) -> np.ndarray:
    """Per-entry variance theta of a sample correlation entry including the
    first-order correction terms: of a row block r0:r1 (MomentSet.rows) its
    rows theta[r0:r1, r0:], of a full set the p x p matrix from its blocks.

    theta_ij is the mean over samples of
        (a_i a_j - h_ij (a_i^2 + a_j^2))^2,  h = corr / 2,
    where a is the standardized data. Expanded, with the Gram products
    M22 = (a^2)^T a^2 / n, M31 = (a^3)^T a / n and M4 = diag(M22),
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
    if moments.block_rows is None:
        return _symmetric(moments, correlation_variance)
    p, n, a, sq, b = moments.p, moments.n, moments.a, moments.sq, len(moments.gram)
    # row i of the block is column i of a
    cube = sq * a
    half_corr = 0.5 * moments.corr
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
    far = np.flatnonzero(np.triu(magnitude > _CANCELLATION_GUARD * theta, k=1))
    pairs_i, pairs_j = np.divmod(far, theta.shape[1])  # 2-D nonzero is slow
    for start in range(0, pairs_i.size, p):
        i, j = pairs_i[start:start + p], pairs_j[start:start + p]
        term = a[:, i] * a[:, j]
        term -= half_corr[i, j] * (sq[:, i] + sq[:, j])
        theta[i, j] = np.einsum("kj,kj->j", term, term) / n
    square = theta[:, :b]
    np.copyto(square, square.T, where=np.tri(b, k=-1, dtype=bool))
    np.fill_diagonal(square, 0.0)
    return np.maximum(theta, 0.0, out=theta)
