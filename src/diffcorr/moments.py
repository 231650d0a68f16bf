"""Entrywise sample statistics for one group, and the row blocks every p x p
statistic is formed on.

A moment set holds one group's centered data, column variances, covariance
and correlation, in full or by row block. Every statistic divides by n (not n - 1);
the threshold formulas downstream are calibrated to that convention. The
covariance and correlation are formed only when read, and a full set forms
them one block of rows of the upper triangle at a time from the centered data
(MomentSet.rows), so reading the correlation forms no p x p covariance, and
the fit, which reads only row blocks, forms neither. Within _shared_moments (a
simulate replication) each sample's and each fold part's set is formed once.

triangle_blocks is the one walker over those row blocks: the equality test,
cross-validation, the fit and a full set's moments all cut their p x p
statistics with it, _BLOCK_ROWS rows at a time.

correlation_variance gives the per-entry variance theta_ij of a correlation
entry with the first-order correction terms, the denominator of the equality
test's statistic, in full or one row block at a time. It expands theta into
Gram products of the standardized data and recomputes from the per-sample
formula the few pairs where that expansion cancels too much to trust.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field

import numpy as np

from .dataset import SampleMatrix
from .errors import DegenerateVariableError

# a pair whose expansion terms sum in magnitude to more than this multiple of
# its theta is recomputed from the per-sample formula
_CANCELLATION_GUARD = 100.0
# rows per block of the upper triangle (see triangle_blocks)
_BLOCK_ROWS = 64
_SHARED = contextvars.ContextVar("shared_moments")  # (id(sample), rows) -> (sample, set)


class _FormedWhenRead:
    """A MomentSet field that, given as None, is formed by the set's method
    _form_<name> when first read, and then kept. As a data descriptor it takes
    the frozen dataclass's __init__ assignment, and as it has no value on the
    class the field keeps no default."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if value is None:
            value = obj.__dict__[self.name] = getattr(obj, "_form_" + self.name)()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True, repr=False)
class MomentSet:
    """One sample's centered data, column variances, covariance and correlation:
    all of them, or a row block r0:r1 with cov and corr of rows r0:r1 against
    columns r0:p and centered and var of columns r0:p (row i is column i).

    A cov or corr given as None is formed when first read, and then kept: corr
    from cov when that is at hand, and a full set's (sample_moments gives neither)
    from its row blocks, so reading corr forms no p x p covariance."""

    centered: np.ndarray
    var: np.ndarray
    cov: np.ndarray | None = _FormedWhenRead()
    corr: np.ndarray | None = _FormedWhenRead()
    n: int
    p: int
    _given_terms: tuple | None = field(default=None, compare=False)

    def _form_cov(self) -> np.ndarray:  # only a full set is built without a cov
        return _symmetric(self.p, lambda r0, r1: self.rows(r0, r1).cov)

    def _form_corr(self) -> np.ndarray:
        if self.__dict__["cov"] is None:
            return _symmetric(self.p, lambda r0, r1: self.rows(r0, r1).corr)
        return _correlation(self.cov, *self._terms[:4])

    @property
    def _terms(self) -> tuple:  # _column_terms of centered's columns, given or computed here
        return self._given_terms or _column_terms(self.centered, self.var)

    def rows(self, r0: int, r1: int) -> MomentSet:
        """Row block r0:r1 of a full set: its covariance rows from one Gram
        product of the centered data, with the variances on their diagonal
        exactly, and its correlation rows formed when read."""
        c = self.centered[:, r0:]
        cov = c[:, :r1 - r0].T @ c / self.n
        np.fill_diagonal(cov, self.var[r0:r1])
        terms = tuple(a if a is None else a[r0:] for a in self._terms)
        return MomentSet(c, self.var[r0:], cov, None, self.n, self.p, terms)


def triangle_blocks(n_rows: int) -> list[tuple[int, int]]:
    """Bounds (r0, r1) of blocks of _BLOCK_ROWS rows covering rows 0:n_rows, the
    last taking any shorter remainder: each costs a fixed number of numpy calls."""
    starts = range(0, max(n_rows - _BLOCK_ROWS, 0) + 1, _BLOCK_ROWS)
    return list(zip(starts, [*starts[1:], n_rows]))


def _symmetric(p: int, rows_of) -> np.ndarray:
    """The symmetric p x p matrix whose rows r0:r1 from column r0 on are
    rows_of(r0, r1), over triangle_blocks (see put_triangle_rows)."""
    out = np.empty((p, p))
    for r0, r1 in triangle_blocks(p):
        put_triangle_rows(out, r0, r1, rows_of(r0, r1))
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


def _copies(c: np.ndarray) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """Per column of the centered data c, the first column equal to it or to its
    negation (twin) and the sign of its first nonzero value; (None, None) when the
    first row's |values| differ. Gram products can round a copy's correlation off 1."""
    if np.diff(np.sort(np.abs(c[0]))).all():
        return None, None
    sign = np.sign(c[(c != 0.0).argmax(axis=0), np.arange(c.shape[1])])
    _, first, twin = np.unique(c * sign + 0.0, axis=1, return_index=True, return_inverse=True)
    return first[twin.ravel()], sign


def _positive_variances(var: np.ndarray, names=None) -> np.ndarray:
    bad = np.flatnonzero(var <= 0.0)
    if bad.size:
        raise DegenerateVariableError(int(bad[0]), names[bad[0]] if names else None)
    return var


def _powers_of_four(var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive variances split exactly as var = r * 4**half with r in [0.5, 2)."""
    mantissa, exponent = np.frexp(var)
    half = exponent // 2
    return np.ldexp(mantissa, exponent - 2 * half), half


def _column_terms(centered: np.ndarray, var: np.ndarray, twin=None, sign=None) -> tuple:
    """Per column j of centered data c with positive variances var: r_j and
    half_j of _powers_of_four, twin and sign (see _copies), and the mean over
    samples of (c_j c_j - var_j)**2 (cov_noise_jj of thresholding.unit_thresholds)."""
    dev = centered * centered - var
    return (*_powers_of_four(var), twin, sign, np.einsum("kj,kj->j", dev, dev) / len(dev))


def _correlation(cov: np.ndarray, r: np.ndarray, half: np.ndarray, twin=None, sign=None):
    """Correlation rows from covariance rows and the positive variances of their
    columns, given as var = r * 4**half (see MomentSet); copies at +-1 (_copies)."""
    # scaling cov by the powers of two is exact, and sqrt(r_i r_j) rounds to r
    # when r_i == r_j, so a copy whose covariance equals its variance gets exactly
    # 1 (twin sets the others) and no product of variances leaves the float range
    b = cov.shape[0]
    corr = np.ldexp(cov, -half[:b, None])
    np.ldexp(corr, -half, out=corr)
    for r0, r1 in triangle_blocks(b):
        denom = r[r0:r1, None] * r
        corr[r0:r1] /= np.sqrt(denom, out=denom)
    np.clip(corr, -1.0, 1.0, out=corr)
    if twin is not None:
        same = twin[:b, None] == twin
        corr[same] = np.multiply.outer(sign[:b], sign)[same]
    np.fill_diagonal(corr, 1.0)  # the leading b x b square's diagonal
    return corr


def sample_correlation(cov: np.ndarray) -> np.ndarray:
    """Correlation from a covariance matrix: unit diagonal, entries clamped
    to [-1, 1]; any non-positive variance is an error."""
    cov = np.asarray(cov, dtype=float)
    return _correlation(cov, *_powers_of_four(_positive_variances(np.diag(cov))))


def moment_set(x: SampleMatrix) -> MomentSet:
    """Center one sample and compute its column variances and their terms; its
    covariance and correlation are formed when read."""
    return _part_moments(x)


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
        memo[key] = x, sample_moments(x.data if rows is None else x.data[rows], x.names)
    return memo[key][1]


def sample_moments(data: np.ndarray, names=None) -> MomentSet:
    """The full moment set of the n x p array data (a sample, or a part of one in
    cross-validation), whose variances must be positive; copies share one (_copies)."""
    centered = data - data.mean(axis=0)
    var = np.einsum("kj,kj->j", centered, centered) / len(data)
    twin, sign = _copies(centered)
    var = _positive_variances(var if twin is None else var[twin], names)
    terms = _column_terms(centered, var, twin, sign)
    return MomentSet(centered, var, None, None, *data.shape, terms)


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
