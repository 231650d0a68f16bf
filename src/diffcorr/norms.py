"""Matrix norms used for all loss reporting: spectral, matrix l1, Frobenius."""

from __future__ import annotations

import numpy as np

from .dataset import asymmetry, check_finite


def _support(m) -> np.ndarray:
    """A copy of m's submatrix on its nonzero rows and columns (for square m,
    on their union, so it stays square with m's asymmetry), which has m's
    norms: a thresholded estimate is mostly zeros. Non-finite entries are
    nonzero, so checking the submatrix checks m."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {m.ndim}")
    rows, cols = m.any(axis=1), m.any(axis=0)
    if m.shape[0] == m.shape[1]:
        rows = cols = rows | cols
    sub = m[np.ix_(rows, cols)]
    check_finite(sub, "matrix")
    return sub


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; largest absolute eigenvalue for symmetric input."""
    sub = _support(m)
    gap, tol = asymmetry(sub)
    if gap <= tol:  # an all-zero m leaves a 0 x 0 submatrix
        return float(np.max(np.abs(np.linalg.eigvalsh(sub)), initial=0.0))
    return float(np.linalg.svd(sub, compute_uv=False)[0])


def matrix_l1_norm(m: np.ndarray) -> float:
    """Maximum absolute row sum (equals the operator l1 norm for symmetric input)."""
    sub = _support(m)
    return float(np.max(np.sum(np.abs(sub, out=sub), axis=1), initial=0.0))


def frobenius_norm(m: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    sub = _support(m)
    sub *= sub
    return float(np.sqrt(np.sum(sub)))
