"""Matrix norms used for all loss reporting: spectral, matrix l1, Frobenius."""

from __future__ import annotations

import numpy as np

from .dataset import asymmetry, check_finite


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; largest absolute eigenvalue for symmetric input."""
    m = np.asarray(m, dtype=float)
    check_finite(m, "matrix")
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {m.ndim}")
    gap, tol = asymmetry(m)
    if gap <= tol:
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return float(np.linalg.svd(m, compute_uv=False)[0])


def matrix_l1_norm(m: np.ndarray) -> float:
    """Maximum absolute row sum (equals the operator l1 norm for symmetric input)."""
    m = np.asarray(m, dtype=float)
    check_finite(m, "matrix")
    return float(np.max(np.sum(np.abs(m), axis=1)))


def frobenius_norm(m: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    m = np.asarray(m, dtype=float)
    check_finite(m, "matrix")
    return float(np.sqrt(np.sum(m * m)))
