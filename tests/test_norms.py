import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcorr import ValidationError, frobenius_norm, matrix_l1_norm, spectral_norm
from oracles import naive_frobenius_norm, naive_l1_norm, naive_spectral_norm
from properties import check_norm_inequalities


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, -5.0, 2.0])) == pytest.approx(5.0, abs=1e-12)


def test_spectral_norm_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((5, 5))
    sym = (a + a.T) / 2.0
    assert spectral_norm(sym) == pytest.approx(naive_spectral_norm(sym), abs=1e-8)


def test_spectral_norm_rectangular():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 6))
    assert spectral_norm(m) == pytest.approx(naive_spectral_norm(m), abs=1e-8)


def test_l1_norm_examples():
    assert matrix_l1_norm(np.eye(3)) == 1.0
    assert matrix_l1_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 7.0


def test_l1_norm_matches_row_sum_oracle():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 6))
    assert matrix_l1_norm(m) == pytest.approx(naive_l1_norm(m), abs=1e-12)


def test_frobenius_examples():
    assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert frobenius_norm(np.zeros((4, 2))) == 0.0


def test_frobenius_matches_elementwise_oracle():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((4, 4))
    assert frobenius_norm(m) == pytest.approx(naive_frobenius_norm(m), abs=1e-12)


@pytest.mark.parametrize("norm", [spectral_norm, matrix_l1_norm, frobenius_norm])
def test_norms_reject_non_finite(norm):
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        norm(bad)


def test_norm_inequalities():
    check_norm_inequalities()


@settings(max_examples=50, deadline=None)
@given(c=st.floats(-10.0, 10.0), seed=st.integers(0, 2**16))
def test_absolute_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 4))
    for norm in (spectral_norm, matrix_l1_norm, frobenius_norm):
        assert norm(c * m) == pytest.approx(abs(c) * norm(m), rel=1e-10, abs=1e-10)


def _sparse(shape, entries):
    m = np.zeros(shape)
    for (i, j), v in entries.items():
        m[i, j] = v
    return m


SUPPORT_CASES = {
    # nonzero rows and columns differ: the union keeps the submatrix square
    "one-entry-off-diagonal": _sparse((40, 40), {(3, 17): -2.5}),
    "sparse-symmetric": _sparse(
        (50, 50), {(2, 9): 0.7, (9, 2): 0.7, (9, 30): -1.1, (30, 9): -1.1, (44, 44): 0.3}
    ),
    "sparse-asymmetric": _sparse((30, 30), {(1, 4): 1.0, (4, 1): 0.2, (4, 20): -0.9, (28, 0): 0.5}),
    "sparse-wide": _sparse((6, 25), {(0, 3): 1.5, (0, 20): -0.4, (5, 3): 0.8}),
    "sparse-tall": _sparse((25, 4), {(7, 0): -1.2, (19, 0): 0.6, (19, 3): 2.0}),
    "zero-square": np.zeros((12, 12)),
    "zero-wide": np.zeros((3, 8)),
    "empty": np.zeros((0, 0)),
}


@pytest.mark.parametrize("name", SUPPORT_CASES)
def test_norms_on_their_support_match_naive_oracles(name):
    m = SUPPORT_CASES[name]
    if m.size == 0:
        assert spectral_norm(m) == matrix_l1_norm(m) == frobenius_norm(m) == 0.0
        return
    pairs = (
        (spectral_norm, naive_spectral_norm),
        (matrix_l1_norm, naive_l1_norm),
        (frobenius_norm, naive_frobenius_norm),
    )
    for norm, oracle in pairs:
        assert norm(m) == pytest.approx(oracle(m), rel=1e-12, abs=0.0)


def test_dense_norms_match_naive_oracles():
    rng = np.random.default_rng(19)
    for m in (rng.standard_normal((9, 9)), rng.standard_normal((5, 8))):
        m[m > 1.0] = 0.0
        assert spectral_norm(m) == pytest.approx(naive_spectral_norm(m), rel=1e-12)
        assert matrix_l1_norm(m) == pytest.approx(naive_l1_norm(m), rel=1e-12)
        assert frobenius_norm(m) == pytest.approx(naive_frobenius_norm(m), rel=1e-12)


@pytest.mark.parametrize("norm", [spectral_norm, matrix_l1_norm, frobenius_norm])
def test_norms_reject_a_lone_infinity_and_non_matrices(norm):
    bad = np.zeros((20, 20))
    bad[13, 2] = np.inf
    with pytest.raises(ValidationError):
        norm(bad)
    with pytest.raises(ValueError):
        norm(np.ones(3))


@pytest.mark.parametrize("norm", [spectral_norm, matrix_l1_norm, frobenius_norm])
def test_norms_leave_their_input_unchanged(norm):
    m = _sparse((5, 5), {(0, 1): -3.0, (1, 0): -3.0, (2, 2): -1.0})
    before = m.copy()
    norm(m)
    assert np.array_equal(m, before)
