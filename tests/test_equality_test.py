import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from diffcorr import (
    DegenerateVarianceError,
    SampleMatrix,
    TwoGroupDataset,
    UnsupportedDimensionError,
    ValidationError,
    critical_tau,
    decide_test,
    extreme_value_pvalue,
)
from diffcorr import moments
from diffcorr import test_equality as run_equality_test
from diffcorr import test_statistic as compute_statistic
from oracles import naive_test_statistic
from properties import check_tstat_invariances, gaussian_dataset

# frozen high-precision evaluations of the limit law (mpmath, 40 digits)
PVALUE_AT_ZERO = 0.18083613862358884
TAU_005 = 2.716219070555093


def _upper(matrix):
    """The entries i < j of a square matrix in row-major order."""
    matrix = np.asarray(matrix)
    return matrix[np.triu_indices(len(matrix), k=1)]


def test_identical_groups_give_zero_statistic():
    rng = np.random.default_rng(0)
    sm = SampleMatrix(rng.standard_normal((20, 4)))
    t_n, t_pairs = compute_statistic(TwoGroupDataset(sm, sm))
    assert t_n == 0.0
    assert np.array_equal(t_pairs, np.zeros(6))


def test_p2_single_entry():
    ds = gaussian_dataset(1, p=2, n1=25, n2=25)
    t_n, t_pairs = compute_statistic(ds)
    assert t_pairs.shape == (1,)
    assert t_n == t_pairs[0] > 0.0


def test_statistic_against_naive_oracle():
    rng = np.random.default_rng(99)
    x1 = rng.standard_normal((40, 5)) @ (rng.standard_normal((5, 5)) + np.eye(5))
    x2 = rng.standard_normal((40, 5)) @ (rng.standard_normal((5, 5)) + np.eye(5))
    ds = TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))
    t_n, t_pairs = compute_statistic(ds)
    t_n_naive, t_ij_naive = naive_test_statistic(x1, x2)
    assert t_n == pytest.approx(t_n_naive, abs=1e-10)
    assert np.max(np.abs(t_pairs - _upper(t_ij_naive))) < 1e-10


def test_degenerate_denominator():
    col = np.array([0.0, 2.0, 0.0, 2.0, 0.0, 2.0])
    x = SampleMatrix(np.column_stack([col, col]))
    with pytest.raises(DegenerateVarianceError):
        compute_statistic(TwoGroupDataset(x, x))


def test_duplicated_column_gives_degenerate_variance():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        x1, x2 = rng.standard_normal((200, 50)), rng.standard_normal((200, 50))
        x1[:, 3] = x1[:, 0]
        x2[:, 3] = x2[:, 0]
        ds = TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))
        with pytest.raises(DegenerateVarianceError):
            compute_statistic(ds)


def _seed_29_copy():
    """n = 188, p = 12 and the pair (6, 11): a copy block Gram products once
    rounded to a correlation just below 1, for a finite t_ij of 28.8."""
    rng = np.random.default_rng(29)
    n, p = rng.integers(20, 200), rng.integers(3, 200)
    i, j = sorted(rng.choice(p, 2, replace=False))
    x1, x2 = rng.standard_normal((n, p)), rng.standard_normal((n, p))
    return x1, x2, i, {j: 1.0}


def _planted_copy(n, p, i, j, factor, seed=0, draw="normal"):
    """Two samples whose column j will be factor times their column i, drawn
    from N(0, 1) or as 0/1/2 codes."""
    rng = np.random.default_rng(seed)
    if draw == "codes":
        return *(rng.integers(0, 3, (n, p)).astype(float) for _ in range(2)), i, {j: factor}
    return rng.standard_normal((n, p)), rng.standard_normal((n, p)), i, {j: factor}


def _three_copies():
    """Columns 10, 50 = column 10 and 90 = -column 10 in two row blocks."""
    x1, x2, i, _ = _planted_copy(70, 100, 10, 50, 1.0, seed=1)
    return x1, x2, i, {50: 1.0, 90: -1.0}


# (x1, x2, i, {j: factor}): each column j is planted as factor times column i,
# and standardizes to column i or its negation bit for bit; Gram products can
# round such a pair's correlation just off +-1. Codes tie in every row.
COPIES = {
    "seed-29": _seed_29_copy,
    "same-block": lambda: _planted_copy(63, 132, 75, 131, 1.0),  # rows 64:132
    "across-blocks": lambda: _planted_copy(109, 158, 20, 152, 1.0),  # rows 0:64 and 64:158
    "negated": lambda: _planted_copy(88, 38, 15, 37, -1.0),
    "codes": lambda: _planted_copy(90, 100, 5, 70, 1.0, draw="codes"),
    "codes-negated": lambda: _planted_copy(90, 100, 40, 41, -1.0, draw="codes"),
    "doubled": lambda: _planted_copy(90, 100, 30, 80, 2.0, seed=3),  # Gram: 1 - 1.5 eps
    # variance 2**-1020 var_30: below moments._SMALL_VARIANCE
    "tiny-multiple": lambda: _planted_copy(90, 100, 30, 80, 2.0**-510),
    "three-copies": _three_copies,
}


@pytest.mark.parametrize("case", COPIES)
def test_a_column_and_its_copy_correlate_at_one_and_have_zero_variance(case):
    x1, x2, i, planted = COPIES[case]()
    factors = {i: 1.0, **planted}
    pairs = list(itertools.combinations(sorted(factors), 2))
    for x in (x1, x2):
        for j, factor in planted.items():
            x[:, j] = factor * x[:, i]
        m = moments.moment_set(SampleMatrix(x))
        for u, v in pairs:
            sign = np.sign(factors[u] * factors[v])
            assert m.var[u] / factors[u] ** 2 == m.var[v] / factors[v] ** 2
            assert m.corr[u, v] == m.corr[v, u] == sign
            for r0, r1 in moments.triangle_blocks(m.p):  # every block holding the pair
                if r0 <= u < r1:
                    assert m.rows(r0, r1).corr[u - r0, v - r0] == sign
    ds = TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))
    u, v = pairs[0]  # the first in row-major order
    with pytest.raises(DegenerateVarianceError, match=rf"\(v{u + 1}, v{v + 1}\)"):
        run_equality_test(ds)


def test_columns_equal_in_a_fold_part_correlate_at_one_there():
    rng = np.random.default_rng(4)
    x = rng.poisson(2.0, (60, 100)).astype(float)
    rows = np.sort(rng.choice(60, 20, replace=False))
    x[rows, 90] = x[rows, 20]  # equal on the part's rows only
    sample = SampleMatrix(x)
    assert moments.moment_set(sample).corr[20, 90] < 1.0
    part = moments._part_moments(sample, rows)
    for r0, r1 in moments.triangle_blocks(100):
        if r0 <= 20 < r1:
            assert part.rows(r0, r1).corr[20 - r0, 90 - r0] == 1.0


def test_statistic_needs_two_variables():
    rng = np.random.default_rng(2)
    sm = SampleMatrix(rng.standard_normal((10, 1)))
    with pytest.raises(ValidationError):
        compute_statistic(TwoGroupDataset(sm, sm))


def test_pvalue_monotone_and_clamped():
    p = 50
    values = [extreme_value_pvalue(t, p) for t in np.linspace(0.0, 60.0, 30)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert extreme_value_pvalue(1e6, p) == pytest.approx(0.0, abs=1e-300)
    assert extreme_value_pvalue(-1e6, p) == 1.0
    assert all(0.0 <= v <= 1.0 for v in values)


def test_pvalue_at_centered_zero():
    # statistic exactly at the centering point: t = 0 in the limit CDF
    p = 40
    t_n = 4.0 * math.log(p) - math.log(math.log(p))
    assert extreme_value_pvalue(t_n, p) == pytest.approx(PVALUE_AT_ZERO, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.5])
@pytest.mark.parametrize("p", [3, 10, 50, 500])
def test_pvalue_at_rejection_boundary_equals_alpha(alpha, p):
    boundary = 4.0 * math.log(p) - math.log(math.log(p)) + critical_tau(alpha)
    assert extreme_value_pvalue(boundary, p) == pytest.approx(alpha, abs=1e-10)


def test_critical_tau_frozen_value():
    assert critical_tau(0.05) == pytest.approx(TAU_005, abs=1e-10)


@pytest.mark.parametrize("alpha", [1e-300, 1e-20, 1e-10, 0.05])
def test_critical_tau_against_mpmath(alpha):
    # below alpha of about 1.1e-16, 1 - alpha rounds to 1 in floating point
    import mpmath  # a test dependency: its absence fails this test
    with mpmath.workdps(400):  # enough digits to hold 1 - 1e-300
        minus_log = mpmath.log(1 / (1 - mpmath.mpf(alpha)))
        exact = -mpmath.log(8 * mpmath.pi) - 2 * mpmath.log(minus_log)
    assert critical_tau(alpha) == pytest.approx(float(exact), rel=1e-12)


def test_decide_consistent_with_pvalue():
    p, alpha = 30, 0.05
    for t_n in np.linspace(0.0, 40.0, 41):
        reject, _ = decide_test(float(t_n), p, alpha)
        assert reject == (extreme_value_pvalue(float(t_n), p) <= alpha + 1e-12)


def test_zero_statistic_accepts():
    reject, tau_alpha = decide_test(0.0, 100, 0.05)
    assert not reject
    assert tau_alpha == pytest.approx(TAU_005, abs=1e-10)


def test_dimension_and_alpha_validation():
    with pytest.raises(UnsupportedDimensionError):
        extreme_value_pvalue(1.0, 2)
    with pytest.raises(UnsupportedDimensionError):
        decide_test(1.0, 2, 0.05)
    with pytest.raises(ValidationError):
        decide_test(1.0, 10, 0.0)
    with pytest.raises(ValidationError):
        decide_test(1.0, 10, 1.0)


def test_full_test_result():
    ds = gaussian_dataset(3, p=5, n1=40, n2=35)
    result = run_equality_test(ds, alpha=0.1)
    assert result.t_n == float(np.max(result.t_pairs))
    assert result.centered == pytest.approx(
        result.t_n - 4.0 * math.log(5) + math.log(math.log(5)), abs=1e-12
    )
    assert result.reject == (result.t_n >= 4.0 * math.log(5) - math.log(math.log(5)) + result.tau_alpha)
    assert 0.0 <= result.p_value <= 1.0
    top = result.top_pairs(3)
    assert len(top) == 3
    assert top[0][2] == result.t_n
    assert top[0][2] >= top[1][2] >= top[2][2]


def _naive_top_pairs(result, k):
    p = len(result.names)
    pairs = [(result.names[i], result.names[j]) for i in range(p) for j in range(i + 1, p)]
    values = [(*pair, float(v)) for pair, v in zip(pairs, result.t_pairs, strict=True)]
    return sorted(values, key=lambda item: -item[2])[:k]  # stable: ties stay row-major


def _with_upper_values(result, values):
    return replace(result, t_pairs=np.array(values, dtype=float))


def test_top_pairs_match_naive_sort():
    result = run_equality_test(gaussian_dataset(4, p=7, n1=30, n2=40))
    # rounding the statistics makes ties among nonzero values
    rounded = replace(result, t_pairs=np.round(result.t_pairs))
    # runs of 2, 7, 4, 2, 3 and 3 equal values, interleaved in row-major
    # order, so some k cuts through every run
    runs = _with_upper_values(
        result, [4, 9, 4, 1, 3, 4, 0, 4, 3, 9, 1, 4, 3, 0, 2, 2, 4, 1, 0, 3, 4]
    )
    equal = _with_upper_values(result, [2.5] * 21)
    for res in (result, rounded, runs, equal):
        for k in (*range(23), 30):  # 21 = p(p-1)/2 pairs in all
            assert res.top_pairs(k) == _naive_top_pairs(res, k)
    assert len(result.top_pairs(30)) == 21
    with pytest.raises(ValidationError):
        result.top_pairs(-1)


def test_top_pairs_ties_keep_row_major_order():
    sm = SampleMatrix(np.random.default_rng(6).standard_normal((15, 4)))
    result = run_equality_test(TwoGroupDataset(sm, sm))
    assert result.top_pairs(10) == [
        (f"v{i + 1}", f"v{j + 1}", 0.0) for i in range(4) for j in range(i + 1, 4)
    ]


def test_invariances():
    check_tstat_invariances()


def _steps(p):
    """Rows per block that split p variables into several blocks; p // 2
    leaves two, the last one row longer for odd p."""
    return (1, 2, 3, p // 2)


@pytest.mark.parametrize("p", range(7, 14))
def test_statistic_in_row_blocks_against_naive_oracle(p, monkeypatch):
    rng = np.random.default_rng(p)
    x1 = rng.standard_normal((30, p))
    x2 = rng.standard_normal((25, p)) @ (np.eye(p) + 0.3 * rng.standard_normal((p, p)))
    ds = TwoGroupDataset(SampleMatrix(x1), SampleMatrix(x2))
    t_n_naive, t_ij_naive = naive_test_statistic(x1, x2)
    for step in _steps(p):
        monkeypatch.setattr(moments, "_BLOCK_ROWS", step)
        assert len(moments.triangle_blocks(p)) > 1
        t_n, t_pairs = compute_statistic(ds)
        assert t_n == pytest.approx(t_n_naive, abs=1e-10)
        assert t_n == t_pairs.max()
        assert np.max(np.abs(t_pairs - _upper(t_ij_naive))) < 1e-10


def test_zero_variance_pair_in_a_later_block(monkeypatch):
    # two identical two-valued columns: every per-sample term of the pair's
    # variance is exactly 0, in both groups; (5, 8) comes before (7, 9)
    rng = np.random.default_rng(12)
    groups = []
    for _ in range(2):
        x = rng.standard_normal((20, 10))
        x[:, 5] = x[:, 8] = np.tile([0.0, 2.0], 10)
        x[:, 7] = x[:, 9] = np.tile([0.0, 0.0, 2.0, 2.0], 5)  # uncorrelated with column 5
        groups.append(SampleMatrix(x))
    ds = TwoGroupDataset(*groups)
    with pytest.raises(DegenerateVarianceError) as whole:
        compute_statistic(ds)
    assert "(v6, v9)" in str(whole.value)
    for step in _steps(10):
        monkeypatch.setattr(moments, "_BLOCK_ROWS", step)
        with pytest.raises(DegenerateVarianceError) as blocked:
            compute_statistic(ds)
        assert str(blocked.value) == str(whole.value)


def test_the_test_forms_no_full_moment_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("the test formed a p x p moment matrix")

    monkeypatch.setattr(moments, "_symmetric", refuse)
    monkeypatch.setattr(moments, "_BLOCK_ROWS", 3)  # several blocks at p = 10
    ds = gaussian_dataset(34, p=10, n1=30, n2=26)
    result = run_equality_test(ds)
    assert result.t_pairs.size == 45 and np.isfinite(result.t_n)
    group = moments.moment_set(ds.group1)
    for statistic in ("corr", "cov"):
        with pytest.raises(AssertionError, match="p x p"):
            getattr(group, statistic)
    with pytest.raises(AssertionError, match="p x p"):
        moments.correlation_variance(group)
