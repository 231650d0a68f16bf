"""Max-type test of equality of two correlation matrices.

Each off-diagonal pair (i, j) gets the standardized statistic

    t_ij = (corr1_ij - corr2_ij)^2 / (var1_ij / n1 + var2_ij / n2)

with per-entry variances from moments.correlation_variance. The maximum t_n
over i < j is calibrated against the type I extreme value limit of
t_n - 4 log p + log log p, whose CDF is exp(-(8 pi)^(-1/2) exp(-t / 2)).
The statistic is formed one block of rows of the upper triangle at a time
(moments.MomentSet.rows), so beside each group's standardized data only the
p(p-1)/2 values t_ij are held, and no p x p moment matrix is formed.

The calibration is asymptotic and its regularity conditions (sub-Gaussian
tails, variances bounded away from zero, log p small relative to n^(1/3))
are assumed, not checked from data. At small n relative to log p the test
over-rejects; empirically the nominal level is approached for n in the few
hundreds at p around 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import TwoGroupDataset
from .errors import DegenerateVarianceError, UnsupportedDimensionError, ValidationError
from .moments import correlation_variance, moment_set, triangle_blocks

_LOG_8PI = math.log(8.0 * math.pi)


@dataclass(frozen=True)
class TestResult:
    """Outcome of the equality test at level alpha; t_pairs holds t_ij for
    the pairs i < j in row-major order."""

    t_n: float
    t_pairs: np.ndarray
    centered: float
    p_value: float
    alpha: float
    reject: bool
    tau_alpha: float
    names: tuple[str, ...]

    def top_pairs(self, k: int = 20) -> list[tuple[str, str, float]]:
        """The k largest per-pair statistics (i < j) with their variable
        labels; ties keep row-major order."""
        if k < 0:
            raise ValidationError(f"top-k must be >= 0, got {k}")
        p, values = len(self.names), self.t_pairs
        k = min(k, values.size)
        if k == 0:
            return []
        # select the k-th largest value, then sort only the entries above it
        # and the row-major first of the entries equal to it
        kth = np.partition(values, values.size - k)[values.size - k]
        above = np.flatnonzero(values > kth)
        ties = np.flatnonzero(values == kth)[: k - above.size]
        chosen = np.sort(np.concatenate([above, ties]))
        order = chosen[np.argsort(-values[chosen], kind="stable")]
        # row i's pairs start at position i p - i (i + 1) / 2 of values
        i = np.arange(p)
        starts = i * p - i * (i + 1) // 2
        rows = np.searchsorted(starts, order, side="right") - 1
        cols = order - starts[rows] + rows + 1
        names = self.names
        return [(names[r], names[c], float(values[m])) for r, c, m in zip(rows, cols, order)]


def test_statistic(ds: TwoGroupDataset) -> tuple[float, np.ndarray]:
    """Maximum standardized squared correlation difference and the per-pair
    statistics t_ij of the pairs i < j in row-major order (the diagonal is
    excluded because its variance is identically zero)."""
    if ds.p < 2:
        raise ValidationError(f"the test needs p >= 2 variables, got {ds.p}")
    groups = [moment_set(group) for group in (ds.group1, ds.group2)]
    t_pairs = np.empty(ds.p * (ds.p - 1) // 2)
    t_n, filled = 0.0, 0
    for r0, r1 in triangle_blocks(ds.p):
        blocks = [g.rows(r0, r1) for g in groups]
        denom = sum(correlation_variance(m) / m.n for m in blocks)
        upper = ~np.tri(r1 - r0, ds.p - r0, dtype=bool)  # pairs i < j
        zero = np.argwhere(upper & (denom == 0.0))
        if zero.size:
            i, j = zero[0] + r0
            raise DegenerateVarianceError(
                f"pair ({ds.names[i]}, {ds.names[j]}) has zero variance estimate"
            )
        t = blocks[0].corr[upper] - blocks[1].corr[upper]
        t *= t
        t /= denom[upper]
        t_pairs[filled:filled + t.size] = t
        filled += t.size
        t_n = max(t_n, float(t.max(initial=0.0)))
    t_pairs.flags.writeable = False
    return t_n, t_pairs


def _centering(p: int) -> float:
    """4 log p - log log p, subtracted from t_n before the extreme value law;
    the calibration needs p >= 3."""
    if p < 3:
        raise UnsupportedDimensionError(f"extreme-value calibration needs p >= 3, got {p}")
    return 4.0 * math.log(p) - math.log(math.log(p))


def extreme_value_pvalue(t_n: float, p: int) -> float:
    """P-value of the max statistic under the extreme value null, clamped to
    [0, 1]."""
    exponent = -0.5 * (t_n - _centering(p)) - 0.5 * _LOG_8PI
    if exponent > 700.0:  # exp would overflow; p-value saturates at 1
        return 1.0
    pv = -math.expm1(-math.exp(exponent))
    return min(1.0, max(0.0, pv))


def critical_tau(alpha: float) -> float:
    """1 - alpha quantile of the extreme value law: -log(8 pi) - 2 log(-log1p(-alpha))."""
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    return -_LOG_8PI - 2.0 * math.log(-math.log1p(-alpha))


def decide_test(t_n: float, p: int, alpha: float) -> tuple[bool, float]:
    """Reject when t_n >= 4 log p - log log p + critical_tau(alpha)."""
    centering = _centering(p)
    tau_alpha = critical_tau(alpha)
    return bool(t_n >= centering + tau_alpha), tau_alpha


def test_equality(ds: TwoGroupDataset, alpha: float = 0.05) -> TestResult:
    """Run the full equality test at level alpha."""
    centering = _centering(ds.p)
    critical_tau(alpha)  # rejects a bad alpha before the O(p^2 n) statistic
    t_n, t_pairs = test_statistic(ds)
    reject, tau_alpha = decide_test(t_n, ds.p, alpha)
    return TestResult(
        t_n=t_n,
        t_pairs=t_pairs,
        centered=t_n - centering,
        p_value=extreme_value_pvalue(t_n, ds.p),
        alpha=float(alpha),
        reject=reject,
        tau_alpha=tau_alpha,
        names=ds.names,
    )
