"""Thresholding estimators of differential correlation and covariance
structure, the comparison baselines, and per-variable support ranking.

Every estimator accepts a fixed thresholding constant tau; passing tau=None
selects it by cross-validation (see crossval). All of them fit through one
path driven by the kind table in thresholding. Diagonal conventions:

- the correlation-difference estimate has an exactly zero diagonal,
- a single thresholded correlation matrix keeps its unit diagonal,
- the covariance-difference estimate thresholds its diagonal like any other
  entry; only the cov-then-normalize baseline keeps each group's raw
  variances before normalizing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .crossval import CvConfig, CvResult, cv_select_tau, cv_select_tau_single
from .dataset import SampleMatrix, TwoGroupDataset
from .errors import ValidationError
from .moments import moment_set, sample_correlation
from .thresholding import (
    KINDS,
    THRESHOLDS,
    ThresholdMatrix,
    ThresholdRule,
    apply_threshold,
)

DEFAULT_RULE = ThresholdRule("adaptive-lasso", 4.0)


@dataclass(frozen=True)
class DifferentialEstimate:
    """A thresholded matrix estimate plus the thresholds, constant and rule
    that produced it; cv holds the cross-validation result when tau was
    selected by it."""

    estimate: np.ndarray
    thresholds: ThresholdMatrix
    tau: float
    rule: ThresholdRule
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cv: CvResult | None = None

    def __post_init__(self):
        est = np.array(self.estimate, dtype=float)
        if est.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValidationError(
                f"estimate shape {est.shape} does not match labels"
            )
        est.flags.writeable = False
        object.__setattr__(self, "estimate", est)

    @property
    def is_square(self) -> bool:
        return self.row_labels == self.col_labels

    @property
    def support_count(self) -> np.ndarray:
        """Per-row count of nonzero entries, excluding the diagonal when square.
        Thresholded entries are literal zeros, so an exact comparison is used."""
        nonzero = self.estimate != 0.0
        if self.is_square:
            nonzero = nonzero.copy()
            np.fill_diagonal(nonzero, False)
        return nonzero.sum(axis=1)

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.estimate))


def _fit(
    kind: str,
    data: TwoGroupDataset | SampleMatrix,
    tau: float | None,
    rule: ThresholdRule | None,
    cv: CvConfig | None,
    split: int | None = None,
) -> DifferentialEstimate:
    """The shared recipe: select tau by cross-validation when it is None,
    then threshold the kind's statistic on the full data."""
    spec = KINDS[kind]
    rule = rule or DEFAULT_RULE
    cfg = replace(cv or CvConfig(), rule=rule)
    cv_result = None
    if tau is None:
        if spec.two_group:
            cv_result = cv_select_tau(data, cfg, kind, split=split)
        else:
            cv_result = cv_select_tau_single(data, cfg, kind)
        tau = cv_result.tau_hat
    groups = (data.group1, data.group2) if spec.two_group else (data,)
    moments = [moment_set(x) for x in groups]
    full = THRESHOLDS[spec.statistic, len(moments)](*moments, tau)
    thresholds = ThresholdMatrix(spec.block(full.values, split), tau)
    raw = spec.raw(moments, split)
    estimate = spec.set_diagonal(apply_threshold(raw, thresholds, rule), raw)
    names = data.names
    rows, cols = (names[:split], names[split:]) if spec.cross_block else (names, names)
    return DifferentialEstimate(estimate, thresholds, tau, rule, rows, cols, cv_result)


def estimate_diff_corr(
    ds: TwoGroupDataset,
    tau: float | None = None,
    rule: ThresholdRule | None = None,
    cv: CvConfig | None = None,
) -> DifferentialEstimate:
    """Adaptive entrywise thresholding of the sample correlation difference.

    The per-entry threshold is the sum over groups of
    tau * sqrt(log p / n_t) * (sqrt(corr_noise) + |corr|/2 * (diagonal noise terms)).
    """
    return _fit("diff-corr", ds, tau, rule, cv)


def estimate_single_corr(
    x: SampleMatrix,
    tau: float | None = None,
    rule: ThresholdRule | None = None,
    cv: CvConfig | None = None,
) -> DifferentialEstimate:
    """Thresholding estimate of a single sparse correlation matrix; the unit
    diagonal is kept as is."""
    return _fit("single-corr", x, tau, rule, cv)


def estimate_diff_cov(
    ds: TwoGroupDataset,
    tau: float | None = None,
    rule: ThresholdRule | None = None,
    cv: CvConfig | None = None,
) -> DifferentialEstimate:
    """Adaptive entrywise thresholding of the sample covariance difference."""
    return _fit("diff-cov", ds, tau, rule, cv)


def estimate_cross_corr(
    ds: TwoGroupDataset,
    split: int,
    tau: float | None = None,
    rule: ThresholdRule | None = None,
    cv: CvConfig | None = None,
) -> DifferentialEstimate:
    """Thresholded cross block of the correlation difference: variables
    [0, split) against [split, p). Equals the corresponding block of
    estimate_diff_corr for the same tau."""
    if not (1 <= split < ds.p):
        raise ValidationError(
            f"split must lie in [1, {ds.p - 1}], got {split}"
        )
    return _fit("cross-corr", ds, tau, rule, cv, split)


def baseline_cov_then_normalize(
    ds: TwoGroupDataset,
    tau: float | None = None,
    rule: ThresholdRule | None = None,
    cv: CvConfig | None = None,
) -> np.ndarray:
    """Baseline: threshold each group's covariance adaptively (raw variances
    kept), normalize each to a correlation matrix, and return the difference.
    With tau=None each group selects its own constant by cross-validation."""
    fits = [_fit("cov-threshold", x, tau, rule, cv) for x in (ds.group1, ds.group2)]
    r1, r2 = (sample_correlation(f.estimate) for f in fits)
    return r1 - r2


def baseline_separate_corr(
    ds: TwoGroupDataset,
    tau: float | None = None,
    rule: ThresholdRule | None = None,
    cv: CvConfig | None = None,
) -> np.ndarray:
    """Baseline: threshold each group's correlation matrix separately and
    return the difference. With tau=None each group selects its own constant
    by cross-validation."""
    f1, f2 = (estimate_single_corr(x, tau, rule, cv) for x in (ds.group1, ds.group2))
    return f1.estimate - f2.estimate


def baseline_sample_difference(ds: TwoGroupDataset) -> np.ndarray:
    """Baseline: the raw difference of the sample correlation matrices."""
    return moment_set(ds.group1).corr - moment_set(ds.group2).corr


def support_ranking(est: DifferentialEstimate) -> list[tuple[str, int]]:
    """Rank variables by the number of nonzero off-diagonal entries in their
    row of a square estimate; ties keep the original variable order."""
    if not est.is_square:
        raise ValidationError("support ranking needs a square estimate")
    counts = est.support_count
    order = sorted(range(len(counts)), key=lambda i: (-int(counts[i]), i))
    return [(est.row_labels[i], int(counts[i])) for i in order]
