"""Thresholding estimators of differential correlation and covariance
structure, the comparison baselines, and per-variable support ranking.

Every estimator accepts a fixed thresholding constant tau; passing tau=None
selects it by cross-validation (see crossval). Given a tuple of rules of
distinct kinds in place of one rule, it returns one result per rule, each
equal to that rule's own fit, from one cross-validation pass and one moment
set per group. All of them fit through one path driven by the kind table in
thresholding. Diagonal conventions, set by the threshold levels alone (a
single group's are 0 on the diagonal):

- the correlation-difference estimate has an exactly zero diagonal,
- a single thresholded correlation matrix keeps its unit diagonal,
- the covariance-difference estimate thresholds its diagonal like any other
  entry; only the cov-then-normalize baseline keeps each group's raw
  variances before normalizing.

The fit walks the row blocks of the upper triangle (moments.row_blocks) and
mirrors each below the diagonal, so beside its outputs it holds only each
group's standardized data and column statistics, no group covariance or
correlation. CV walks the same blocks, except for cross-corr: its fit walks
diff-corr's, so it is diff-corr's [:split, split:] bit for bit, and stops at
the first from split on, while CV scores only rows 0:split and walks theirs
(at p=150 and split=100, the fit walks 0:64 and 64:150 and CV walks 0:100).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .crossval import CvConfig, CvResult, cv_select_tau, cv_select_tau_single
from .dataset import SampleMatrix, TwoGroupDataset
from .errors import ValidationError
from .moments import moment_set, put_triangle_rows, row_blocks, sample_correlation
from .thresholding import (
    DEFAULT_RULE,
    KINDS,
    THRESHOLDS,
    ThresholdRule,
    apply_threshold,
    check_split,
    check_tau,
    rule_tuple,
)


@dataclass(frozen=True)
class DifferentialEstimate:
    """A thresholded matrix estimate plus the constant and rule that produced
    it; cv holds the cross-validation result when tau was selected by it."""

    estimate: np.ndarray
    tau: float
    rule: ThresholdRule
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cv: CvResult | None = None

    def __post_init__(self):
        values = np.asarray(self.estimate, dtype=float)
        if values.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValidationError(f"estimate shape {values.shape} does not match labels")
        values = values.copy() if values.flags.writeable else values  # read-only: kept
        values.flags.writeable = False
        object.__setattr__(self, "estimate", values)

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
    rule: ThresholdRule | tuple[ThresholdRule, ...],
    cv: CvConfig | None,
    split: int | None = None,
):
    """The shared recipe: select tau by cross-validation when it is None,
    then threshold the kind's statistic on the full data, for each rule."""
    spec = KINDS[kind]
    check_split(kind, split, data.p)
    rules = rule_tuple(rule)
    cv_result = None
    if tau is None:
        if spec.two_group:
            cv_result = cv_select_tau(data, cv, kind, split, rules)
        else:
            cv_result = cv_select_tau_single(data, cv, kind, rules)
        taus = cv_result.tau_hat.tolist()
    else:
        taus = [check_tau(tau)] * len(rules)
    groups = (data.group1, data.group2) if spec.two_group else (data,)
    full = [moment_set(x) for x in groups]  # standardized data; no p x p array
    names = data.names
    rows, cols = (names[:split], names[split:]) if spec.cross_block else (names, names)
    outputs = [np.empty((len(rows), len(cols))) for _ in rules]
    # cross-corr walks diff-corr's blocks, so it is diff-corr's [:split, split:]
    for r0, r1, block in row_blocks(full, data.p):
        if spec.cross_block and r0 >= split:  # before any product of the block forms
            break
        raw = spec.raw(block)
        unit = THRESHOLDS[spec.statistic, len(block)](*block, 1.0)  # scaled by each rule's tau
        for tau, r, out in zip(taus, rules, outputs):
            fitted = apply_threshold(raw, tau * unit, r)
            if spec.cross_block:  # out has split rows
                out[r0:r1] = fitted[:split - r0, split - r0:]
            else:
                put_triangle_rows(out, r0, r1, fitted)
    fits = []
    for i, (tau, r, estimate) in enumerate(zip(taus, rules, outputs)):
        estimate.flags.writeable = False
        own_cv = cv_result and replace(cv_result, tau_hat=tau, losses=cv_result.losses[i])
        fits.append(DifferentialEstimate(estimate, tau, r, rows, cols, own_cv))
    return fits[0] if isinstance(rule, ThresholdRule) else tuple(fits)


def estimate_diff_corr(
    ds: TwoGroupDataset,
    tau: float | None = None,
    rule: ThresholdRule | tuple[ThresholdRule, ...] = DEFAULT_RULE,
    cv: CvConfig | None = None,
) -> DifferentialEstimate | tuple[DifferentialEstimate, ...]:
    """Adaptive entrywise thresholding of the sample correlation difference.

    The per-entry threshold is the sum over groups of
    tau * sqrt(log p / n_t) * (sqrt(corr_noise) + |corr|/2 * (diagonal noise terms)).
    """
    return _fit("diff-corr", ds, tau, rule, cv)


def estimate_single_corr(
    x: SampleMatrix,
    tau: float | None = None,
    rule: ThresholdRule | tuple[ThresholdRule, ...] = DEFAULT_RULE,
    cv: CvConfig | None = None,
) -> DifferentialEstimate | tuple[DifferentialEstimate, ...]:
    """Thresholding estimate of a single sparse correlation matrix; the unit
    diagonal is kept as is."""
    return _fit("single-corr", x, tau, rule, cv)


def estimate_diff_cov(
    ds: TwoGroupDataset,
    tau: float | None = None,
    rule: ThresholdRule | tuple[ThresholdRule, ...] = DEFAULT_RULE,
    cv: CvConfig | None = None,
) -> DifferentialEstimate | tuple[DifferentialEstimate, ...]:
    """Adaptive entrywise thresholding of the sample covariance difference."""
    return _fit("diff-cov", ds, tau, rule, cv)


def estimate_cross_corr(
    ds: TwoGroupDataset,
    split: int,
    tau: float | None = None,
    rule: ThresholdRule | tuple[ThresholdRule, ...] = DEFAULT_RULE,
    cv: CvConfig | None = None,
) -> DifferentialEstimate | tuple[DifferentialEstimate, ...]:
    """Thresholded cross block of the correlation difference: variables
    [0, split) against [split, p). Equals the corresponding block of
    estimate_diff_corr for the same tau."""
    return _fit("cross-corr", ds, tau, rule, cv, split)


def baseline_cov_then_normalize(
    ds: TwoGroupDataset,
    tau: float | None = None,
    rule: ThresholdRule | tuple[ThresholdRule, ...] = DEFAULT_RULE,
    cv: CvConfig | None = None,
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Baseline: threshold each group's covariance adaptively (raw variances
    kept), normalize each to a correlation matrix, and return the difference.
    With tau=None each group selects its own constant by cross-validation."""
    f1, f2 = (_fit("cov-threshold", x, tau, rule_tuple(rule), cv) for x in (ds.group1, ds.group2))
    diffs = [sample_correlation(a.estimate) - sample_correlation(b.estimate) for a, b in zip(f1, f2)]
    return diffs[0] if isinstance(rule, ThresholdRule) else tuple(diffs)


def baseline_separate_corr(
    ds: TwoGroupDataset,
    tau: float | None = None,
    rule: ThresholdRule | tuple[ThresholdRule, ...] = DEFAULT_RULE,
    cv: CvConfig | None = None,
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Baseline: threshold each group's correlation matrix separately and
    return the difference. With tau=None each group selects its own constant
    by cross-validation."""
    f1, f2 = (estimate_single_corr(x, tau, rule_tuple(rule), cv) for x in (ds.group1, ds.group2))
    diffs = [a.estimate - b.estimate for a, b in zip(f1, f2)]
    return diffs[0] if isinstance(rule, ThresholdRule) else tuple(diffs)


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
