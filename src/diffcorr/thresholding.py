"""Entrywise thresholding rules and the data-driven threshold matrices.

The three rules share the same contract on a scalar z at level lam >= 0:
they return 0 whenever |z| <= lam, and never move z by more than lam. The
hard rule uses a strict inequality |z| > lam so the boundary |z| = lam is
killed as well.

Every estimator kind follows one recipe; KINDS records, per kind, which
statistic it thresholds, over how many groups, its diagonal policy and
whether it keeps only a cross block. The estimators and cross-validation
both read that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import ValidationError
from .moments import MomentSet

RULE_NAMES = ("hard", "soft", "adaptive-lasso")


@dataclass(frozen=True)
class ThresholdRule:
    """A named thresholding rule; eta is used only by adaptive-lasso."""

    kind: str
    eta: float = 4.0

    def __post_init__(self):
        kind = self.kind.replace("_", "-").lower()
        if kind not in RULE_NAMES:
            raise ValidationError(
                f"unknown thresholding rule {self.kind!r}; choose from {RULE_NAMES}"
            )
        if not self.eta >= 1.0:  # also rejects NaN
            raise ValidationError(f"adaptive-lasso exponent must be >= 1, got {self.eta}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "eta", float(self.eta))


@dataclass(frozen=True)
class ThresholdMatrix:
    """Per-entry nonnegative threshold levels and the constant tau they scale with."""

    values: np.ndarray
    tau: float

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValidationError("threshold matrix entries must be finite and >= 0")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tau", float(self.tau))


def apply_rule(rule: ThresholdRule, z, lam):
    """Apply a thresholding rule entrywise; z and lam may be scalars or
    broadcastable arrays. Zero input maps to zero for every rule."""
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise ValidationError("threshold level must be >= 0")
    if rule.kind == "hard":
        out = np.where(np.abs(z) > lam, z, 0.0)
    elif rule.kind == "soft":
        out = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
    else:  # adaptive-lasso; 0/0 at z = 0 resolved to 0
        absz = np.abs(z)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.where(absz > 0.0, lam / np.where(absz > 0.0, absz, 1.0), np.inf)
            shrink = np.maximum(1.0 - ratio**rule.eta, 0.0)
        out = z * shrink
    if out.ndim == 0:
        return float(out)
    return out


def apply_threshold(m: np.ndarray, thresholds, rule: ThresholdRule) -> np.ndarray:
    """Threshold a matrix entrywise with per-entry levels."""
    m = np.asarray(m, dtype=float)
    values = thresholds.values if isinstance(thresholds, ThresholdMatrix) else np.asarray(thresholds, dtype=float)
    if m.shape != values.shape:
        raise ValidationError(
            f"matrix shape {m.shape} does not match threshold shape {values.shape}"
        )
    return apply_rule(rule, m, values)


def unit_thresholds(statistic: str, moments) -> np.ndarray:
    """Threshold levels at tau = 1 for the "corr" or "cov" statistic of one
    group, or of the difference of groups (the per-group terms add up):

    corr: sqrt(log p / n) * (sqrt(corr_noise_ij)
                             + |corr_ij| / 2 * (sqrt(corr_noise_ii) + sqrt(corr_noise_jj)))
    cov:  sqrt(log p / n * cov_noise_ij)
    """
    dims = [m.p for m in moments]
    if len(set(dims)) != 1:
        raise ValidationError(f"moment sets disagree on dimension: {dims}")
    logp = log(dims[0])
    total = 0.0
    for m in moments:
        if statistic == "cov":
            term = np.sqrt(logp / m.n * m.cov_noise)
        else:
            root_diag = np.sqrt(np.diag(m.corr_noise))
            term = np.sqrt(logp / m.n) * (
                np.sqrt(m.corr_noise)
                + 0.5 * np.abs(m.corr) * (root_diag[:, None] + root_diag[None, :])
            )
        total = total + term
    return total


def _thresholds(statistic: str, moments, tau: float) -> ThresholdMatrix:
    _check_tau(tau)
    return ThresholdMatrix(tau * unit_thresholds(statistic, moments), tau)


def diff_corr_thresholds(m1: MomentSet, m2: MomentSet, tau: float) -> ThresholdMatrix:
    """Per-entry threshold levels for the difference of two sample correlations."""
    return _thresholds("corr", (m1, m2), tau)


def single_corr_thresholds(m: MomentSet, tau: float) -> ThresholdMatrix:
    """Single-sample analogue of diff_corr_thresholds."""
    return _thresholds("corr", (m,), tau)


def diff_cov_thresholds(m1: MomentSet, m2: MomentSet, tau: float) -> ThresholdMatrix:
    """Per-entry threshold levels for the difference of two sample covariances."""
    return _thresholds("cov", (m1, m2), tau)


def _cov_thresholds(m: MomentSet, tau: float) -> ThresholdMatrix:
    return _thresholds("cov", (m,), tau)


# Threshold matrix by (statistic, number of groups). The estimators call the
# public functions through this dict rather than through the kind table, so
# tools that wrap module-level names (perfbench/layertrace.py) see each call.
THRESHOLDS = {
    ("corr", 2): diff_corr_thresholds,
    ("corr", 1): single_corr_thresholds,
    ("cov", 2): diff_cov_thresholds,
    ("cov", 1): _cov_thresholds,
}


@dataclass(frozen=True)
class EstimatorKind:
    """How one estimator kind applies the shared recipe: threshold a
    statistic entrywise at levels scaled to each entry's noise."""

    statistic: str  # the MomentSet field thresholded: "corr" or "cov"
    two_group: bool  # group 1 minus group 2, or a single group
    raw_diagonal: bool  # the diagonal keeps its raw, unthresholded value
    cross_block: bool  # only the [:split, split:] block

    def block(self, m: np.ndarray, split: int | None) -> np.ndarray:
        return m[:split, split:] if self.cross_block else m

    def raw(self, moments, split: int | None = None) -> np.ndarray:
        """The statistic to threshold, from one moment set per group."""
        stat = getattr(moments[0], self.statistic)
        if self.two_group:
            stat = stat - getattr(moments[1], self.statistic)
        return self.block(stat, split)

    def set_diagonal(self, estimate: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """Apply the diagonal policy to a thresholded raw statistic, in place."""
        if self.raw_diagonal:
            np.fill_diagonal(estimate, np.diag(raw))
        return estimate


KINDS = {
    "diff-corr": EstimatorKind("corr", two_group=True, raw_diagonal=False, cross_block=False),
    "diff-cov": EstimatorKind("cov", two_group=True, raw_diagonal=False, cross_block=False),
    "cross-corr": EstimatorKind("corr", two_group=True, raw_diagonal=False, cross_block=True),
    "single-corr": EstimatorKind("corr", two_group=False, raw_diagonal=True, cross_block=False),
    "cov-threshold": EstimatorKind("cov", two_group=False, raw_diagonal=True, cross_block=False),
}


def _check_tau(tau: float) -> None:
    if not np.isfinite(tau) or tau < 0.0:
        raise ValidationError(f"tau must be finite and >= 0, got {tau}")
