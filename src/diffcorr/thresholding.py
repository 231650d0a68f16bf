"""Entrywise thresholding rules and the data-driven threshold levels.

The three rules share the same contract on a scalar z at level lam >= 0:
they return 0 whenever |z| <= lam, and never move z by more than lam. The
hard rule uses a strict inequality |z| > lam so the boundary |z| = lam is
killed as well.

Each entry is thresholded at a level scaled to its own noise level (the
adaptive thresholding of Cai and Liu, 2011); unit_thresholds defines the
noise levels and is the only code that computes them.

Every estimator kind follows one recipe; KINDS records, per kind, which
statistic it thresholds, over how many groups and whether it keeps only a
cross block; the estimators and cross-validation both read it. It records no
diagonal policy: unit_thresholds gives a single group levels of 0 on the
diagonal, and every rule leaves an entry at level 0 exactly as it is.
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


DEFAULT_RULE = ThresholdRule("adaptive-lasso", 4.0)


def rule_tuple(rule) -> tuple[ThresholdRule, ...]:
    """A rule argument as a tuple of rules: one rule, or a non-empty sequence of
    rules of distinct kinds, whose fits then share one pass over the data."""
    rules = (rule,) if isinstance(rule, ThresholdRule) else tuple(rule)
    kinds = [r.kind for r in rules]
    if not kinds or len(set(kinds)) < len(kinds):
        raise ValidationError(f"need one rule, or rules of distinct kinds, got {kinds}")
    return rules


def apply_rule(rule: ThresholdRule, z, lam):
    """Apply a thresholding rule entrywise; z and lam may be scalars or
    broadcastable arrays. Zero input maps to zero for every rule, and every
    zero output is +0.0."""
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
    out += 0.0  # a killed negative entry, z * 0 or -0 * 0, is -0.0; make it +0.0
    if out.ndim == 0:
        return float(out)
    return out


def apply_threshold(m: np.ndarray, thresholds, rule: ThresholdRule) -> np.ndarray:
    """Threshold a matrix entrywise with per-entry levels, which must be
    finite and >= 0 (noise that overflowed reaches the levels as inf or NaN)."""
    m = np.asarray(m, dtype=float)
    levels = np.asarray(thresholds, dtype=float)
    if m.shape != levels.shape:
        raise ValidationError(
            f"matrix shape {m.shape} does not match threshold shape {levels.shape}"
        )
    if not np.all(np.isfinite(levels)) or np.any(levels < 0.0):
        raise ValidationError("threshold matrix entries must be finite and >= 0")
    return apply_rule(rule, m, levels)


def _product_variance(c: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Mean over samples of (c_i c_j - cov_ij)^2 for centered data c and the
    covariance cov of its first b = len(cov) columns with all, as E[c_i^2 c_j^2]
    - cov_ij^2 from a Gram product of the squared data; the b x b square is
    symmetrized, and all clamped at 0 against rounding."""
    sq = c * c
    b = cov.shape[0]
    noise = sq[:, :b].T @ sq / c.shape[0] - cov * cov
    noise[:, :b] = (noise[:, :b] + noise[:, :b].T) * 0.5
    return np.maximum(noise, 0.0, out=noise)


def _noise(m: MomentSet, statistic: str) -> np.ndarray:
    """Per-entry noise level of one group's "cov" or "corr" statistic on m's rows."""
    noise = _product_variance(m.centered, m.cov)
    if statistic == "cov":
        return noise
    return noise / (m.var[:len(noise), None] * m.var)


def unit_thresholds(statistic: str, moments) -> np.ndarray:
    """Threshold levels at tau = 1 for the "corr" or "cov" statistic of one
    group, or of the difference of groups (the per-group terms add up):

    corr: sqrt(log p / n) * (sqrt(corr_noise_ij)
                             + |corr_ij| / 2 * (sqrt(corr_noise_ii) + sqrt(corr_noise_jj)))
    cov:  sqrt(log p / n * cov_noise_ij)

    with each group's noise levels computed from its centered data c:

    cov_noise_ij  = mean over the n rows of (c_i c_j - cov_ij)^2
    corr_noise_ij = cov_noise_ij / (cov_ii cov_jj)

    A single group's levels are exactly 0 on the diagonal, so every rule keeps
    its unit correlations or raw variances; a difference's are not. Moment
    sets of one row block (MomentSet.rows) give that block's levels.
    """
    dims = [m.p for m in moments]
    if len(set(dims)) != 1:
        raise ValidationError(f"moment sets disagree on dimension: {dims}")
    logp = log(dims[0])
    total = 0.0
    for m in moments:
        noise = _noise(m, statistic)
        if statistic == "cov":
            term = np.sqrt(logp / m.n * noise)
        else:
            root_diag = np.sqrt(m._terms[4]) / m.var  # sqrt(corr_noise_jj), every column j
            term = np.sqrt(logp / m.n) * (
                np.sqrt(noise)
                + 0.5 * np.abs(m.corr) * (root_diag[:len(noise), None] + root_diag)
            )
        total += term
    if len(moments) == 1:
        np.fill_diagonal(total, 0.0)  # the leading square's diagonal
    return total


def _thresholds(statistic: str, moments, tau: float) -> np.ndarray:
    return check_tau(tau) * unit_thresholds(statistic, moments)


def diff_corr_thresholds(m1: MomentSet, m2: MomentSet, tau: float) -> np.ndarray:
    """Per-entry threshold levels for the difference of two sample correlations."""
    return _thresholds("corr", (m1, m2), tau)


def single_corr_thresholds(m: MomentSet, tau: float) -> np.ndarray:
    """Single-sample analogue of diff_corr_thresholds, 0 on the diagonal."""
    return _thresholds("corr", (m,), tau)


def diff_cov_thresholds(m1: MomentSet, m2: MomentSet, tau: float) -> np.ndarray:
    """Per-entry threshold levels for the difference of two sample covariances."""
    return _thresholds("cov", (m1, m2), tau)


def _cov_thresholds(m: MomentSet, tau: float) -> np.ndarray:
    return _thresholds("cov", (m,), tau)


# Threshold levels by (statistic, number of groups). The estimators call the
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
    cross_block: bool  # only the [:split, split:] block

    def raw(self, moments) -> np.ndarray:
        """The statistic to threshold, from one moment set per group."""
        stat = getattr(moments[0], self.statistic)
        if self.two_group:
            stat = stat - getattr(moments[1], self.statistic)
        return stat


KINDS = {
    "diff-corr": EstimatorKind("corr", two_group=True, cross_block=False),
    "diff-cov": EstimatorKind("cov", two_group=True, cross_block=False),
    "cross-corr": EstimatorKind("corr", two_group=True, cross_block=True),
    "single-corr": EstimatorKind("corr", two_group=False, cross_block=False),
    "cov-threshold": EstimatorKind("cov", two_group=False, cross_block=False),
}


def check_split(kind: str, split: int | None, p: int) -> None:
    """Only a cross-block kind takes a split index, and it needs one in [1, p - 1]."""
    if KINDS[kind].cross_block:
        if split is None or not (1 <= split < p):
            raise ValidationError(f"{kind} needs a split index in [1, {p - 1}], got {split}")
    elif split is not None:
        raise ValidationError(f"a split index applies only to cross-corr, not {kind!r}")


def check_tau(tau: float) -> float:
    if not np.isfinite(tau) or tau < 0.0:
        raise ValidationError(f"tau must be finite and >= 0, got {tau}")
    return tau
