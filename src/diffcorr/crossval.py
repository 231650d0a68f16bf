"""Data-driven selection of the thresholding constant tau.

Protocol: for each of h_repeats repetitions, each group is split at random
into a training part of roughly (k-1)/k of the observations and a held-out
part of roughly 1/k. The estimator fit on the training parts is scored
against the held-out raw statistic in squared Frobenius norm at every tau on
the grid {0, 1/N, ..., 5}. Losses are averaged over repetitions and the
smallest tau attaining the minimum is returned; the caller then refits on
the full data with that tau.

The loss curve of one split is computed in closed form rather than by
fitting at each tau: an entry survives thresholding on a leading run of the
grid, is zero above it, and while kept moves with tau by a fixed power law
(constant for hard, linear for soft, tau**eta for adaptive-lasso). Binning
the entries by the length of that run gives every grid point's loss from a
few cumulative sums, equal to fitting at every tau up to rounding, in
O(p^2 log G + G) time for G grid points.

Per-repetition RNG streams are derived from (seed, repetition), so results do
not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SampleMatrix, TwoGroupDataset
from .errors import (
    DegenerateSplitError,
    DegenerateVariableError,
    ValidationError,
)
from .moments import MomentSet, moment_set
from .thresholding import KINDS, ThresholdRule, unit_thresholds

TWO_GROUP_KINDS = tuple(kind for kind, spec in KINDS.items() if spec.two_group)
SINGLE_GROUP_KINDS = tuple(kind for kind, spec in KINDS.items() if not spec.two_group)

_MAX_REDRAWS = 10


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings; defaults match the 5-fold protocol."""

    k_folds: int = 5
    h_repeats: int = 5
    grid_n: int = 50
    seed: int = 0
    rule: ThresholdRule = ThresholdRule("adaptive-lasso")

    def __post_init__(self):
        if self.k_folds < 2:
            raise ValidationError(f"k_folds must be >= 2, got {self.k_folds}")
        if self.h_repeats < 1:
            raise ValidationError(f"h_repeats must be >= 1, got {self.h_repeats}")
        if self.grid_n < 1:
            raise ValidationError(f"grid_n must be >= 1, got {self.grid_n}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError("seed must be a non-negative 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))

    def grid(self) -> np.ndarray:
        """Equi-spaced tau grid {0, 1/N, 2/N, ..., 5} with N = grid_n."""
        return np.arange(5 * self.grid_n + 1) / self.grid_n


@dataclass(frozen=True)
class CvResult:
    """Selected tau plus the averaged loss curve it minimizes."""

    tau_hat: float
    grid: np.ndarray
    losses: np.ndarray
    splits_used: int


def _split_sizes(n: int, k_folds: int) -> int:
    n_test = n // k_folds
    if n_test < 2 or n - n_test < 2:
        raise ValidationError(
            f"cannot split {n} observations into {k_folds} folds: both parts "
            "need at least 2 observations"
        )
    return n_test


def _draw_split(rng, n: int, n_test: int) -> tuple[np.ndarray, np.ndarray]:
    """One random partition of range(n) into (train, test) index arrays."""
    perm = rng.permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def _draw_folds(rng, x: SampleMatrix, n_test: int) -> tuple[MomentSet, MomentSet]:
    """Draw one train/test split; raises DegenerateVariableError on a
    zero-variance column in either part."""
    train_idx, test_idx = _draw_split(rng, x.n, n_test)
    train = SampleMatrix(x.data[train_idx], x.names)
    test = SampleMatrix(x.data[test_idx], x.names)
    return moment_set(train), moment_set(test)


def _loss_curve(rule, raw, unit, target, grid, raw_diagonal) -> np.ndarray:
    """Squared Frobenius distance from target of the estimate thresholded at
    tau * unit, for every tau on the increasing grid, without fitting at each.

    With z the raw entry, u its unit threshold, t its target and d = z - t,
    an entry is kept at tau_g when |z| > fl(tau_g * u), the comparison
    apply_rule makes, so it is kept on the first k grid points and zero,
    contributing t**2, from grid point k on. While kept it is z - s_g with
    s_g = z * (tau_g * u / |z|)**e (e = 1 for soft, eta for adaptive-lasso,
    s_g = 0 for hard) and contributes d**2 - 2 d s_g + s_g**2.
    """
    constant = 0.0
    if raw_diagonal:  # the diagonal keeps its raw value at every tau
        dev = np.diag(raw) - np.diag(target)
        constant = float(dev @ dev)
        off = ~np.eye(raw.shape[0], dtype=bool)
        raw, unit, target = raw[off], unit[off], target[off]
    z, u, t = raw.ravel(), unit.ravel(), target.ravel()
    n_grid = len(grid)
    absz = np.abs(z)
    # k = number of leading grid points at which the entry is kept: seeded
    # from |z| / u, then settled by one exact step each way
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.searchsorted(grid, absz / u)
    k = np.where(u > 0.0, k, np.where(absz > 0.0, n_grid, 0))
    k += (k < n_grid) & (absz > grid[np.minimum(k, n_grid - 1)] * u)
    k -= (k > 0) & (absz <= grid[np.maximum(k - 1, 0)] * u)
    d = z - t
    # every entry killed, plus what keeping each one adds (a suffix sum, so an
    # entry whose kept and killed terms are equal leaves exact ties in place)
    gain = np.bincount(k, d * d - t * t, minlength=n_grid + 1)
    loss = float(t @ t) + constant + np.cumsum(gain[::-1])[::-1][1:]
    if rule.kind == "hard":
        return loss
    e = 1.0 if rule.kind == "soft" else rule.eta
    live = k > 0
    last = k[live] - 1  # each kept entry's last kept grid point
    z_live = z[live]
    # shrink at the last kept point; (tau_g u / |z|) <= 1 there, so no overflow
    s = z_live * (grid[last] * u[live] / np.abs(z_live)) ** e
    step = grid[:-1] / grid[1:]
    cross = _fold_down(np.bincount(last, d[live] * s, minlength=n_grid), step**e)
    square = _fold_down(np.bincount(last, s * s, minlength=n_grid), step ** (2 * e))
    return loss - 2.0 * cross + square


def _fold_down(bins: np.ndarray, step: np.ndarray) -> np.ndarray:
    """S_g = bins_g + step_g * S_{g+1} from the top of the grid down, with
    step_g = (tau_g / tau_{g+1})**e <= 1: entries binned at grid point j
    reach S_g scaled by (tau_g / tau_j)**e, with no factor above 1."""
    out, step = bins.tolist(), step.tolist()
    for g in range(len(out) - 2, -1, -1):
        out[g] += step[g] * out[g + 1]
    return np.array(out)


def _accumulate_losses(kind, cfg, samples, split) -> tuple[np.ndarray, np.ndarray]:
    spec = KINDS[kind]
    grid = cfg.grid()
    loss_acc = np.zeros(grid.shape)
    sizes = [_split_sizes(x.n, cfg.k_folds) for x in samples]
    for h in range(cfg.h_repeats):
        rng = np.random.default_rng([cfg.seed, h])
        for attempt in range(_MAX_REDRAWS):
            try:
                folds = [_draw_folds(rng, x, m) for x, m in zip(samples, sizes)]
                break
            except DegenerateVariableError:
                continue
        else:
            raise DegenerateSplitError(
                f"repetition {h}: every one of {_MAX_REDRAWS} candidate splits "
                "produced a zero-variance column"
            )
        trains = [f[0] for f in folds]
        tests = [f[1] for f in folds]
        unit = spec.block(unit_thresholds(spec.statistic, trains), split)
        raw = spec.raw(trains, split)
        target = spec.raw(tests, split)
        loss_acc += _loss_curve(cfg.rule, raw, unit, target, grid, spec.raw_diagonal)
    return grid, loss_acc / cfg.h_repeats


def _finish(grid, losses, cfg) -> CvResult:
    best = int(np.argmin(losses))  # first minimum, i.e. the smallest tau
    grid.flags.writeable = False
    losses.flags.writeable = False
    return CvResult(
        tau_hat=float(grid[best]), grid=grid, losses=losses, splits_used=cfg.h_repeats
    )


def cv_select_tau(
    ds: TwoGroupDataset,
    cfg: CvConfig | None = None,
    estimator: str = "diff-corr",
    split: int | None = None,
) -> CvResult:
    """Select tau for a two-group estimator kind ("diff-corr", "diff-cov" or
    "cross-corr"; the latter needs the block split index)."""
    cfg = cfg or CvConfig()
    if estimator not in TWO_GROUP_KINDS:
        raise ValidationError(
            f"unknown two-group estimator kind {estimator!r}; choose from {TWO_GROUP_KINDS}"
        )
    if estimator == "cross-corr":
        if split is None or not (1 <= split < ds.p):
            raise ValidationError(
                f"cross-corr needs a split index in [1, {ds.p - 1}], got {split}"
            )
    grid, losses = _accumulate_losses(estimator, cfg, [ds.group1, ds.group2], split)
    return _finish(grid, losses, cfg)


def cv_select_tau_single(
    x: SampleMatrix, cfg: CvConfig | None = None, estimator: str = "single-corr"
) -> CvResult:
    """Select tau for a one-sample estimator kind ("single-corr" or
    "cov-threshold")."""
    cfg = cfg or CvConfig()
    if estimator not in SINGLE_GROUP_KINDS:
        raise ValidationError(
            f"unknown single-group estimator kind {estimator!r}; choose from "
            f"{SINGLE_GROUP_KINDS}"
        )
    grid, losses = _accumulate_losses(estimator, cfg, [x], None)
    return _finish(grid, losses, cfg)
