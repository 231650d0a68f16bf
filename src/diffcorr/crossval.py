"""Data-driven selection of the thresholding constant tau.

Protocol: for each of h_repeats repetitions, each group is split at random
into a training part of roughly (k-1)/k of the observations and a held-out
part of roughly 1/k. For every tau on the grid {0, 1/N, ..., 5} the estimator
is fit on the training parts and scored against the held-out raw statistic in
squared Frobenius norm. Losses are averaged over repetitions and the smallest
tau attaining the minimum is returned; the caller then refits on the full
data with that tau.

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
from .thresholding import KINDS, ThresholdRule, apply_rule, unit_thresholds

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
        for gi, tau in enumerate(grid):
            est = spec.set_diagonal(apply_rule(cfg.rule, raw, tau * unit), raw)
            dev = est - target
            loss_acc[gi] += float(np.sum(dev * dev))
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
