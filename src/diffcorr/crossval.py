"""Data-driven selection of the thresholding constant tau.

Protocol: for each of h_repeats repetitions, each group is split at random
into a training part of roughly (k-1)/k of the observations and a held-out
part of roughly 1/k. The estimator fit on the training parts is scored
against the held-out raw statistic in squared Frobenius norm at every tau on
the grid {0, 1/N, ..., 5}. Losses are averaged over repetitions and the
smallest tau attaining the minimum is returned; the caller then refits on
the full data with that tau.

The loss curve is computed in closed form rather than by fitting at each
tau: an entry survives thresholding on a leading run of the grid, is zero
above it, and while kept moves with tau by a fixed power law (constant for
hard, linear for soft, tau**eta for adaptive-lasso). Binning the entries by
the length of that run gives every grid point's loss from a few cumulative
sums, equal to fitting at every tau up to rounding, in O(p^2 + G) time for G
grid points. The bins add up over row blocks of the upper triangle and over
splits, so no p x p array is formed: the working set is O(rows x p + G).

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
from .moments import centered_columns, moment_rows
from .thresholding import DEFAULT_RULE, KINDS, ThresholdRule, check_split, unit_thresholds

TWO_GROUP_KINDS = tuple(kind for kind, spec in KINDS.items() if spec.two_group)
SINGLE_GROUP_KINDS = tuple(kind for kind, spec in KINDS.items() if not spec.two_group)

_MAX_REDRAWS = 10
_CV_BLOCK_ROWS = 64


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings; defaults match the 5-fold protocol."""

    k_folds: int = 5
    h_repeats: int = 5
    grid_n: int = 50
    seed: int = 0

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


def _draw_folds(rng, x: SampleMatrix, n_test: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw one split: (centered data, column variances) of the training and the
    held-out part; raises DegenerateVariableError on a zero variance in either."""
    return [centered_columns(x.data[idx], x.names) for idx in _draw_split(rng, x.n, n_test)]


def _loss_curve(rule, grid, parts) -> np.ndarray:
    """Squared Frobenius distance from target of the estimate thresholded at
    tau * unit, for every tau on the increasing grid, without fitting at each,
    over parts (weight, raw, unit, target) that count each entry weight times.

    With z the raw entry, u its unit threshold, t its target and d = z - t,
    an entry is kept at tau_g when |z| > fl(tau_g * u), the comparison
    apply_rule makes, so it is kept on the first k grid points and zero,
    contributing t**2, from grid point k on. While kept it is z - s_g with
    s_g = z * (tau_g * u / |z|)**e (e = 1 for soft, eta for adaptive-lasso,
    s_g = 0 for hard) and contributes d**2 - 2 d s_g + s_g**2. An entry with
    u = 0 (a single group's diagonal) is kept unshrunk at every tau unless z = 0.
    """
    n_grid = len(grid)  # CvConfig.grid: the 5 N + 1 points g / N
    hard, e = rule.kind == "hard", 1.0 if rule.kind == "soft" else rule.eta
    killed, bins = 0.0, np.zeros((3, n_grid + 1))
    for weight, raw, unit, target in parts:
        z, u, t = raw.ravel(), unit.ravel(), target.ravel()
        absz = np.abs(z)
        # k = number of leading grid points at which the entry is kept: seeded
        # from ceil(|z| N / u), then settled by one exact step each way
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = np.minimum(np.ceil(absz * ((n_grid - 1) // 5) / u), n_grid)
        k = np.where(u > 0.0, k, np.where(absz > 0.0, n_grid, 0)).astype(np.intp)
        k += (k < n_grid) & (absz > grid[np.minimum(k, n_grid - 1)] * u)
        k -= (k > 0) & (absz <= grid[np.maximum(k - 1, 0)] * u)
        d = z - t
        killed += weight * float(t @ t)
        bins[0] += weight * np.bincount(k, d * d - t * t, minlength=n_grid + 1)
        if not hard:
            live = k > 0
            last = k[live] - 1  # each kept entry's last kept grid point
            z_live = z[live]
            # shrink at the last kept point; (tau_g u / |z|) <= 1 there, so no overflow
            s = z_live * (grid[last] * u[live] / np.abs(z_live)) ** e
            bins[1] += weight * np.bincount(last, d[live] * s, minlength=n_grid + 1)
            bins[2] += weight * np.bincount(last, s * s, minlength=n_grid + 1)
    # every entry killed, plus what keeping each one adds (a suffix sum, so an
    # entry whose kept and killed terms are equal, or an empty bin, leaves
    # exact ties in place)
    loss = killed + np.cumsum(bins[0, ::-1])[::-1][1:]
    if hard:
        return loss
    step = grid[:-1] / grid[1:]
    cross = _fold_down(bins[1, :-1], step**e)
    square = _fold_down(bins[2, :-1], step ** (2 * e))
    return loss - 2.0 * cross + square


def _fold_down(bins: np.ndarray, step: np.ndarray) -> np.ndarray:
    """S_g = bins_g + step_g * S_{g+1} from the top of the grid down, with
    step_g = (tau_g / tau_{g+1})**e <= 1: entries binned at grid point j
    reach S_g scaled by (tau_g / tau_j)**e, with no factor above 1."""
    out, step = bins.tolist(), step.tolist()
    for g in range(len(out) - 2, -1, -1):
        out[g] += step[g] * out[g + 1]
    return np.array(out)


def _cv_parts(spec, cfg, samples, split):
    """The parts for _loss_curve of every split, by row blocks r0:r1 of the
    upper triangle (of the [:split, split:] block for cross-corr, counted
    once). The square r0:r1 x r0:r1 holds both triangles and counts once, the
    rest r0:r1 x r1:p twice, as the symmetric full matrices hold it and its
    mirror image. Each repetition redraws its folds while a part of a group
    has a zero-variance column."""
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
        n_rows = split if spec.cross_block else samples[0].p
        # blocks of _CV_BLOCK_ROWS rows, the last one taking any shorter
        # remainder: each block costs a fixed number of numpy calls
        starts = range(0, max(n_rows - _CV_BLOCK_ROWS, 0) + 1, _CV_BLOCK_ROWS)
        for r0, r1 in zip(starts, [*starts[1:], n_rows]):
            train = [moment_rows(c, var, slice(r0, r1)) for (c, var), _ in folds]
            raw, unit = spec.raw(train), unit_thresholds(spec.statistic, train)
            del train  # fewer arrays alive at once
            target = spec.raw([moment_rows(c, var, slice(r0, r1)) for _, (c, var) in folds])
            b = r1 - r0
            cuts = [(1.0, split - r0, None)] if spec.cross_block else [(1.0, 0, b), (2.0, b, None)]
            for weight, c0, c1 in cuts:
                if c0 < raw.shape[1]:  # the last block has no columns right of r1
                    yield (weight, *(m[:, c0:c1] for m in (raw, unit, target)))


def _accumulate_losses(kind, cfg, samples, split, rule) -> tuple[np.ndarray, np.ndarray]:
    grid = cfg.grid()
    # the curve is linear in its sums, so one pass over every split's parts gives
    # the total of their curves, and the heap does not shrink and regrow
    # (page-faulting) between splits
    losses = _loss_curve(rule, grid, _cv_parts(KINDS[kind], cfg, samples, split))
    return grid, losses / cfg.h_repeats


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
    rule: ThresholdRule = DEFAULT_RULE,
) -> CvResult:
    """Select tau for a two-group estimator kind ("diff-corr", "diff-cov" or
    "cross-corr"; only the latter takes, and needs, the block split index),
    scoring the fits of the given thresholding rule."""
    cfg = cfg or CvConfig()
    if estimator not in TWO_GROUP_KINDS:
        raise ValidationError(
            f"unknown two-group estimator kind {estimator!r}; choose from {TWO_GROUP_KINDS}"
        )
    check_split(estimator, split, ds.p)
    grid, losses = _accumulate_losses(estimator, cfg, [ds.group1, ds.group2], split, rule)
    return _finish(grid, losses, cfg)


def cv_select_tau_single(
    x: SampleMatrix,
    cfg: CvConfig | None = None,
    estimator: str = "single-corr",
    rule: ThresholdRule = DEFAULT_RULE,
) -> CvResult:
    """Select tau for a one-sample estimator kind ("single-corr" or
    "cov-threshold"), scoring the fits of the given thresholding rule."""
    cfg = cfg or CvConfig()
    if estimator not in SINGLE_GROUP_KINDS:
        raise ValidationError(
            f"unknown single-group estimator kind {estimator!r}; choose from "
            f"{SINGLE_GROUP_KINDS}"
        )
    grid, losses = _accumulate_losses(estimator, cfg, [x], None, rule)
    return _finish(grid, losses, cfg)
