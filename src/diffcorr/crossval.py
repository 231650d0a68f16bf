"""Data-driven selection of the thresholding constant tau.

Protocol: for each of h_repeats repetitions, each group is split at random
into a training part of roughly (k-1)/k of the observations and a held-out
part of roughly 1/k. The estimator fit on the training parts is scored
against the held-out raw statistic in squared Frobenius norm at every tau on
the grid {0, 1/N, ..., 5}. Losses are averaged over repetitions and the
smallest tau attaining the minimum is returned; the caller then refits on
the full data with that tau. Given several rules, every rule is scored on the
same splits in one pass and gets its own curve and tau: the protocol scores a
rule on given splits, so this equals one call per rule, bit for bit.

Every split drawn is scored. The loss is a sum over entries (Bickel and
Levina 2008), so an entry whose row or column is constant in some part of a
split (as low counts often are) drops out of that split's loss alone. A
variable degenerate in the whole sample is a DegenerateVariableError.

The loss curve is computed in closed form rather than by fitting at each
tau: an entry survives thresholding on a leading run of the grid, is zero
above it, and while kept moves with tau by a fixed power law (constant for
hard, linear for soft, tau**eta for adaptive-lasso). Binning the entries by
the length of that run gives every grid point's loss from a few cumulative
sums, equal to fitting at every tau up to rounding, in O(p^2 + G) time for G
grid points. The bins add up over splits and over the row blocks of
moments.row_blocks, which form their Gram products only when read, so no p x p
array is formed: the working set is O(rows x p + G).

Per-repetition RNG streams are derived from (seed, repetition), so results do
not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SampleMatrix, TwoGroupDataset
from .errors import ValidationError, check_index
from .moments import MomentSet, _part_moments, _reject_degenerate, row_blocks
from .thresholding import DEFAULT_RULE, KINDS, ThresholdRule, check_split, rule_tuple
from .thresholding import unit_thresholds

TWO_GROUP_KINDS = tuple(kind for kind, spec in KINDS.items() if spec.two_group)
SINGLE_GROUP_KINDS = tuple(kind for kind, spec in KINDS.items() if not spec.two_group)
_MAX_GRID_N = 10**6  # 5 N + 1 taus, binned per row block: 40 MB per bin array at 10**6


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings; defaults match the 5-fold protocol."""

    k_folds: int = 5
    h_repeats: int = 5
    grid_n: int = 50
    seed: int = 0

    def __post_init__(self):
        for name, least in (("k_folds", 2), ("h_repeats", 1), ("grid_n", 1), ("seed", 0)):
            object.__setattr__(self, name, check_index(getattr(self, name), name, least))
        if self.grid_n > _MAX_GRID_N:
            raise ValidationError(f"grid_n must be <= {_MAX_GRID_N}, got {self.grid_n}")
        if self.seed >= 2**64:
            raise ValidationError(f"seed must be < 2**64, got {self.seed}")

    def grid(self) -> np.ndarray:
        """Equi-spaced tau grid {0, 1/N, 2/N, ..., 5} with N = grid_n."""
        return np.arange(5 * self.grid_n + 1) / self.grid_n


@dataclass(frozen=True)
class CvResult:
    """Selected tau plus the averaged loss curve it minimizes; for a tuple of
    rules, tau_hat and losses have a leading axis with one entry per rule.
    left_out sums over repetitions the variables left out (see _cv_parts)."""

    tau_hat: float | np.ndarray
    grid: np.ndarray
    losses: np.ndarray
    splits_used: int
    left_out: int


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


def _draw_folds(rng, x: SampleMatrix, n_test: int) -> list[MomentSet]:
    """Draw one split: the moment sets (_part_moments) of the training and the
    held-out part, each marking its degenerate columns."""
    return [_part_moments(x, idx) for idx in _draw_split(rng, x.n, n_test)]


def _loss_curve(rules, grid, parts) -> np.ndarray:
    """Squared Frobenius distance from target of the estimate thresholded at
    tau * unit, for every rule (a row each) and tau on the increasing grid,
    without fitting at each, over parts (weight, raw, unit, target) that count
    each entry weight times.

    With z the raw entry, u its unit threshold, t its target and d = z - t,
    an entry is kept at tau_g when |z| > fl(tau_g * u), the comparison
    apply_rule makes, so it is kept on the first k grid points and zero,
    contributing t**2, from grid point k on. While kept it is z - s_g with
    s_g = z * (tau_g * u / |z|)**e (e = 1 for soft, eta for adaptive-lasso,
    s_g = 0 for hard) and contributes d**2 - 2 d s_g + s_g**2. An entry with
    u = 0 (a single group's diagonal) is kept unshrunk at every tau unless z = 0.
    Only the s_g bins depend on the rule, through e; rules of one e share them.
    """
    n_grid = len(grid)  # CvConfig.grid: the 5 N + 1 points g / N
    above, below = np.append(grid, np.inf), np.insert(grid, 0, -np.inf)  # tau_k, tau_(k-1)
    exponents = [None if r.kind == "hard" else 1.0 if r.kind == "soft" else r.eta for r in rules]
    # per exponent, the bins of the cross terms d s_g and the squares s_g**2
    shrink = {e: np.zeros((2, n_grid + 1)) for e in exponents if e is not None}
    killed, kept = 0.0, np.zeros(n_grid + 1)
    for weight, raw, unit, target in parts:
        z, u, t = raw.ravel(), unit.ravel(), target.ravel()
        absz = np.abs(z)
        # k = number of leading grid points at which the entry is kept: seeded
        # from ceil(|z| N / u), then settled by one exact step each way
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = absz * ((n_grid - 1) // 5)
            k = np.minimum(np.ceil(np.divide(k, u, out=k), out=k), n_grid, out=k)
            if not (positive := u > 0.0).all():  # a single group's diagonal
                k[~positive] = np.where(absz[~positive] > 0.0, n_grid, 0)
            k = k.astype(np.intp)
            k += absz > above[k] * u  # never past either end of the grid
            k -= absz <= below[k] * u
        d = z - t
        killed += weight * float(t @ t)
        kept += weight * np.bincount(k, d * d - t * t, minlength=n_grid + 1)
        if shrink:
            last = k - 1  # each kept entry's last kept grid point
            if last.min() < 0:  # some entries are killed at every tau
                live = last >= 0
                last, z, d, u, absz = last[live], z[live], d[live], u[live], absz[live]
            # the shrink ratio at the last kept point is <= 1, so no power overflows
            ratio = grid[last] * u / absz
            for e, bins in shrink.items():
                s = z * ratio**e
                bins[0] += weight * np.bincount(last, d * s, minlength=n_grid + 1)
                bins[1] += weight * np.bincount(last, np.square(s, out=s), minlength=n_grid + 1)
    # every entry killed, plus what keeping each one adds (a suffix sum, so an
    # entry whose kept and killed terms are equal, or an empty bin, leaves
    # exact ties in place)
    loss = killed + np.cumsum(kept[::-1])[::-1][1:]
    step = grid[:-1] / grid[1:]
    curves = {None: loss} | {
        e: loss - 2.0 * _fold_down(cross[:-1], step**e) + _fold_down(square[:-1], step ** (2 * e))
        for e, (cross, square) in shrink.items()}
    return np.array([curves[e] for e in exponents])


def _fold_down(bins: np.ndarray, step: np.ndarray) -> np.ndarray:
    """S_g = bins_g + step_g * S_{g+1} from the top of the grid down, with
    step_g = (tau_g / tau_{g+1})**e <= 1: entries binned at grid point j
    reach S_g scaled by (tau_g / tau_j)**e, with no factor above 1."""
    out, step = bins.tolist(), step.tolist()
    for g in range(len(out) - 2, -1, -1):
        out[g] += step[g] * out[g + 1]
    return np.array(out)


def _cv_parts(spec, cfg, samples, split, left_out):
    """The parts for _loss_curve of every split, by row blocks r0:r1 of the
    upper triangle (of the [:split, split:] block for cross-corr, counted
    once). The square r0:r1 x r0:r1 holds both triangles and counts once, the
    rest r0:r1 x r1:p twice, as the symmetric full matrices hold it and its
    mirror image. An entry whose row or column is degenerate (constant, or of
    a variance that is not finite) in any part of a split is left out of that
    split's loss: its raw value and target are 0, which adds exactly 0 at every
    tau. Each repetition appends to left_out the number of such variables."""
    sizes = [_split_sizes(x.n, cfg.k_folds) for x in samples]
    for x in samples:  # a variable degenerate in the whole sample is an error
        _reject_degenerate(_part_moments(x).degenerate, x.names)
    for h in range(cfg.h_repeats):
        rng = np.random.default_rng([cfg.seed, h])
        parts = [part for x, m in zip(samples, sizes) for part in _draw_folds(rng, x, m)]
        dropped = np.logical_or.reduce([part.degenerate for part in parts])
        left_out.append(int(np.count_nonzero(dropped)))
        for r0, r1, blocks in row_blocks(parts, split if spec.cross_block else samples[0].p):
            raw, unit = spec.raw(blocks[::2]), unit_thresholds(spec.statistic, blocks[::2])
            del blocks[::2]  # the training parts': freed before the held-out products form
            target = spec.raw(blocks)
            del blocks  # fewer arrays alive at once
            if dropped[r0:].any():
                drop = dropped[r0:r1, None] | dropped[r0:]
                raw, target = np.where(drop, 0.0, raw), np.where(drop, 0.0, target)
            b = r1 - r0
            cuts = [(1.0, split - r0, None)] if spec.cross_block else [(1.0, 0, b), (2.0, b, None)]
            for weight, c0, c1 in cuts:
                if c0 < raw.shape[1]:  # the last block has no columns right of r1
                    yield (weight, *(m[:, c0:c1] for m in (raw, unit, target)))


def _select(kind, cfg, samples, split, rule) -> CvResult:
    """Score one rule, or each of a tuple of rules, on one set of splits: a single
    rule gives a float tau_hat and one curve, a tuple an array of each with a rule axis."""
    grid = cfg.grid()
    # the curve is linear in its sums, so one pass over every split's parts gives
    # the total of their curves, and the heap does not shrink and regrow
    # (page-faulting) between splits
    left_out = []
    parts = _cv_parts(KINDS[kind], cfg, samples, split, left_out)
    losses = _loss_curve(rule_tuple(rule), grid, parts) / cfg.h_repeats
    tau_hat = grid[np.argmin(losses, axis=1)]  # first minimum, i.e. the smallest tau
    for values in (grid, losses, tau_hat):
        values.flags.writeable = False
    if isinstance(rule, ThresholdRule):
        tau_hat, losses = float(tau_hat[0]), losses[0]
    return CvResult(tau_hat, grid, losses, cfg.h_repeats, sum(left_out))


def cv_select_tau(
    ds: TwoGroupDataset,
    cfg: CvConfig | None = None,
    estimator: str = "diff-corr",
    split: int | None = None,
    rule: ThresholdRule | tuple[ThresholdRule, ...] = DEFAULT_RULE,
) -> CvResult:
    """Select tau for a two-group estimator kind ("diff-corr", "diff-cov" or
    "cross-corr"; only the latter takes, and needs, the block split index),
    scoring the fits of the given thresholding rule, or of each of a tuple of
    rules of distinct kinds on the same splits (see CvResult)."""
    cfg = cfg or CvConfig()
    if estimator not in TWO_GROUP_KINDS:
        raise ValidationError(
            f"unknown two-group estimator kind {estimator!r}; choose from {TWO_GROUP_KINDS}"
        )
    check_split(estimator, split, ds.p)
    return _select(estimator, cfg, [ds.group1, ds.group2], split, rule)


def cv_select_tau_single(
    x: SampleMatrix,
    cfg: CvConfig | None = None,
    estimator: str = "single-corr",
    rule: ThresholdRule | tuple[ThresholdRule, ...] = DEFAULT_RULE,
) -> CvResult:
    """Select tau for a one-sample estimator kind ("single-corr" or
    "cov-threshold"), scoring the fits of the given thresholding rule, or of
    each of a tuple of rules of distinct kinds on the same splits."""
    cfg = cfg or CvConfig()
    if estimator not in SINGLE_GROUP_KINDS:
        raise ValidationError(
            f"unknown single-group estimator kind {estimator!r}; choose from "
            f"{SINGLE_GROUP_KINDS}"
        )
    return _select(estimator, cfg, [x], None, rule)
