"""Synthetic correlation models, Gaussian sampling, and the Monte-Carlo
benchmark runner.

Model 1 (random sparse difference): both correlation matrices are the
identity on the lower-right half and a constant-0.2 block on the upper-left;
the second matrix perturbs that block by lam * d0 where d0 has independent
+/-1 entries with probability 0.05 each and lam is the largest value in
(0, 0.2] keeping the block's smallest eigenvalue at or above 1e-3, in
closed form (see _model1).

Model 2 (banded difference): deterministic banded matrices, positive
definite at every p (see _model2), whose difference has bandwidth 2. Its
largest entry is 0.133, and at p = 100 it is below detection for n up to
2000: over 10 seeds at each of n = 50, 500, 1000 and 2000, the hard-rule
cross-validated estimate kept none of its 197 true pairs, and its few
nonzero entries were false. The paper's abstract does not state the model
formulas, so they are kept as written and not checked against it.

Both models are rescaled to covariances with random diagonals before
sampling. Per-replication RNG streams derive from (cv.seed, replication).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .crossval import CvConfig
from .dataset import SampleMatrix, TwoGroupDataset, check_square_symmetric
from .errors import InsufficientSamplesError, ValidationError
from .estimators import (
    baseline_cov_then_normalize,
    baseline_separate_corr,
    baseline_sample_difference,
    estimate_diff_corr,
)
from .moments import _shared_moments
from .norms import frobenius_norm, matrix_l1_norm, spectral_norm
from .thresholding import ThresholdRule

MODEL_KINDS = ("model1", "model2")
NORMS = ("spectral", "l1", "frobenius")
_NORM_FNS = {"spectral": spectral_norm, "l1": matrix_l1_norm, "frobenius": frobenius_norm}

# Wire name -> fits with cross-validated tau under a tuple of rules: a difference matrix per rule.
_FITS = {
    "diff-corr": lambda ds, rules, cfg: [f.estimate for f in estimate_diff_corr(ds, None, rules, cfg)],
    "cov-normalize": lambda ds, rules, cfg: baseline_cov_then_normalize(ds, None, rules, cfg),
    "separate-corr": lambda ds, rules, cfg: baseline_separate_corr(ds, None, rules, cfg),
    "sample-diff": lambda ds, rules, cfg: [baseline_sample_difference(ds)],
}
ESTIMATOR_NAMES = tuple(_FITS)
DEFAULT_RULES = ("hard", "adaptive-lasso")  # the rules `simulate` compares unless told otherwise
RULE_FREE = ("sample-diff",)  # fits that ignore the rule


def generate_pair(kind: str, p: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The two correlation matrices of a synthetic model: "model1" needs an
    even p >= 4 and draws its perturbation from seed; "model2" ignores seed."""
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
    if kind == "model1" and (p < 4 or p % 2 != 0):
        raise ValidationError(f"model1 needs an even p >= 4, got {p}")
    if p < 1:
        raise ValidationError(f"dimension must be >= 1, got {p}")
    return _model1(p, seed) if kind == "model1" else _model2(p)


def _model1(p: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random sparse difference pair. With block - 1e-3 I = L L^T and
    M = L^-1 d0 L^-T, block + lam * d0 - 1e-3 I = L (I + lam M) L^T is
    semidefinite (Sylvester) exactly when 1 + lam * min eig(M) >= 0, so the
    largest feasible lam in (0, 0.2] is 0.2 when min eig(M) >= -5, else
    -1 / min eig(M). lam > 0 for every draw: block's eigenvalues are 0.8 and
    above, so block - 1e-3 I is positive definite and M is finite."""
    half = p // 2
    block = np.full((half, half), 0.2)
    np.fill_diagonal(block, 1.0)
    rng = np.random.default_rng(seed)
    draw = rng.choice([1.0, 0.0, -1.0], size=(half, half), p=[0.05, 0.9, 0.05])
    d0 = np.triu(draw, k=1)
    d0 = d0 + d0.T
    l_inv = np.linalg.inv(np.linalg.cholesky(block - 1e-3 * np.eye(half)))
    lowest = float(np.linalg.eigvalsh(l_inv @ d0 @ l_inv.T)[0])
    lam = 0.2 if lowest >= -5.0 else -1.0 / lowest
    r1, r2 = np.eye(p), np.eye(p)
    r1[:half, :half] = block
    r2[:half, :half] = block + lam * d0
    return r1, r2


def _model2(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic banded-difference pair, positive definite at every p:
    both are Toeplitz, with symbols 0.2 + 0.8 F10(t + pi) >= 0.2 and that plus
    0.2 (F3(t) - 1) >= 0.0093 (FN the non-negative Fejer kernel of order N),
    and by Grenander-Szego no eigenvalue lies below its symbol's minimum."""
    dist = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    sign = np.where(dist % 2 == 0, 1.0, -1.0)
    r1 = 0.2 * np.eye(p) + 0.8 * sign * np.maximum(1.0 - dist / 10.0, 0.0)
    r2 = r1 + 0.2 * (1.0 - np.eye(p)) * np.maximum(1.0 - dist / 3.0, 0.0)
    return r1, r2


def scale_to_covariance(r: np.ndarray, seed: int) -> np.ndarray:
    """Rescale a correlation matrix to a covariance with random diagonal
    |w_i|, w ~ N(0, 1); entries with |w_i| < 1e-6 are redrawn."""
    r = check_square_symmetric(r, "correlation matrix")
    if float(np.max(np.abs(np.diag(r) - 1.0))) > 1e-8:
        raise ValidationError("correlation matrix must have unit diagonal")
    rng = np.random.default_rng(seed)
    p = r.shape[0]
    w = rng.standard_normal(p)
    while np.any(small := np.abs(w) < 1e-6):
        w[small] = rng.standard_normal(int(small.sum()))
    scale = np.sqrt(np.abs(w))
    return np.outer(scale, scale) * r


def mvn_sample(sigma: np.ndarray, n: int, seed: int) -> SampleMatrix:
    """Draw n rows from N(0, sigma) through the Cholesky factor of sigma,
    which must be positive definite, for n >= 2."""
    if n < 2:  # a negative n would fail in the draw
        raise InsufficientSamplesError(f"need at least 2 observations, got {n}")
    sigma = check_square_symmetric(sigma, "covariance matrix")
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance matrix is not positive definite") from None
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, sigma.shape[0]))
    return SampleMatrix(z @ factor.T)


@dataclass(frozen=True)
class BenchmarkRow:
    """One aggregated (estimator, rule, norm) entry of a benchmark report."""

    estimator: str
    rule: str
    norm: str
    mean: float
    sd: float


# report CSV columns: each row's estimator, rule, norm, mean and sd, next to
# the cell and reps held once by BenchmarkReport
_COLUMNS = ("model", "p", "n1", "n2", "estimator", "rule", "norm", "mean", "sd", "reps")


@dataclass(frozen=True)
class BenchmarkReport:
    """The aggregated rows of one benchmark cell, each over reps
    replications. Rows come three at a time, one per norm in NORMS order, for
    each (estimator, rule) fitted."""

    model: str
    p: int
    n1: int
    n2: int
    reps: int
    rows: tuple[BenchmarkRow, ...]

    def cell(self, **filters) -> BenchmarkRow:
        hits = [
            row
            for row in self.rows
            if all(getattr(row, key) == val for key, val in filters.items())
        ]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} rows match {filters}")
        return hits[0]

    def write_csv(self, fh) -> None:
        """Write the rows as CSV to a text file opened with newline=""."""
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for row in self.rows:
            values = vars(self) | vars(row)
            writer.writerow(
                format(v, ".17g") if isinstance(v, float) else v
                for v in (values[name] for name in _COLUMNS)
            )

    def format_table(self) -> str:
        header = f"{'model':8}{'p':>6}{'n1':>6}{'n2':>6}  {'estimator':<16}{'rule':<16}"
        header += "".join(f"{norm:>22}" for norm in NORMS)
        lines = [header, "-" * len(header)]
        cell = f"{self.model:8}{self.p:>6}{self.n1:>6}{self.n2:>6}  "
        fits = [self.rows[i : i + len(NORMS)] for i in range(0, len(self.rows), len(NORMS))]
        fits.sort(key=lambda fit: (ESTIMATOR_NAMES.index(fit[0].estimator), fit[0].rule))
        for fit in fits:
            line = f"{cell}{fit[0].estimator:<16}{fit[0].rule:<16}"
            lines.append(line + "".join(f"{f'{r.mean:.3f} ({r.sd:.3f})':>22}" for r in fit))
        return "\n".join(lines)


def _one_replication(kind, p, n1, n2, entropy, estimators, rules, cv):
    """One sample and one fit per estimator, under all rules at once: the
    losses in NORMS order of each (estimator, rule) combination, estimator by
    estimator and rule by rule. A fit's error propagates."""
    seeds = np.random.SeedSequence(entropy).generate_state(6, np.uint64).tolist()
    model_seed, w1_seed, w2_seed, x1_seed, x2_seed, cv_seed = seeds
    r1, r2 = generate_pair(kind, p, model_seed)
    truth = r1 - r2
    sigma1 = scale_to_covariance(r1, w1_seed)
    sigma2 = scale_to_covariance(r2, w2_seed)
    ds = TwoGroupDataset(mvn_sample(sigma1, n1, x1_seed), mvn_sample(sigma2, n2, x2_seed))
    cfg = replace(cv, seed=cv_seed)
    losses = []
    with _shared_moments():  # each group's and each fold part's moments, once
        for estimator in estimators:
            for fit in _FITS[estimator](ds, rules, cfg):
                dev = fit - truth
                losses.append([_NORM_FNS[norm](dev) for norm in NORMS])
    return losses


def run_benchmark(
    kind: str,
    p: int,
    n1: int,
    n2: int,
    reps: int,
    rules: list[ThresholdRule],
    estimators: list[str],
    cv: CvConfig | None = None,
) -> BenchmarkReport:
    """Monte-Carlo loss comparison at one (p, n1, n2) cell.

    Every replication regenerates the model (model1 draws a fresh perturbation,
    model2 is fixed), rescales to covariances with fresh diagonals, samples
    both groups, fits every estimator/rule combination with cross-validated
    tau, and records the loss against the true difference in all three norms.
    Every replication's sample and cross-validation folds are drawn from
    seeds derived from cv.seed and the replication, so every replication
    draws its own folds. Each estimator is fitted once per replication under
    all the rules, on one set of folds, which gives each rule the numbers it
    gets alone. The fits of a replication compute each group's and each fold
    part's moments once (moments._shared_moments), with the same numbers. Each
    combination is aggregated as mean and sample standard deviation over all
    reps replications. The first error a fit raises stops the run and propagates.
    rules and estimators each need at least one entry and may not repeat one.
    """
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
    if reps < 2:
        raise ValidationError(f"need at least 2 replications, got {reps}")
    if not rules or not estimators:
        raise ValidationError("rules and estimators each need at least one entry")
    rule_kinds = [rule.kind for rule in rules]
    if len(set(rule_kinds)) < len(rule_kinds) or len(set(estimators)) < len(estimators):
        raise ValidationError("rules and estimators must not repeat a name")
    for est in estimators:
        if est not in ESTIMATOR_NAMES:
            raise ValidationError(
                f"unknown estimator {est!r}; choose from {ESTIMATOR_NAMES}"
            )
    cv = cv or CvConfig()
    combos = [(est, rule) for est in estimators for rule in ([None] if est in RULE_FREE else rules)]
    # 0 was a cell index; keeping it reproduces every earlier number and perfbench's reference
    results = [
        _one_replication(kind, p, n1, n2, [cv.seed, 0, rep], estimators, tuple(rules), cv)
        for rep in range(reps)
    ]
    rows = []
    # results index (rep, combination, norm); each combination gets (norm, rep)
    for (estimator, rule), losses in zip(combos, np.array(results).transpose(1, 2, 0)):
        name = rule.kind if rule is not None else "none"
        rows.extend(
            BenchmarkRow(estimator, name, norm, float(v.mean()), float(v.std(ddof=1)))
            for norm, v in zip(NORMS, losses)
        )
    return BenchmarkReport(kind, p, n1, n2, reps, tuple(rows))
