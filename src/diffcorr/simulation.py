"""Synthetic correlation models, Gaussian sampling, and the Monte-Carlo
benchmark runner.

Model 1 (random sparse difference): both correlation matrices are the
identity on the lower-right half and a constant-0.2 block on the upper-left;
the second matrix perturbs that block by lam * d0 where d0 has independent
+/-1 entries with probability 0.05 each and lam is the largest value in
(0, 0.2] keeping the block positive definite.

Model 2 (banded difference): deterministic banded matrices whose difference
has bandwidth 2.

Both models are rescaled to covariances with random diagonals before
sampling. Per-replication RNG streams derive from (seed, cell, replication).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .crossval import CvConfig
from .dataset import SampleMatrix, TwoGroupDataset, check_square_symmetric, default_names
from .errors import (
    DiffCorrError,
    GenerationFailedError,
    NotPSDError,
    ValidationError,
)
from .estimators import (
    baseline_cov_then_normalize,
    baseline_separate_corr,
    baseline_sample_difference,
    estimate_diff_corr,
)
from .norms import frobenius_norm, matrix_l1_norm, spectral_norm
from .thresholding import ThresholdRule

MODEL_KINDS = ("model1", "model2")
NORMS = ("spectral", "l1", "frobenius")
_NORM_FNS = {"spectral": spectral_norm, "l1": matrix_l1_norm, "frobenius": frobenius_norm}

# Wire name -> fit with cross-validated tau, returning the difference matrix.
_FITS = {
    "diff-corr": lambda ds, rule, cfg: estimate_diff_corr(ds, None, rule, cfg).estimate,
    "cov-normalize": lambda ds, rule, cfg: baseline_cov_then_normalize(ds, None, rule, cfg),
    "separate-corr": lambda ds, rule, cfg: baseline_separate_corr(ds, None, rule, cfg),
    "sample-diff": lambda ds, rule, cfg: baseline_sample_difference(ds),
}
ESTIMATOR_NAMES = tuple(_FITS)
RULE_FREE = ("sample-diff",)  # fits that ignore the rule

_MIN_EIG = 1e-3
_REDRAW_BUDGET = 20
_MIN_SUCCESS_FRACTION = 0.8


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
    """Random sparse difference pair; the perturbed block keeps its smallest
    eigenvalue at or above 1e-3."""
    half = p // 2
    block = np.full((half, half), 0.2)
    np.fill_diagonal(block, 1.0)
    rng = np.random.default_rng(seed)
    for _ in range(_REDRAW_BUDGET):
        draw = rng.choice([1.0, 0.0, -1.0], size=(half, half), p=[0.05, 0.9, 0.05])
        d0 = np.triu(draw, k=1)
        d0 = d0 + d0.T
        lam = _largest_feasible_scale(block, d0)
        if lam is not None:
            break
    else:
        raise GenerationFailedError(
            f"model1: no positive-definite perturbation found in {_REDRAW_BUDGET} draws"
        )
    r1 = np.eye(p)
    r1[:half, :half] = block
    r2 = np.eye(p)
    r2[:half, :half] = block + lam * d0
    return r1, r2


def _largest_feasible_scale(block: np.ndarray, d0: np.ndarray) -> float | None:
    """Largest lam in (0, 0.2] with min eigenvalue of block + lam * d0 at
    least 1e-3, found by bisection; None when even lam = 1e-4 fails."""

    def feasible(lam):
        return float(np.linalg.eigvalsh(block + lam * d0)[0]) >= _MIN_EIG

    if feasible(0.2):
        return 0.2
    if not feasible(1e-4):
        return None
    lo, hi = 1e-4, 0.2
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _model2(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic banded-difference pair; errors if the displayed formulas
    are not positive semidefinite at this p."""
    dist = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    sign = np.where(dist % 2 == 0, 1.0, -1.0)
    r1 = 0.2 * np.eye(p) + 0.8 * sign * np.maximum(1.0 - dist / 10.0, 0.0)
    r2 = r1 + 0.2 * (1.0 - np.eye(p)) * np.maximum(1.0 - dist / 3.0, 0.0)
    for name, r in (("first", r1), ("second", r2)):
        if float(np.linalg.eigvalsh(r)[0]) < -1e-10:
            raise GenerationFailedError(
                f"model2: the {name} matrix is indefinite at p = {p}"
            )
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
    while True:
        small = np.abs(w) < 1e-6
        if not np.any(small):
            break
        w[small] = rng.standard_normal(int(small.sum()))
    scale = np.sqrt(np.abs(w))
    return np.outer(scale, scale) * r


def mvn_sample(sigma: np.ndarray, n: int, seed: int, names=None) -> SampleMatrix:
    """Draw n rows from N(0, sigma). Uses the Cholesky factor; if sigma is
    only semidefinite, falls back to an eigendecomposition with negative
    eigenvalues clipped at zero."""
    sigma = check_square_symmetric(sigma, "covariance matrix")
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(sigma)
        if float(eigvals[0]) < -1e-8:
            raise NotPSDError(
                f"covariance has eigenvalue {float(eigvals[0]):.3e} below -1e-8"
            ) from None
        factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, sigma.shape[0]))
    return SampleMatrix(z @ factor.T, names)


@dataclass(frozen=True)
class BenchmarkRow:
    """One aggregated cell of the benchmark report."""

    model: str
    p: int
    n1: int
    n2: int
    estimator: str
    rule: str
    norm: str
    mean: float
    sd: float
    reps: int


@dataclass(frozen=True)
class BenchmarkReport:
    """The aggregated rows of one benchmark run and the fits that failed."""

    rows: tuple[BenchmarkRow, ...]
    reps_requested: int
    seed: int
    failures: tuple[tuple[str, str], ...]  # (estimator, message) of failed fits

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
        writer.writerow(
            ["model", "p", "n1", "n2", "estimator", "rule", "norm", "mean", "sd", "reps"]
        )
        for row in self.rows:
            writer.writerow(
                [
                    row.model,
                    row.p,
                    row.n1,
                    row.n2,
                    row.estimator,
                    row.rule,
                    row.norm,
                    format(row.mean, ".17g"),
                    format(row.sd, ".17g"),
                    row.reps,
                ]
            )

    def format_table(self) -> str:
        header = f"{'model':8}{'p':>6}{'n1':>6}{'n2':>6}  {'estimator':<16}{'rule':<16}"
        header += "".join(f"{norm:>22}" for norm in NORMS)
        lines = [header, "-" * len(header)]
        keys = sorted(
            {(r.model, r.p, r.n1, r.n2, r.estimator, r.rule) for r in self.rows},
            key=lambda k: (k[0], k[1], k[2], k[3], ESTIMATOR_NAMES.index(k[4]), k[5]),
        )
        for model, p, n1, n2, est, rule in keys:
            line = f"{model:8}{p:>6}{n1:>6}{n2:>6}  {est:<16}{rule:<16}"
            for norm in NORMS:
                try:
                    row = self.cell(
                        model=model, p=p, n1=n1, n2=n2, estimator=est, rule=rule, norm=norm
                    )
                    cell_text = f"{row.mean:.3f} ({row.sd:.3f})"
                except KeyError:
                    cell_text = "n/a"
                line += f"{cell_text:>22}"
            lines.append(line)
        return "\n".join(lines)


def _one_replication(kind, p, n1, n2, seeds, combos, cv):
    model_seed, w1_seed, w2_seed, x1_seed, x2_seed, cv_seed = seeds
    r1, r2 = generate_pair(kind, p, model_seed)
    truth = r1 - r2
    sigma1 = scale_to_covariance(r1, w1_seed)
    sigma2 = scale_to_covariance(r2, w2_seed)
    names = default_names(p)
    ds = TwoGroupDataset(
        mvn_sample(sigma1, n1, x1_seed, names), mvn_sample(sigma2, n2, x2_seed, names)
    )
    losses, failures = {}, []
    for estimator, rule in combos:
        cfg = replace(cv, seed=cv_seed, rule=rule or cv.rule)
        try:
            dev = _FITS[estimator](ds, rule, cfg) - truth
        except DiffCorrError as exc:
            failures.append((estimator, str(exc)))
            continue
        for norm in NORMS:
            losses[(estimator, rule, norm)] = _NORM_FNS[norm](dev)
    return losses, failures


def run_benchmark(
    kind: str,
    sizes: list[tuple[int, int, int]],
    reps: int,
    rules: list[ThresholdRule] | None = None,
    estimators: list[str] | None = None,
    seed: int = 0,
    cv: CvConfig | None = None,
) -> BenchmarkReport:
    """Monte-Carlo loss comparison over (p, n1, n2) cells.

    Every replication regenerates the model (model1 redraws its perturbation,
    model2 is fixed), rescales to covariances with fresh diagonals, samples
    both groups, fits every estimator/rule combination with cross-validated
    tau, and records the loss against the true difference in all three norms.
    Cells are aggregated as mean and sample standard deviation over the
    successful replications and dropped when fewer than 80% succeed.
    None selects the default rules (hard, adaptive-lasso) or all estimators;
    an empty list is an error.
    """
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
    if reps < 2:
        raise ValidationError(f"need at least 2 replications, got {reps}")
    if rules is None:
        rules = [ThresholdRule("hard"), ThresholdRule("adaptive-lasso")]
    if estimators is None:
        estimators = list(ESTIMATOR_NAMES)
    if not rules or not estimators:
        raise ValidationError("rules and estimators each need at least one entry")
    for est in estimators:
        if est not in ESTIMATOR_NAMES:
            raise ValidationError(
                f"unknown estimator {est!r}; choose from {ESTIMATOR_NAMES}"
            )
    cv = cv or CvConfig()
    combos = []
    for est in estimators:
        if est in RULE_FREE:
            combos.append((est, None))
        else:
            combos.extend((est, rule) for rule in rules)

    rows, all_failures = [], []
    for cell_idx, (p, n1, n2) in enumerate(sizes):
        rep_seeds = [
            np.random.SeedSequence([seed, cell_idx, rep]).generate_state(6, np.uint64).tolist()
            for rep in range(reps)
        ]
        results = [_one_replication(kind, p, n1, n2, s, combos, cv) for s in rep_seeds]
        for estimator, rule in combos:
            rule_name = rule.kind if rule is not None else "none"
            values = {
                norm: [
                    res[0][(estimator, rule, norm)]
                    for res in results
                    if (estimator, rule, norm) in res[0]
                ]
                for norm in NORMS
            }
            count = len(values[NORMS[0]])
            if count < _MIN_SUCCESS_FRACTION * reps:
                continue  # cell dropped; its failures are recorded below
            for norm in NORMS:
                arr = np.asarray(values[norm])
                rows.append(
                    BenchmarkRow(
                        model=kind,
                        p=p,
                        n1=n1,
                        n2=n2,
                        estimator=estimator,
                        rule=rule_name,
                        norm=norm,
                        mean=float(arr.mean()),
                        sd=float(arr.std(ddof=1)),
                        reps=count,
                    )
                )
        for res in results:
            all_failures.extend(res[1])
    return BenchmarkReport(
        rows=tuple(rows),
        reps_requested=reps,
        seed=seed,
        failures=tuple(all_failures),
    )
