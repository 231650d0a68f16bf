"""Workload inputs, command lines and output checks.

Inputs are model-1-style Gaussian pairs made here with numpy from the
workload seed: both groups share a block correlation (0.2 off the diagonal
on the first half of the variables, identity on the rest) and the second
group adds a sparse symmetric +-DIFF difference inside that block. The
program only ever sees the CSV files, so no change to it can alter them.

Every check compares against a reference computed in this file, never by
diffcorr itself, with the relative tolerance RTOL. Where the program draws
random numbers (CV splits, the simulation's models and samples) the
reference draws the same ones from the same numpy generators and seeds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9

# name -> sizes and the reason the workload exists (see README.md)
WORKLOADS = {
    "cv-estimate": {"p": 400, "n": 200},
    "equality-test": {"p": 1000, "n": 200},
    "simulate": {"p": 100, "n": 50, "reps": 2},
}
TOP_K = 20
# Size of each entry of the sparse correlation difference: large enough
# that the CV estimate keeps nonzero entries, since an all-zero estimate
# would leave its reference check with nothing to compare.
DIFF = 0.5

# Layers that must record calls on a workload; zero calls means the trace
# missed a reference and the per-layer numbers would be wrong.
EXPECTED_LAYERS = {
    "cv-estimate": (
        "cli.main", "dataset.read_sample_csv", "dataset.write_matrix_csv",
        "moments.moment_set", "thresholding.apply_rule",
        "thresholding.apply_threshold", "thresholding.diff_corr_thresholds",
        "crossval.cv_select_tau", "crossval.draw_folds", "estimators",
        "norms.spectral_norm", "norms.matrix_l1_norm", "norms.frobenius_norm",
    ),
    "equality-test": (
        "cli.main", "dataset.read_sample_csv", "moments.moment_set",
        "moments.correlation_variance", "equality_test.test_statistic",
        "equality_test.top_pairs",
    ),
    "simulate": (
        "cli.main", "simulation.run_benchmark", "simulation.generate_pair",
        "simulation.scale_to_covariance", "simulation.mvn_sample", "estimators",
        "crossval.cv_select_tau", "crossval.cv_select_tau_single",
        "crossval.draw_folds", "moments.moment_set", "thresholding.apply_rule",
        "thresholding.apply_threshold", "thresholding.diff_corr_thresholds",
        "norms.spectral_norm", "norms.matrix_l1_norm", "norms.frobenius_norm",
    ),
}


def program_seed(seed: int) -> int:
    """The workload seed as a non-negative 32-bit integer, for numpy and for
    the program's own --seed (CV splits, simulation)."""
    return seed % 2**32


def model1_pair(p: int, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two n x p Gaussian samples whose correlations differ sparsely."""
    half = p // 2
    block = np.full((half, half), 0.2)
    np.fill_diagonal(block, 1.0)
    # The difference pairs the block's variables off at random: one entry
    # +-DIFF per row, so its spectral norm is DIFF and block + d0 stays
    # positive definite (smallest eigenvalue 0.8 - DIFF).
    pairs = rng.permutation(half).reshape(-1, 2)
    signs = rng.choice([-DIFF, DIFF], size=len(pairs))
    d0 = np.zeros((half, half))
    d0[pairs[:, 0], pairs[:, 1]] = signs
    d0[pairs[:, 1], pairs[:, 0]] = signs
    r1 = np.eye(p)
    r1[:half, :half] = block
    r2 = np.eye(p)
    r2[:half, :half] = block + d0
    scale = np.exp(0.5 * rng.standard_normal(p))
    samples = []
    for r in (r1, r2):
        factor = np.linalg.cholesky(r)
        z = rng.standard_normal((n, p))
        samples.append((z @ factor.T) * scale)
    return samples[0], samples[1]


def names(p: int) -> list[str]:
    return [f"g{i + 1}" for i in range(p)]


def write_sample(path: Path, x: np.ndarray) -> None:
    """Header of labels, one row per observation, 17 significant digits
    (an exact round trip, so the reference sees what the program parses)."""
    header = ",".join(names(x.shape[1]))
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=header, comments="")


def make_inputs(workload: str, seed: int, in_dir: Path) -> dict:
    """Write the workload's input files; return what the checks need."""
    size = WORKLOADS[workload]
    if workload == "simulate":
        return {"seed": program_seed(seed)}
    rng = np.random.default_rng([program_seed(seed), 1408])
    x1, x2 = model1_pair(size["p"], size["n"], rng)
    paths = [in_dir / "group1.csv", in_dir / "group2.csv"]
    for path, x in zip(paths, (x1, x2)):
        write_sample(path, x)
    return {"x1": x1, "x2": x2, "paths": [str(p) for p in paths], "seed": program_seed(seed)}


def command(workload: str, seed: int, inputs: dict, out_dir: Path) -> list[str]:
    """argv for diffcorr.cli.main. ``{op}`` is replaced by the operation
    number, so every operation writes to files that do not exist yet."""
    out = str(out_dir / "{op}")
    if workload == "cv-estimate":
        return ["estimate-diff-corr", "--input1", inputs["paths"][0],
                "--input2", inputs["paths"][1], "--seed", str(program_seed(seed)),
                "--out-json", out + ".json", "--out-matrix", out + ".csv"]
    if workload == "equality-test":
        return ["test-equality", "--input1", inputs["paths"][0],
                "--input2", inputs["paths"][1], "--top-k", str(TOP_K),
                "--out-json", out + ".json"]
    size = WORKLOADS["simulate"]
    return ["simulate", "--model", "1", "--p", str(size["p"]), "--n", str(size["n"]),
            "--reps", str(size["reps"]), "--seed", str(program_seed(seed)),
            "--out-csv", out + ".csv"]


def output_files(argv: list[str], op: str) -> list[Path]:
    return [Path(a.replace("{op}", op)) for a in argv if "{op}" in a]


def digest(paths: list[Path], stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- references

# The CV protocol every workload runs at its defaults: 5 folds, 5
# repetitions, the grid {0, 1/50, ..., 5}, adaptive-lasso exponent 4.
CV_FOLDS = 5
CV_REPEATS = 5
CV_GRID = np.arange(251) / 50
ETA = 4.0
RULES = ("hard", "adaptive-lasso")


def _close(got: float, want: float, scale: float | None = None) -> bool:
    return abs(got - want) <= RTOL * (abs(want) if scale is None else scale)


def _standardised(x: np.ndarray) -> np.ndarray:
    """The centered data divided by its 1/n standard deviations."""
    c = x - x.mean(axis=0)
    return c / np.sqrt(np.mean(c * c, axis=0))


def reference_t_stat(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Per-pair test statistics from the expansion of each correlation
    variance into Gram matrices of the standardised data a, with h = corr/2:
    E[a_i^2 a_j^2] - 2h (E[a_i^3 a_j] + E[a_i a_j^3])
    + h^2 (E[a_i^4] + 2 E[a_i^2 a_j^2] + E[a_j^4])."""
    corrs, variances = [], []
    for x in (x1, x2):
        n = x.shape[0]
        a = _standardised(x)
        a2 = a * a
        corr = np.clip(a.T @ a / n, -1.0, 1.0)
        s22 = a2.T @ a2 / n
        s31 = (a2 * a).T @ a / n
        m4 = np.mean(a2 * a2, axis=0)
        h = 0.5 * corr
        var = s22 - 2 * h * (s31 + s31.T) + h * h * (m4[:, None] + 2 * s22 + m4[None, :])
        corrs.append(corr)
        variances.append(var / n)
    diff = corrs[0] - corrs[1]
    t = diff * diff / (variances[0] + variances[1] + np.eye(diff.shape[0]))
    np.fill_diagonal(t, 0.0)
    return t


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1/n covariance, correlation, and covariance noise in the Gram form
    E[c_i^2 c_j^2] - cov_ij^2 of the centered data c."""
    n = x.shape[0]
    c = x - x.mean(axis=0)
    cov = c.T @ c / n
    c2 = c * c
    return cov, _cov_to_corr(cov), c2.T @ c2 / n - cov * cov


def _cov_to_corr(cov: np.ndarray) -> np.ndarray:
    sd = np.sqrt(np.diag(cov))
    corr = np.clip(cov / np.outer(sd, sd), -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def _corr_unit(cov, corr, noise, n: int, p: int) -> np.ndarray:
    """One group's correlation threshold at tau = 1."""
    var = np.diag(cov)
    rel = np.clip(noise / np.outer(var, var), 0.0, None)
    rd = np.sqrt(np.diag(rel))
    return math.sqrt(math.log(p) / n) * (np.sqrt(rel) + 0.5 * np.abs(corr) * (rd[:, None] + rd[None, :]))


def _raw_and_unit(kind: str, samples: list[np.ndarray], p: int) -> tuple[np.ndarray, np.ndarray]:
    """The statistic an estimator kind thresholds and its threshold at
    tau = 1: "diff-corr" (two groups), "single-corr" or "cov-threshold"."""
    ms = [_moments(x) for x in samples]
    ns = [x.shape[0] for x in samples]
    if kind == "diff-corr":
        return ms[0][1] - ms[1][1], _corr_unit(*ms[0], ns[0], p) + _corr_unit(*ms[1], ns[1], p)
    cov, corr, noise = ms[0]
    if kind == "single-corr":
        return corr, _corr_unit(cov, corr, noise, ns[0], p)
    return cov, np.sqrt(np.clip(noise, 0.0, None) * math.log(p) / ns[0])


def _threshold(kind: str, rule: str, raw: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Entrywise rule; a correlation keeps its unit diagonal and a
    covariance its own diagonal."""
    absz = np.abs(raw)
    if rule == "hard":
        est = np.where(absz > lam, raw, 0.0)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            est = np.where(absz > 0, raw * np.maximum(1.0 - (lam / absz) ** ETA, 0.0), 0.0)
    if kind == "single-corr":
        np.fill_diagonal(est, 1.0)
    elif kind == "cov-threshold":
        np.fill_diagonal(est, np.diag(raw))
    return est


def reference_cv(kind: str, samples: list[np.ndarray], rule: str, seed: int) -> np.ndarray:
    """Loss curve over CV_GRID. Repetition h draws one permutation per group
    from default_rng([seed, h]) and holds out its first n // CV_FOLDS
    indices; the loss is the squared Frobenius distance of the estimate on
    the rest from the held-out statistic, averaged over repetitions."""
    p = samples[0].shape[1]
    losses = np.zeros(len(CV_GRID))
    for h in range(CV_REPEATS):
        rng = np.random.default_rng([seed, h])
        trains, tests = [], []
        for x in samples:
            n_test = x.shape[0] // CV_FOLDS
            perm = rng.permutation(x.shape[0])
            trains.append(x[np.sort(perm[n_test:])])
            tests.append(x[np.sort(perm[:n_test])])
        raw, unit = _raw_and_unit(kind, trains, p)
        target = _raw_and_unit(kind, tests, p)[0]
        for g, tau in enumerate(CV_GRID):
            dev = _threshold(kind, rule, raw, tau * unit) - target
            losses[g] += np.sum(dev * dev)
    return losses / CV_REPEATS


def reference_fit(kind: str, samples: list[np.ndarray], rule: str, tau: float) -> np.ndarray:
    raw, unit = _raw_and_unit(kind, samples, samples[0].shape[1])
    return _threshold(kind, rule, raw, tau * unit)


def _cv_fit(kind: str, samples: list[np.ndarray], rule: str, seed: int) -> np.ndarray:
    """The estimate at the first minimiser of the reference loss curve."""
    tau = CV_GRID[int(np.argmin(reference_cv(kind, samples, rule, seed)))]
    return reference_fit(kind, samples, rule, tau)


def _sim_model1(p: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Model 1 as the simulation defines it: from default_rng(seed), a
    symmetric difference d0 with entries +-1 at rate 0.05 each, added to the
    0.2 block as lam * d0 with the largest lam in (0, 0.2] that keeps the
    smallest eigenvalue at 1e-3 or more (50 bisection steps); up to 20 draws."""
    half = p // 2
    block = np.full((half, half), 0.2)
    np.fill_diagonal(block, 1.0)
    rng = np.random.default_rng(seed)

    def feasible(lam):
        return np.linalg.eigvalsh(block + lam * d0)[0] >= 1e-3

    for _ in range(20):
        d0 = np.triu(rng.choice([1.0, 0.0, -1.0], size=(half, half), p=[0.05, 0.9, 0.05]), k=1)
        d0 = d0 + d0.T
        if feasible(0.2):
            lam = 0.2
            break
        if feasible(1e-4):
            lo, hi = 1e-4, 0.2
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
            lam = lo
            break
    else:
        raise ValueError("model 1: no positive-definite difference in 20 draws")
    r1 = np.eye(p)
    r1[:half, :half] = block
    r2 = r1.copy()
    r2[:half, :half] += lam * d0
    return r1, r2


def _sim_sample(r: np.ndarray, w_seed: int, x_seed: int, n: int) -> np.ndarray:
    """n rows of N(0, sigma), sigma = r scaled by sqrt|w_i w_j| with
    w ~ N(0, 1) from default_rng(w_seed) (|w_i| < 1e-6 redrawn), sampled
    through the Cholesky factor from default_rng(x_seed)."""
    rng = np.random.default_rng(w_seed)
    w = rng.standard_normal(r.shape[0])
    while np.any(small := np.abs(w) < 1e-6):
        w[small] = rng.standard_normal(int(small.sum()))
    s = np.sqrt(np.abs(w))
    factor = np.linalg.cholesky(np.outer(s, s) * r)
    return np.random.default_rng(x_seed).standard_normal((n, r.shape[0])) @ factor.T


def reference_simulate(seed: int, p: int, n: int, reps: int) -> dict[tuple[str, str, str], tuple[float, float]]:
    """(estimator, rule, norm) -> mean and sample sd over the replications of
    the loss against the true difference. Replication r draws its six seeds
    (model, two scales, two samples, CV) from SeedSequence([seed, 0, r])."""
    values: dict[tuple[str, str, str], list[float]] = {}
    for rep in range(reps):
        seeds = np.random.SeedSequence([seed, 0, rep]).generate_state(6, np.uint64).tolist()
        model_seed, w1, w2, s1, s2, cv_seed = seeds
        r1, r2 = _sim_model1(p, model_seed)
        x1, x2 = _sim_sample(r1, w1, s1, n), _sim_sample(r2, w2, s2, n)
        fits = {("sample-diff", "none"): _moments(x1)[1] - _moments(x2)[1]}
        for rule in RULES:
            fits["diff-corr", rule] = _cv_fit("diff-corr", [x1, x2], rule, cv_seed)
            fits["cov-normalize", rule] = (
                _cov_to_corr(_cv_fit("cov-threshold", [x1], rule, cv_seed))
                - _cov_to_corr(_cv_fit("cov-threshold", [x2], rule, cv_seed)))
            fits["separate-corr", rule] = (_cv_fit("single-corr", [x1], rule, cv_seed)
                                           - _cv_fit("single-corr", [x2], rule, cv_seed))
        for (estimator, rule), fit in fits.items():
            dev = fit - (r1 - r2)
            for norm, value in (("spectral", np.linalg.norm(dev, 2)),
                                ("l1", np.max(np.sum(np.abs(dev), axis=1))),
                                ("frobenius", np.linalg.norm(dev))):
                values.setdefault((estimator, rule, norm), []).append(float(value))
    return {key: (float(np.mean(v)), float(np.std(v, ddof=1))) for key, v in values.items()}


# ------------------------------------------------------------------- checks

def check_cv_estimate(files: list[Path], inputs: dict, p: int) -> list[str]:
    summary = json.loads(files[0].read_text())
    errors = []
    losses = np.asarray(summary["cv"]["losses"])
    grid = np.asarray(summary["cv"]["grid"])
    tau = summary["tau"]
    samples = [inputs["x1"], inputs["x2"]]
    if summary["cv"]["repeats"] != CV_REPEATS or not np.array_equal(grid, CV_GRID):
        errors.append(f"CV did not run {CV_REPEATS} repetitions over the grid {{0, 1/50, ..., 5}}")
    else:
        want = reference_cv("diff-corr", samples, "adaptive-lasso", inputs["seed"])
        scale = float(np.max(want))
        worst = float(np.max(np.abs(losses - want)))
        if not worst <= RTOL * scale:
            errors.append(f"loss curve differs from the reference: "
                          f"max |diff| {worst:.3e} > {RTOL:g} x {scale:.3e}")
    if tau != grid[int(np.argmin(losses))]:
        errors.append(f"tau {tau} is not the first minimiser of the loss curve")
    with open(files[1], newline="") as fh:
        rows = list(csv.reader(fh))
    labels = names(p)
    if rows[0][1:] != labels or [r[0] for r in rows[1:]] != labels:
        errors.append("matrix labels differ from the input labels")
    got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    want = reference_fit("diff-corr", samples, "adaptive-lasso", tau)
    scale = float(np.max(np.abs(want)))
    worst = float(np.max(np.abs(got - want)))
    if not worst <= RTOL * scale:
        errors.append(f"matrix differs from the reference at tau={tau}: "
                      f"max |diff| {worst:.3e} > {RTOL:g} x {scale:.3e}")
    norms = summary["norms"]
    for key, value in (("frobenius", float(np.sqrt(np.sum(want * want)))),
                       ("l1", float(np.max(np.sum(np.abs(want), axis=1)))),
                       ("spectral", float(np.max(np.abs(np.linalg.eigvalsh(want)))))):
        if not _close(norms[key], value, scale=max(value, scale)):
            errors.append(f"{key} norm {norms[key]!r} differs from reference {value!r}")
    if summary["nonzero_count"] != int(np.count_nonzero(got)):
        errors.append("nonzero_count does not match the written matrix")
    return errors


def check_equality_test(files: list[Path], inputs: dict, p: int) -> list[str]:
    test = json.loads(files[0].read_text())["test"]
    errors = []
    t = reference_t_stat(inputs["x1"], inputs["x2"])
    t_n = float(np.max(t))
    if not _close(test["t_n"], t_n):
        errors.append(f"t_n {test['t_n']!r} differs from reference {t_n!r}")
    centered = t_n - 4 * math.log(p) + math.log(math.log(p))
    p_value = -math.expm1(-math.exp(-0.5 * centered - 0.5 * math.log(8 * math.pi)))
    if not _close(test["p_value"], p_value, scale=max(p_value, 1e-300)):
        errors.append(f"p_value {test['p_value']!r} differs from reference {p_value!r}")
    iu = np.triu_indices(p, k=1)
    top = np.sort(t[iu])[::-1][:TOP_K]
    pairs = test["top_pairs"]
    index = {name: i for i, name in enumerate(names(p))}
    if len(pairs) != TOP_K:
        errors.append(f"{len(pairs)} top pairs, expected {TOP_K}")
    for (a, b, value), want in zip(pairs, top):
        if not (_close(value, want) and _close(value, t[index[a], index[b]])):
            errors.append(f"top pair ({a}, {b}, {value!r}) differs from reference {want!r}")
            break
    return errors


def check_simulate(files: list[Path], inputs: dict, p: int) -> list[str]:
    """Every report cell (3 thresholded estimators x 2 rules + sample-diff,
    x 3 norms) against the reference harness, mean and sd at RTOL."""
    size = WORKLOADS["simulate"]
    with open(files[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {(r["estimator"], r["rule"], r["norm"]): r for r in rows}
    want = reference_simulate(inputs["seed"], p, size["n"], size["reps"])
    if len(rows) != len(want) or got.keys() != want.keys():
        return [f"report has {len(rows)} rows; missing cells {sorted(want.keys() - got.keys())}, "
                f"unexpected cells {sorted(got.keys() - want.keys())}"]
    errors = []
    for key, (mean, sd) in want.items():
        row = got[key]
        got_mean, got_sd = float(row["mean"]), float(row["sd"])
        if (row["model"], int(row["p"]), int(row["n1"]), int(row["n2"]), int(row["reps"])) \
                != ("model1", p, size["n"], size["n"], size["reps"]):
            errors.append(f"cell {key}: wrong model, sizes or replications: {row}")
        elif not (_close(got_mean, mean) and _close(got_sd, sd, scale=mean)):
            errors.append(f"cell {key}: mean {got_mean!r}, sd {got_sd!r} differ from "
                          f"reference {mean!r}, {sd!r}")
    return errors


CHECKS = {
    "cv-estimate": check_cv_estimate,
    "equality-test": check_equality_test,
    "simulate": check_simulate,
}


def check(workload: str, files: list[Path], inputs: dict) -> list[str]:
    """Reference check of one operation's output files; [] when correct."""
    try:
        return CHECKS[workload](files, inputs, WORKLOADS[workload]["p"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
