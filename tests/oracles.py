"""Independent naive-loop reference implementations.

Everything here is written with plain Python loops and scalar math so it
shares no code path with the library: no vectorization, no shared helpers.
Inputs are nested lists (or arrays indexed entry by entry).
"""

import csv
import math

import numpy as np

from diffcorr.errors import CsvFormatError, ValidationError


def _as_rows(x):
    return [list(map(float, row)) for row in np.asarray(x)]


def centered(x):
    rows = _as_rows(x)
    n, p = len(rows), len(rows[0])
    means = [sum(row[j] for row in rows) / n for j in range(p)]
    return [[rows[k][j] - means[j] for j in range(p)] for k in range(n)], n, p


def naive_cov(x):
    c, n, p = centered(x)
    return [
        [sum(c[k][i] * c[k][j] for k in range(n)) / n for j in range(p)]
        for i in range(p)
    ]


def naive_corr(s):
    p = len(s)
    r = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(p):
            if i == j:
                r[i][j] = 1.0
            else:
                val = s[i][j] / math.sqrt(s[i][i] * s[j][j])
                r[i][j] = min(1.0, max(-1.0, val))
    return r


def naive_theta(x, s):
    c, n, p = centered(x)
    return [
        [
            sum((c[k][i] * c[k][j] - s[i][j]) ** 2 for k in range(n)) / n
            for j in range(p)
        ]
        for i in range(p)
    ]


def naive_xi(theta, s):
    p = len(s)
    return [[theta[i][j] / (s[i][i] * s[j][j]) for j in range(p)] for i in range(p)]


def naive_eta(x):
    c, n, p = centered(x)
    s = naive_cov(x)
    r = naive_corr(s)
    eta = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(p):
            total = 0.0
            for k in range(n):
                term = c[k][i] * c[k][j] / math.sqrt(s[i][i] * s[j][j])
                term -= (r[i][j] / 2.0) * (
                    c[k][i] ** 2 / s[i][i] + c[k][j] ** 2 / s[j][j]
                )
                total += term * term
            eta[i][j] = total / n
    return eta


def naive_rule(kind, z, lam, eta=4.0):
    if kind == "hard":
        return z if abs(z) > lam else 0.0
    if kind == "soft":
        return math.copysign(abs(z) - lam, z) if abs(z) > lam else 0.0
    if kind == "adaptive-lasso":
        if abs(z) <= lam:  # shrink factor is clamped to 0 here
            return 0.0
        shrink = 1.0 - (lam / abs(z)) ** eta
        return z * shrink if shrink > 0.0 else 0.0
    raise ValueError(kind)


def _corr_lambda_term(xi, r, n, p_dim, i, j):
    return math.sqrt(math.log(p_dim) / n) * (
        math.sqrt(xi[i][j])
        + abs(r[i][j]) / 2.0 * (math.sqrt(xi[i][i]) + math.sqrt(xi[j][j]))
    )


def naive_diff_corr_lambdas(x1, x2, tau, p_dim=None):
    s1, s2 = naive_cov(x1), naive_cov(x2)
    r1, r2 = naive_corr(s1), naive_corr(s2)
    xi1 = naive_xi(naive_theta(x1, s1), s1)
    xi2 = naive_xi(naive_theta(x2, s2), s2)
    n1, n2 = len(_as_rows(x1)), len(_as_rows(x2))
    p = len(s1)
    p_dim = p if p_dim is None else p_dim
    return [
        [
            tau
            * (
                _corr_lambda_term(xi1, r1, n1, p_dim, i, j)
                + _corr_lambda_term(xi2, r2, n2, p_dim, i, j)
            )
            for j in range(p)
        ]
        for i in range(p)
    ]


def naive_estimate_diff_corr(x1, x2, tau, kind, eta=4.0):
    r1 = naive_corr(naive_cov(x1))
    r2 = naive_corr(naive_cov(x2))
    lam = naive_diff_corr_lambdas(x1, x2, tau)
    p = len(r1)
    return [
        [naive_rule(kind, r1[i][j] - r2[i][j], lam[i][j], eta) for j in range(p)]
        for i in range(p)
    ]


def naive_estimate_single_corr(x, tau, kind, eta=4.0):
    s = naive_cov(x)
    r = naive_corr(s)
    xi = naive_xi(naive_theta(x, s), s)
    n = len(_as_rows(x))
    p = len(s)
    out = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(p):
            if i == j:
                out[i][j] = 1.0
            else:
                lam = tau * _corr_lambda_term(xi, r, n, p, i, j)
                out[i][j] = naive_rule(kind, r[i][j], lam, eta)
    return out


def naive_estimate_diff_cov(x1, x2, tau, kind, eta=4.0):
    s1, s2 = naive_cov(x1), naive_cov(x2)
    t1, t2 = naive_theta(x1, s1), naive_theta(x2, s2)
    n1, n2 = len(_as_rows(x1)), len(_as_rows(x2))
    p = len(s1)
    logp = math.log(p)
    out = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(p):
            gamma = tau * (
                math.sqrt(logp / n1 * t1[i][j]) + math.sqrt(logp / n2 * t2[i][j])
            )
            out[i][j] = naive_rule(kind, s1[i][j] - s2[i][j], gamma, eta)
    return out


def naive_estimate_cross_corr(x1, x2, split, tau, kind, eta=4.0):
    full = naive_estimate_diff_corr(x1, x2, tau, kind, eta)
    return [row[split:] for row in full[:split]]


def naive_statistics_and_unit_levels(x1, x2):
    """{kind: (raw statistic, threshold levels at tau = 1)} for "diff-corr",
    "diff-cov", and "single-corr" and "cov-threshold" of x1, with each group's
    moments computed once: the naive_estimate_* formulas with tau factored out,
    so naive_rule(rule, raw_ij, tau * unit_ij) is their estimate. A single
    group's diagonal level is 0, which keeps its diagonal as those estimates do."""
    groups = []
    for x in (x1, x2):
        s = naive_cov(x)
        theta = naive_theta(x, s)
        groups.append((s, naive_corr(s), theta, naive_xi(theta, s), len(_as_rows(x))))
    (s1, r1, t1, xi1, n1), (s2, r2, t2, xi2, n2) = groups
    p = len(s1)
    logp = math.log(p)
    cells = [(i, j) for i in range(p) for j in range(p)]

    def table(f):
        out = [[0.0] * p for _ in range(p)]
        for i, j in cells:
            out[i][j] = f(i, j)
        return out

    off = lambda i, j, v: 0.0 if i == j else v  # noqa: E731
    return {
        "diff-corr": (
            table(lambda i, j: r1[i][j] - r2[i][j]),
            table(lambda i, j: _corr_lambda_term(xi1, r1, n1, p, i, j)
                  + _corr_lambda_term(xi2, r2, n2, p, i, j)),
        ),
        "diff-cov": (
            table(lambda i, j: s1[i][j] - s2[i][j]),
            table(lambda i, j: math.sqrt(logp / n1 * t1[i][j])
                  + math.sqrt(logp / n2 * t2[i][j])),
        ),
        "single-corr": (
            r1, table(lambda i, j: off(i, j, _corr_lambda_term(xi1, r1, n1, p, i, j)))
        ),
        "cov-threshold": (
            s1, table(lambda i, j: off(i, j, math.sqrt(t1[i][j] * logp / n1)))
        ),
    }


def naive_cov_then_normalize(x1, x2, tau, kind, eta=4.0):
    def one_group(x):
        s = naive_cov(x)
        theta = naive_theta(x, s)
        n = len(_as_rows(x))
        p = len(s)
        logp = math.log(p)
        star = [[0.0] * p for _ in range(p)]
        for i in range(p):
            for j in range(p):
                if i == j:
                    star[i][j] = s[i][j]
                else:
                    lam = tau * math.sqrt(theta[i][j] * logp / n)
                    star[i][j] = naive_rule(kind, s[i][j], lam, eta)
        return naive_corr(star)

    g1, g2 = one_group(x1), one_group(x2)
    p = len(g1)
    return [[g1[i][j] - g2[i][j] for j in range(p)] for i in range(p)]


def naive_separate_corr(x1, x2, tau, kind, eta=4.0):
    a = naive_estimate_single_corr(x1, tau, kind, eta)
    b = naive_estimate_single_corr(x2, tau, kind, eta)
    p = len(a)
    return [[a[i][j] - b[i][j] for j in range(p)] for i in range(p)]


def naive_sample_difference(x1, x2):
    r1 = naive_corr(naive_cov(x1))
    r2 = naive_corr(naive_cov(x2))
    p = len(r1)
    return [[r1[i][j] - r2[i][j] for j in range(p)] for i in range(p)]


def naive_test_statistic(x1, x2):
    r1 = naive_corr(naive_cov(x1))
    r2 = naive_corr(naive_cov(x2))
    e1, e2 = naive_eta(x1), naive_eta(x2)
    n1, n2 = len(_as_rows(x1)), len(_as_rows(x2))
    p = len(r1)
    t = [[0.0] * p for _ in range(p)]
    t_max = 0.0
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            denom = e1[i][j] / n1 + e2[i][j] / n2
            t[i][j] = (r1[i][j] - r2[i][j]) ** 2 / denom
            t_max = max(t_max, t[i][j])
    return t_max, t


def naive_spectral_norm(m):
    m = np.asarray(m, dtype=float)
    if m.shape[0] == m.shape[1] and np.max(np.abs(m - m.T)) == 0.0:
        return float(max(abs(v) for v in np.linalg.eigvals(m)))
    gram = m.T @ m
    return float(math.sqrt(max(abs(v) for v in np.linalg.eigvals(gram))))


def naive_l1_norm(m):
    rows = _as_rows(m)
    return max(sum(abs(v) for v in row) for row in rows)


def naive_frobenius_norm(m):
    rows = _as_rows(m)
    return math.sqrt(sum(v * v for row in rows for v in row))


def _fold_variances_ok(x_rows, idx):
    cols = list(zip(*[x_rows[k] for k in idx]))
    n = len(idx)
    for col in cols:
        mean = sum(col) / n
        if sum((v - mean) ** 2 for v in col) / n <= 0.0:
            return False
    return True


def naive_cv_diff_corr(x1, x2, k_folds, h_repeats, grid_n, seed, kind, eta=4.0):
    """Mirror of the tau selection protocol with fresh loops. The split RNG
    derivation is copied from the library contract: default_rng([seed, h]),
    one permutation per group per attempt, first n//k indices (sorted) as the
    held-out part."""
    rows1, rows2 = _as_rows(x1), _as_rows(x2)
    n1, n2 = len(rows1), len(rows2)
    m1, m2 = n1 // k_folds, n2 // k_folds
    grid = [g / grid_n for g in range(5 * grid_n + 1)]
    losses = [0.0] * len(grid)
    for h in range(h_repeats):
        rng = np.random.default_rng([seed, h])
        for _ in range(10):
            perm1 = rng.permutation(n1)
            test1 = sorted(int(v) for v in perm1[:m1])
            train1 = sorted(int(v) for v in perm1[m1:])
            if not (
                _fold_variances_ok(rows1, train1) and _fold_variances_ok(rows1, test1)
            ):
                continue
            perm2 = rng.permutation(n2)
            test2 = sorted(int(v) for v in perm2[:m2])
            train2 = sorted(int(v) for v in perm2[m2:])
            if not (
                _fold_variances_ok(rows2, train2) and _fold_variances_ok(rows2, test2)
            ):
                continue
            break
        else:
            raise RuntimeError("no valid split")
        tr1 = [rows1[i] for i in train1]
        tr2 = [rows2[i] for i in train2]
        te1 = [rows1[i] for i in test1]
        te2 = [rows2[i] for i in test2]
        lam_unit = naive_diff_corr_lambdas(tr1, tr2, 1.0)
        r1 = naive_corr(naive_cov(tr1))
        r2 = naive_corr(naive_cov(tr2))
        h1 = naive_corr(naive_cov(te1))
        h2 = naive_corr(naive_cov(te2))
        p = len(r1)
        for gi, tau in enumerate(grid):
            loss = 0.0
            for i in range(p):
                for j in range(p):
                    est = naive_rule(
                        kind, r1[i][j] - r2[i][j], tau * lam_unit[i][j], eta
                    )
                    dev = est - (h1[i][j] - h2[i][j])
                    loss += dev * dev
            losses[gi] += loss
    losses = [v / h_repeats for v in losses]
    best = min(range(len(grid)), key=lambda idx: (losses[idx], idx))
    return grid[best], grid, losses


def bisection_model1_scale(block, d0):
    """Reference for model 1's closed-form scale: the largest lam in (0, 0.2]
    with min eigenvalue of block + lam * d0 at least 1e-3, by bisection to
    within 0.2 / 2**50; None when even lam = 1e-4 fails. A scale is feasible
    when numpy's Cholesky factorisation of block + lam * d0 - 1e-3 I succeeds.
    The closed form calls Cholesky too, on block - 1e-3 I alone, then eigvalsh
    of the whitened d0: the two share numpy's Cholesky, not the reduction of
    the condition to one eigenvalue."""
    shifted = block - 1e-3 * np.eye(len(block))

    def feasible(lam):
        try:
            np.linalg.cholesky(shifted + lam * d0)
        except np.linalg.LinAlgError:
            return False
        return True

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


def naive_read_csv(path, label=None):
    """Reference CSV reader: (value column labels, label cells, values) as the
    csv module reads the rows and float() parses each cell, with the errors
    and messages of the library's readers. label is the label column's
    0-based index or header cell, or None for no label column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    while rows and not any(cell.strip() for cell in rows[-1]):
        rows.pop()
    if not rows:
        raise CsvFormatError(f"{path}: file is empty", row=1)
    if not any(cell.strip() for cell in rows[0]):
        raise CsvFormatError(f"{path}: empty header row", row=1)
    width = len(rows[0])
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise CsvFormatError(f"{path}: expected {width} cells, got {len(row)}", row=i)
    header = [cell.strip() for cell in rows[0]]
    if isinstance(label, str):
        if label not in header:
            raise ValidationError(f"{path}: label column {label!r} not found in header {header}")
        label = header.index(label)
    keep = [j for j in range(width) if j != label]
    values = []
    for i, row in enumerate(rows[1:], start=2):
        for j in keep:
            try:
                value = float(row[j])
            except ValueError:
                raise CsvFormatError(
                    f"{path}: cell {row[j]!r} is not numeric", row=i, column=j + 1
                ) from None
            if not math.isfinite(value):
                raise CsvFormatError(f"{path}: cell {row[j]!r} is not finite", row=i, column=j + 1)
            values.append(value)
    labels = [] if label is None else [row[label].strip() for row in rows[1:]]
    names = tuple(header[j] for j in keep)
    return names, labels, np.array(values, dtype=float).reshape(len(rows) - 1, len(keep))
