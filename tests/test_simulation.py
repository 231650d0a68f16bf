import contextlib
import io

import numpy as np
import pytest

from diffcorr import (
    CvConfig,
    DegenerateSplitError,
    ThresholdRule,
    TwoGroupDataset,
    ValidationError,
    cv_select_tau,
    generate_pair,
    moment_set,
    mvn_sample,
    run_benchmark,
    sample_correlation,
    scale_to_covariance,
)
from diffcorr import moments, simulation
from diffcorr.cli import main
from diffcorr.simulation import ESTIMATOR_NAMES, MODEL_KINDS, NORMS
from diffcorr.thresholding import RULE_NAMES
from oracles import bisection_model1_scale

HARD = ThresholdRule("hard")


def test_generate_pair_validation():
    with pytest.raises(ValidationError):
        generate_pair("model3", 10)
    with pytest.raises(ValidationError):
        generate_pair("model1", 7)  # odd
    with pytest.raises(ValidationError):
        generate_pair("model1", 2)
    with pytest.raises(ValidationError):
        generate_pair("model2", 0)


def test_model1_zero_perturbation_draw():
    # seed 0 at p = 4 draws an all-zero perturbation: both matrices coincide
    r1, r2 = generate_pair("model1", 4, 0)
    assert np.array_equal(r1, r2)


def test_model1_constructed_invariants():
    for seed in range(6):
        r1, r2 = generate_pair("model1", 12, seed)
        for r in (r1, r2):
            assert np.array_equal(np.diag(r), np.ones(12))
            assert np.array_equal(r, r.T)
            assert np.linalg.eigvalsh(r)[0] >= 1e-3 - 1e-12
        # fixed first matrix: 0.2 block on the upper-left half, identity elsewhere
        assert np.all(r1[:6, :6][~np.eye(6, dtype=bool)] == 0.2)
        assert np.array_equal(r1[6:, 6:], np.eye(6))
        assert np.array_equal(r1[:6, 6:], np.zeros((6, 6)))


def test_model1_difference_support():
    r1, r2 = generate_pair("model1", 10, 0)
    diff = r2 - r1
    nonzero = diff != 0.0
    assert np.count_nonzero(nonzero) > 0
    # support confined to the off-diagonal upper-left block
    assert not np.any(nonzero[5:, :])
    assert not np.any(nonzero[:, 5:])
    assert not np.any(np.diag(nonzero))
    # all activated entries share one magnitude: the feasibility constant
    magnitudes = np.unique(np.abs(diff[nonzero]))
    assert len(magnitudes) == 1
    assert 1e-4 <= magnitudes[0] <= 0.2
    assert np.array_equal(diff, diff.T)


def _model1_parts(p, seed):
    """block, d0 and lam read back from model 1's pair: lam > 0, so d0 is the
    sign of the difference and lam its magnitude (0.2 when d0 is zero)."""
    r1, r2 = generate_pair("model1", p, seed)
    half = p // 2
    block, diff = r1[:half, :half], (r2 - r1)[:half, :half]
    d0 = np.sign(diff)
    lam = float(np.max(np.abs(diff))) if d0.any() else 0.2
    return block, d0, lam, r2


@pytest.mark.parametrize("p", [*range(4, 41, 2), 100, 200, 400])
def test_model1_scale_is_the_largest_feasible(p):
    for seed in range(40):
        block, d0, lam, r2 = _model1_parts(p, seed)
        # the closed form agrees with a bisection on the eigenvalue condition
        assert lam == pytest.approx(bisection_model1_scale(block, d0), rel=1e-12, abs=0)
        # feasible: the perturbed block keeps its smallest eigenvalue at 1e-3
        assert np.linalg.eigvalsh(r2)[0] >= 1e-3 - 1e-12
        # maximal: below the cap, a slightly larger scale breaks the floor
        if lam < 0.2:
            assert np.linalg.eigvalsh(block + lam * (1 + 1e-9) * d0)[0] < 1e-3


def test_model2_is_positive_definite_at_every_p():
    # the Toeplitz symbols' lower bound, 0.0093, holds at every section: the
    # smallest eigenvalue is at least 0.009 exactly when r - 0.009 I has a
    # Cholesky factor
    for p in range(1, 401):
        for r in generate_pair("model2", p):
            np.linalg.cholesky(r - 0.009 * np.eye(p))


def test_model1_determinism():
    a1, a2 = generate_pair("model1", 8, 11)
    b1, b2 = generate_pair("model1", 8, 11)
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)


def test_model2_entries():
    r1, r2 = generate_pair("model2", 12)
    assert np.all(np.diag(r1) == 1.0) and np.all(np.diag(r2) == 1.0)
    assert r1[0, 1] == pytest.approx(-0.72, abs=1e-15)
    assert r2[0, 1] == pytest.approx(-0.72 + 0.2 * (2.0 / 3.0), abs=1e-15)
    assert np.all(r1[np.abs(np.subtract.outer(np.arange(12), np.arange(12))) >= 10] == 0.0)


def test_model2_difference_is_banded():
    r1, r2 = generate_pair("model2", 40)
    diff = r2 - r1
    dist = np.abs(np.subtract.outer(np.arange(40), np.arange(40)))
    assert np.all(diff[dist >= 3] == 0.0)
    assert np.all(diff[(dist >= 1) & (dist <= 2)] != 0.0)
    for r in (r1, r2):
        assert np.linalg.eigvalsh(r)[0] >= -1e-10


def test_generate_pair_dispatch():
    r1, r2 = generate_pair("model2", 9, 1)
    assert r1.shape == (9, 9) and r1[0, 1] == pytest.approx(-0.72, abs=1e-15)
    # model2 is deterministic: the seed does not matter
    s1, s2 = generate_pair("model2", 9)
    assert np.array_equal(r1, s1) and np.array_equal(r2, s2)
    g1, _ = generate_pair("model1", 6, 4)
    assert g1.shape == (6, 6) and g1[0, 1] == 0.2


def test_scale_to_covariance_matches_drawn_diagonal():
    r1, _ = generate_pair("model2", 7)
    seed = 21
    sigma = scale_to_covariance(r1, seed)
    # mirror the documented draw to recover the diagonal
    w = np.random.default_rng(seed).standard_normal(7)
    assert np.max(np.abs(np.diag(sigma) - np.abs(w))) < 1e-15
    scale = np.sqrt(np.abs(w))
    assert np.max(np.abs(sigma - np.outer(scale, scale) * r1)) < 1e-15


def test_scale_to_covariance_normalization_roundtrip():
    r1, r2 = generate_pair("model2", 15)
    for r, seed in ((r1, 5), (r2, 6)):
        sigma = scale_to_covariance(r, seed)
        assert np.max(np.abs(sample_correlation(sigma) - r)) < 1e-12


def test_scale_to_covariance_validates_input():
    with pytest.raises(ValidationError):
        scale_to_covariance(np.array([[1.0, 0.2], [0.3, 1.0]]), 0)  # asymmetric
    with pytest.raises(ValidationError):
        scale_to_covariance(np.array([[2.0, 0.0], [0.0, 1.0]]), 0)  # diagonal not 1


def test_mvn_sample_law_of_large_numbers():
    x = mvn_sample(np.eye(3), 10_000, 77)
    cov = moment_set(x).cov
    assert np.max(np.abs(cov - np.eye(3))) < 0.1


def test_mvn_sample_uncorrelated_population():
    n = 4000
    x = mvn_sample(np.diag([1.0, 4.0, 0.25]), n, 13)
    corr = moment_set(x).corr
    off = corr[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) <= 4.0 / np.sqrt(n)


def test_mvn_sample_shapes_and_determinism():
    x = mvn_sample(np.array([[1.0]]), 2, 3)
    assert x.data.shape == (2, 1) and np.all(np.isfinite(x.data))
    y = mvn_sample(np.array([[1.0]]), 2, 3)
    assert np.array_equal(x.data, y.data)


def test_mvn_sample_semidefinite_fallback_and_rejection():
    # no semidefinite fallback: a singular or indefinite covariance fails in
    # Cholesky and is a user error
    for sigma in (np.ones((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(ValidationError, match="not positive definite"):
            mvn_sample(sigma, 10, 0)


def test_benchmark_shape_contract():
    report = run_benchmark(
        "model2", 10, 20, 20, 2, [ThresholdRule("soft"), HARD], ["diff-corr", "sample-diff"],
        cv=CvConfig(seed=5),
    )
    # 2 rules for the thresholding estimator + 1 rule-free baseline, 3 norms each
    assert len(report.rows) == (2 + 1) * 3
    assert all(np.isfinite(row.mean) and np.isfinite(row.sd) and row.sd >= 0 for row in report.rows)
    assert {row.norm for row in report.rows} == {"spectral", "l1", "frobenius"}
    assert report.reps == 2
    # the table has one line per fit, ordered by ESTIMATOR_NAMES, then rule
    lines = report.format_table().splitlines()[2:]
    assert [line.split()[4:6] for line in lines] == [
        ["diff-corr", "hard"], ["diff-corr", "soft"], ["sample-diff", "none"]
    ]
    row = report.cell(estimator="diff-corr", rule="hard", norm="frobenius")
    assert lines[0].endswith(f"{row.mean:.3f} ({row.sd:.3f})")


def test_benchmark_determinism():
    args = ("model1", 8, 16, 16, 2, [HARD], ["diff-corr"])
    first = run_benchmark(*args, cv=CvConfig(seed=12))
    second = run_benchmark(*args, cv=CvConfig(seed=12))
    assert first.rows == second.rows


def test_a_failed_fit_stops_the_benchmark(monkeypatch, tmp_path, capsys):
    import diffcorr.simulation as sim

    real_fit = sim._FITS["diff-corr"]
    calls = {"n": 0}

    def fit_failing_once(ds, rules, cfg):
        calls["n"] += 1
        if calls["n"] == 3:  # the third of five replications
            raise DegenerateSplitError("injected degenerate split")
        return real_fit(ds, rules, cfg)

    monkeypatch.setitem(sim._FITS, "diff-corr", fit_failing_once)
    with pytest.raises(DegenerateSplitError, match="injected degenerate split"):
        run_benchmark("model2", 8, 16, 16, 5, [HARD], ["diff-corr", "sample-diff"], CvConfig(seed=3))
    calls["n"] = 0
    out = tmp_path / "r.csv"
    argv = ["simulate", "--model", "2", "--p", "8", "--n", "16", "--reps", "5", "--rules", "hard",
            "--estimators", "diff-corr,sample-diff", "--seed", "3", "--out-csv", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error [DATA]: injected degenerate split\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_smallest_legal_folds_never_fail(kind):
    # 2k observations in k folds hold out 2 at a time, the fewest a split allows;
    # a Gaussian column is constant over 2 draws with probability 0
    for k in (2, 5):
        for seed in (0, 1):
            report = run_benchmark(
                kind, 6, 2 * k, 2 * k, 5, [ThresholdRule(rule) for rule in RULE_NAMES],
                list(ESTIMATOR_NAMES), cv=CvConfig(k_folds=k, seed=seed),
            )
            assert len(report.rows) == (3 * len(RULE_NAMES) + 1) * len(NORMS)
            assert report.reps == 5 and all(np.isfinite(row.mean) for row in report.rows)


def test_benchmark_holds_its_unequal_cell_once():
    report = run_benchmark("model2", 12, 20, 24, 2, [HARD], ["diff-corr"], CvConfig(seed=7))
    assert (report.model, report.p, report.n1, report.n2, report.reps) == ("model2", 12, 20, 24, 2)
    assert len(report.rows) == 3
    out = io.StringIO(newline="")
    report.write_csv(out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "model,p,n1,n2,estimator,rule,norm,mean,sd,reps"
    assert [line.split(",")[:7] for line in lines[1:]] == [
        ["model2", "12", "20", "24", "diff-corr", "hard", norm] for norm in NORMS
    ]
    row = report.cell(norm="spectral")
    assert lines[1].split(",")[7:] == [format(row.mean, ".17g"), format(row.sd, ".17g"), "2"]


def test_benchmark_validation():
    with pytest.raises(ValidationError):
        run_benchmark("model2", 8, 16, 16, 1, [HARD], ["diff-corr"])
    with pytest.raises(ValidationError):
        run_benchmark("model9", 8, 16, 16, 2, [HARD], ["diff-corr"])
    with pytest.raises(ValidationError):
        run_benchmark("model2", 8, 16, 16, 2, [HARD], ["nope"])
    # a repeated name would give two rows for one (estimator, rule, norm)
    with pytest.raises(ValidationError):
        run_benchmark("model2", 8, 16, 16, 2, [HARD, HARD], ["diff-corr"])
    with pytest.raises(ValidationError):
        run_benchmark("model2", 8, 16, 16, 2, [HARD], ["diff-corr", "diff-corr"])


@pytest.mark.parametrize("empty", ["rules", "estimators"])
def test_benchmark_rejects_empty_lists(empty):
    # an empty list must not run anything silently
    lists = {"rules": [HARD], "estimators": ["diff-corr"], empty: []}
    with pytest.raises(ValidationError):
        run_benchmark("model2", 8, 16, 16, 2, **lists)


def test_two_rules_give_the_rows_of_two_single_rule_runs():
    al = ThresholdRule("adaptive-lasso")
    cfg = CvConfig(seed=11, grid_n=20)
    both = run_benchmark("model1", 12, 20, 24, 2, [HARD, al], list(ESTIMATOR_NAMES), cfg)
    alone = {rule.kind: run_benchmark("model1", 12, 20, 24, 2, [rule], list(ESTIMATOR_NAMES), cfg)
             for rule in (HARD, al)}
    want = []
    for estimator in ESTIMATOR_NAMES:  # estimator by estimator, rule by rule, in order
        for rule in ("none",) if estimator == "sample-diff" else ("hard", "adaptive-lasso"):
            source = alone["hard" if rule == "none" else rule]
            want += [row for row in source.rows if (row.estimator, row.rule) == (estimator, rule)]
    assert both.rows == tuple(want)


def test_a_replication_draws_its_folds_once_for_all_rules(monkeypatch):
    from diffcorr import crossval

    draws = {"n": 0}
    draw_folds = crossval._draw_folds

    def counted(*args):
        draws["n"] += 1
        return draw_folds(*args)

    monkeypatch.setattr(crossval, "_draw_folds", counted)
    counts = []
    al = ThresholdRule("adaptive-lasso")
    for rules in ([HARD], [HARD, al], [ThresholdRule(r) for r in RULE_NAMES]):
        draws["n"] = 0
        run_benchmark("model2", 8, 16, 16, 2, rules, list(ESTIMATOR_NAMES), CvConfig(h_repeats=3))
        counts.append(draws["n"])
    # per replication: diff-corr draws 2 groups x 3 repetitions, each baseline 2 x 3
    assert counts == [2 * 18] * 3


def _count_moment_sets(monkeypatch):
    calls = {"n": 0}
    sample_moments = moments.sample_moments

    def counted(*args):
        calls["n"] += 1
        return sample_moments(*args)

    monkeypatch.setattr(moments, "sample_moments", counted)
    return calls


@pytest.mark.parametrize("p, n", [(100, 50), (130, 40)])  # one and two row blocks
def test_shared_moments_give_each_estimator_its_own_numbers(p, n, monkeypatch):
    rules = [HARD, ThresholdRule("adaptive-lasso")]
    shared = run_benchmark("model1", p, n, n, 2, rules, list(ESTIMATOR_NAMES), CvConfig(seed=3))
    # each estimator fitted alone and outside the scope, which then shares nothing
    monkeypatch.setattr(simulation, "_shared_moments", contextlib.nullcontext)
    alone = []
    for estimator in ESTIMATOR_NAMES:
        alone += run_benchmark("model1", p, n, n, 2, rules, [estimator], CvConfig(seed=3)).rows
    assert shared.rows == tuple(alone)


def test_a_simulate_operation_computes_each_moment_set_once(monkeypatch, tmp_path):
    calls = _count_moment_sets(monkeypatch)
    argv = ["simulate", "--model", "1", "--p", "100", "--n", "50", "--reps", "2", "--seed", "3",
            "--out-csv", str(tmp_path / "report.csv")]
    main(argv)
    # per replication, 15 distinct splits of 2 parts each (diff-corr's 10, and
    # the 5 on group 2 that both single-group baselines draw), and the 2 groups
    assert calls["n"] == 2 * (15 * 2 + 2)
    monkeypatch.setattr(simulation, "_shared_moments", contextlib.nullcontext)
    calls["n"] = 0
    main(argv)
    # unshared: 30 splits and 4 full sets per group (diff-corr, both
    # baselines and sample-diff) per replication
    assert calls["n"] == 2 * (30 * 2 + 8)


def test_the_shared_scope_leaves_nothing_behind(monkeypatch):
    x = mvn_sample(np.eye(4), 20, 1)
    with pytest.raises(RuntimeError):
        with moments._shared_moments():
            assert moment_set(x) is moment_set(x)
            raise RuntimeError
    assert moments._SHARED.get(None) is None
    assert moment_set(x) is not moment_set(x)

    def failing(ds, rules, cfg):
        moment_set(ds.group1)
        raise RuntimeError("fit failed")

    monkeypatch.setitem(simulation._FITS, "sample-diff", failing)
    with pytest.raises(RuntimeError, match="fit failed"):
        run_benchmark("model2", 8, 16, 16, 2, [HARD], ["diff-corr", "sample-diff"])
    assert moments._SHARED.get(None) is None
    # cross-validation outside simulate computes its own parts every time
    calls = _count_moment_sets(monkeypatch)
    ds = TwoGroupDataset(x, mvn_sample(np.eye(4), 20, 2))
    for _ in range(2):
        cv_select_tau(ds, CvConfig(h_repeats=3))
    assert calls["n"] == 2 * (3 * 2 * 2)
