import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffcorr
from diffcorr import read_matrix_csv, read_sample_csv
from diffcorr.cli import ingest_two_group, main
from diffcorr.errors import InsufficientSamplesError, ValidationError
from oracles import naive_cv_diff_corr


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def sample_files(tmp_path):
    rng = np.random.default_rng(0)
    header = ["g1", "g2", "g3"]
    a = _write_csv(tmp_path / "a.csv", header, rng.standard_normal((12, 3)).tolist())
    b = _write_csv(tmp_path / "b.csv", header, rng.standard_normal((14, 3)).tolist())
    return a, b


def test_ingest_two_files(sample_files):
    a, b = sample_files
    ds = ingest_two_group(input1=a, input2=b)
    assert ds.p == 3
    assert ds.group1.n == 12 and ds.group2.n == 14
    assert ds.names == ("g1", "g2", "g3")


def test_ingest_mismatched_headers(tmp_path, sample_files):
    a, _ = sample_files
    other = _write_csv(tmp_path / "c.csv", ["g1", "gX", "g3"], [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValidationError) as err:
        ingest_two_group(input1=a, input2=other)
    assert "g2" in str(err.value) and "gX" in str(err.value)


def test_ingest_labeled_with_pooling(tmp_path):
    rows = []
    for label, count in (("A", 4), ("B", 3), ("C", 5)):
        for k in range(count):
            rows.append([label, k + 0.5, 2 * k - 1.0])
    path = _write_csv(tmp_path / "labeled.csv", ["grade", "x", "y"], rows)
    ds = ingest_two_group(input=path, label_column="grade", groups="A+B:C")
    assert ds.group1.n == 7 and ds.group2.n == 5
    assert ds.names == ("x", "y")

    with pytest.raises(ValidationError):  # three labels and no mapping
        ingest_two_group(input=path, label_column="grade")
    with pytest.raises(ValidationError):  # unknown label in the mapping
        ingest_two_group(input=path, label_column="grade", groups="A:D")
    with pytest.raises(ValidationError):  # missing label column
        ingest_two_group(input=path, label_column="nope", groups="A:C")


def test_ingest_labeled_two_label_default(tmp_path):
    rows = [["B", 1.0], ["A", 2.0], ["B", 3.0], ["A", 4.0]]
    path = _write_csv(tmp_path / "two.csv", ["grp", "v"], rows)
    ds = ingest_two_group(input=path, label_column="grp")
    # group1 is the label seen first in the file
    assert ds.group1.data[:, 0].tolist() == [1.0, 3.0]
    assert ds.group2.data[:, 0].tolist() == [2.0, 4.0]


def test_ingest_bad_cell_reports_location(tmp_path):
    path = _write_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0, 2.0], [3.0, "oops"]])
    with pytest.raises(ValidationError) as err:
        ingest_two_group(input1=path, input2=path)
    assert "row 3" in str(err.value) and "column 2" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_ingest_non_finite_cell_reports_location(tmp_path, cell):
    path = _write_csv(tmp_path / "bad.csv", ["a", "b", "c"], [[1, 2, 3], [4, 5, cell], [7, 8, 9]])
    with pytest.raises(ValidationError) as err:
        ingest_two_group(input1=path, input2=path)
    assert err.value.category == "USER"
    assert (err.value.row, err.value.column) == (3, 3)
    # the label column is skipped but still counts in the reported column
    labeled = _write_csv(
        tmp_path / "labeled.csv", ["x", "grp", "y"], [[1, "A", 2], [3, "B", 4], [5, "A", cell]]
    )
    with pytest.raises(ValidationError) as err:
        ingest_two_group(input=labeled, label_column="grp")
    assert (err.value.row, err.value.column) == (4, 3)


def test_ingest_header_only_file(tmp_path):
    path = _write_csv(tmp_path / "header.csv", ["a", "b"], [])
    with pytest.raises(InsufficientSamplesError):
        ingest_two_group(input1=path, input2=path)


def test_ingest_rejects_single_row(tmp_path):
    path = _write_csv(tmp_path / "tiny.csv", ["a"], [[1.0]])
    with pytest.raises(InsufficientSamplesError):
        ingest_two_group(input1=path, input2=path)


def test_byte_order_mark_stays_out_of_labels(tmp_path, sample_files):
    a, _ = sample_files
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(a).read_bytes())
    out = tmp_path / "corr.csv"
    assert main(["estimate-corr", "--input", str(marked), "--tau", "0.5", "--out-matrix", str(out)]) == 0
    _, rows, cols = read_matrix_csv(out)
    assert rows == cols == ("g1", "g2", "g3")


def test_trailing_blank_rows_are_ignored(tmp_path, sample_files):
    a, _ = sample_files
    padded = tmp_path / "padded.csv"
    padded.write_bytes(Path(a).read_bytes() + b"\r\n\n,,\n")
    outs = []
    for path in (a, padded):
        outs.append(tmp_path / f"corr{len(outs)}.csv")
        assert main(["estimate-corr", "--input", str(path), "--tau", "0.5", "--out-matrix", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_closed_stdout_exits_quietly(sample_files):
    a, b = sample_files
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write, as with `| head`
    env = dict(os.environ, PYTHONPATH=str(Path(diffcorr.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diffcorr.cli", "test-equality", "--input1", a, "--input2", b],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_estimate_diff_corr_identical_files(tmp_path, sample_files, capsys):
    a, _ = sample_files
    out_matrix = tmp_path / "est.csv"
    out_json = tmp_path / "est.json"
    code = main(
        [
            "estimate-diff-corr",
            "--input1", a, "--input2", a,
            "--tau", "0.5",
            "--rule", "soft",
            "--out-matrix", str(out_matrix),
            "--out-json", str(out_json),
        ]
    )
    assert code == 0
    values, row_labels, col_labels = read_matrix_csv(out_matrix)
    assert np.array_equal(values, np.zeros((3, 3)))
    assert row_labels == col_labels == ("g1", "g2", "g3")
    summary = json.loads(out_json.read_text())
    assert summary["schema_version"] == 1
    assert summary["nonzero_count"] == 0
    assert summary["tau"] == 0.5
    assert summary["norms"]["frobenius"] == 0.0


def test_matrix_round_trip_and_json_determinism(tmp_path, sample_files):
    a, b = sample_files
    args = [
        "estimate-diff-corr",
        "--input1", a, "--input2", b,
        "--rule", "adaptive-lasso",
        "--cv-grid", "5",
        "--seed", "3",
    ]
    out1_m, out1_j = tmp_path / "m1.csv", tmp_path / "j1.json"
    out2_m, out2_j = tmp_path / "m2.csv", tmp_path / "j2.json"
    assert main(args + ["--out-matrix", str(out1_m), "--out-json", str(out1_j)]) == 0
    assert main(args + ["--out-matrix", str(out2_m), "--out-json", str(out2_j)]) == 0
    assert out1_j.read_bytes() == out2_j.read_bytes()
    assert out1_m.read_bytes() == out2_m.read_bytes()

    reread, _, _ = read_matrix_csv(out1_m)
    # estimate written at 17 significant digits reingests bit for bit
    rewritten = tmp_path / "rewrite.csv"
    from diffcorr import write_matrix_csv

    write_matrix_csv(rewritten, reread, ("g1", "g2", "g3"), ("g1", "g2", "g3"))
    assert rewritten.read_bytes() == out1_m.read_bytes()
    summary = json.loads(out1_j.read_text())
    assert summary["cv"]["tau_hat"] == summary["tau"]
    assert len(summary["cv"]["grid"]) == 26


def test_tau_and_cv_flags_conflict(sample_files, capsys):
    a, b = sample_files
    code = main(
        ["estimate-diff-corr", "--input1", a, "--input2", b, "--tau", "1.0", "--cv-folds", "4"]
    )
    assert code == 2
    assert "USER" in capsys.readouterr().err


def test_missing_inputs_is_user_error(capsys):
    assert main(["estimate-diff-corr", "--tau", "1.0"]) == 2
    assert "USER" in capsys.readouterr().err


def test_degenerate_data_exit_code(tmp_path, capsys):
    path = _write_csv(tmp_path / "const.csv", ["a", "b"], [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    code = main(["estimate-diff-corr", "--input1", path, "--input2", path, "--tau", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "DATA" in err and "variable b " in err


def test_estimate_corr_and_cross(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = _write_csv(
        tmp_path / "x.csv", ["a", "b", "c", "d"], rng.standard_normal((30, 4)).tolist()
    )
    out = tmp_path / "corr.csv"
    assert main(["estimate-corr", "--input", path, "--tau", "0.8", "--out-matrix", str(out)]) == 0
    values, rows, cols = read_matrix_csv(out)
    assert np.array_equal(np.diag(values), np.ones(4))

    out2 = tmp_path / "cross.csv"
    code = main(
        [
            "estimate-cross",
            "--input1", path, "--input2", path,
            "--split", "1", "--tau", "0.5",
            "--out-matrix", str(out2),
        ]
    )
    assert code == 0
    values2, rows2, cols2 = read_matrix_csv(out2)
    assert values2.shape == (1, 3)
    assert rows2 == ("a",) and cols2 == ("b", "c", "d")


def test_estimate_diff_cov_runs(tmp_path, sample_files):
    a, b = sample_files
    out = tmp_path / "cov.json"
    assert main(
        ["estimate-diff-cov", "--input1", a, "--input2", b, "--tau", "1.2", "--out-json", str(out)]
    ) == 0
    assert json.loads(out.read_text())["command"] == "estimate-diff-cov"


def test_test_equality_identical_files(tmp_path, capsys):
    rng = np.random.default_rng(8)
    names = [f"v{i}" for i in range(20)]
    path = _write_csv(tmp_path / "t.csv", names, rng.standard_normal((25, 20)).tolist())
    out = tmp_path / "test.json"
    code = main(["test-equality", "--input1", path, "--input2", path, "--out-json", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "t_n = 0" in captured
    assert "p-value = 1" in captured
    assert "accept equality" in captured
    payload = json.loads(out.read_text())
    assert payload["test"]["t_n"] == 0.0
    assert payload["test"]["p_value"] == 1.0
    assert payload["test"]["reject"] is False
    assert len(payload["test"]["top_pairs"]) == 20


def test_cv_command(tmp_path, sample_files):
    a, b = sample_files
    out = tmp_path / "cv.json"
    code = main(
        [
            "cv",
            "--input1", a, "--input2", b,
            "--estimator", "diff-corr",
            "--cv-grid", "4", "--cv-repeats", "2", "--seed", "9",
            "--out-json", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["cv"]["grid"]) == 21
    assert len(payload["cv"]["losses"]) == 21
    assert payload["cv"]["tau_hat"] in payload["cv"]["grid"]


def test_cv_with_large_adaptive_lasso_exponent(tmp_path, sample_files, capsys):
    # (tau * u / |z|)**eta overflows for eta = 300 once tau * u > |z|; the
    # loss curve must stay finite and select what fitting at every tau selects
    a, b = sample_files
    out = tmp_path / "est.json"
    code = main(
        [
            "estimate-diff-corr",
            "--input1", a, "--input2", b,
            "--rule", "adaptive-lasso", "--eta", "300",
            "--out-json", str(out),
        ]
    )
    assert code == 0
    cv = json.loads(out.read_text())["cv"]
    assert np.all(np.isfinite(cv["losses"]))
    tau_naive, _, _ = naive_cv_diff_corr(
        read_sample_csv(a).data, read_sample_csv(b).data, 5, 5, 50, 0, "adaptive-lasso", eta=300
    )
    assert cv["tau_hat"] == tau_naive


def test_grid_edge_tau_warns_on_stderr_only(tmp_path, sample_files, capsys):
    # a dense difference (a shared factor added to every variable of group 2)
    # makes cross-validation keep everything: tau_hat = 0, the lower grid edge
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 6))
    y = rng.standard_normal((20, 6))
    f = rng.standard_normal((20, 1))
    header = [f"v{i}" for i in range(6)]
    a = _write_csv(tmp_path / "dense1.csv", header, x.tolist())
    b = _write_csv(tmp_path / "dense2.csv", header, (y + 2.0 * f).tolist())
    out = tmp_path / "est.json"
    code = main(["estimate-diff-corr", "--input1", a, "--input2", b, "--out-json", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["cv"]["tau_hat"] == 0.0
    assert captured.out == f"estimate-diff-corr: tau=0.0 nonzero={summary['nonzero_count']}\n"
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("warning: ") and "grid may be too narrow" in captured.err

    assert main(["cv", "--input1", a, "--input2", b]) == 0
    captured = capsys.readouterr()
    assert captured.out == "tau_hat = 0 (over 251 grid points)\n"
    assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1

    # an interior tau_hat prints no warning
    a, b = sample_files
    assert main(["estimate-diff-corr", "--input1", a, "--input2", b, "--out-json", str(out)]) == 0
    tau_hat = json.loads(out.read_text())["cv"]["tau_hat"]
    assert 0.0 < tau_hat < 5.0
    assert capsys.readouterr().err == ""


def test_support_rank(tmp_path, sample_files, capsys):
    a, b = sample_files
    out = tmp_path / "rank.csv"
    code = main(
        [
            "support-rank",
            "--input1", a, "--input2", b,
            "--tau", "0.2", "--rule", "hard",
            "--out-csv", str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variable", "count"]
    assert len(rows) == 4
    counts = [int(r[1]) for r in rows[1:]]
    assert counts == sorted(counts, reverse=True)
    assert {r[0] for r in rows[1:]} == {"g1", "g2", "g3"}


def test_support_rank_on_pooled_labeled_csv(tmp_path, capsys):
    # three-grade labeled file, two grades pooled against the third
    rng = np.random.default_rng(11)
    names = ["grade"] + [f"gene{i}" for i in range(6)]
    rows = []
    for label, count in (("good", 15), ("intermediate", 12), ("poor", 18)):
        block = rng.standard_normal((count, 6))
        if label == "poor":
            block[:, 1] = block[:, 0] * 0.9 + 0.3 * block[:, 1]  # rewire one pair
        rows.extend([label] + obs.tolist() for obs in block)
    rng.shuffle(rows)
    path = _write_csv(tmp_path / "grades.csv", names, rows)

    out = tmp_path / "rank.csv"
    code = main(
        [
            "support-rank",
            "--input", path, "--label-column", "grade",
            "--groups", "good+intermediate:poor",
            "--tau", "0.9", "--rule", "adaptive-lasso",
            "--out-csv", str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["variable", "count"]
    assert len(table) == 7
    counts = [int(r[1]) for r in table[1:]]
    assert counts == sorted(counts, reverse=True)
    assert {r[0] for r in table[1:]} == {f"gene{i}" for i in range(6)}


def test_simulate_csv_row_count(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        [
            "simulate",
            "--model", "2", "--p", "20", "--n", "30", "--reps", "3",
            "--cv-grid", "10",
            "--seed", "4",
            "--out-csv", str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    # header + (3 rule-dependent estimators x 2 rules + 1 rule-free) x 3 norms
    assert rows[0] == ["model", "p", "n1", "n2", "estimator", "rule", "norm", "mean", "sd", "reps"]
    assert len(rows) == 1 + (3 * 2 + 1) * 3
    table = capsys.readouterr().out
    assert "diff-corr" in table and "sample-diff" in table


def test_simulate_requires_sizes(capsys):
    assert main(["simulate", "--model", "2", "--p", "10"]) == 2


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["simulate", "--model", "1", "--p", "10", "--n", "20", "--reps", "2", "--rules", ""], "--rules"),
        (["simulate", "--model", "1", "--p", "10", "--n", "20", "--reps", "2", "--rules", ","], "--rules"),
        (["simulate", "--model", "1", "--p", "10", "--n", "20", "--reps", "2", "--estimators", ""], "--estimators"),
        (["test-equality", "--top-k", "-3"], "top-k must be >= 0"),
        (["support-rank", "--tau", "1.0", "--top-k", "-1"], "top-k must be >= 0"),
        (["estimate-diff-corr", "--eta", "nan"], "exponent must be >= 1, got nan"),
        (["cv", "--split", "1"], "split index applies only to cross-corr"),
        (["cv", "--estimator", "single-corr", "--split", "1"], "split index applies only to cross-corr"),
        (["estimate-corr", "--tau", "1.0", "--input", "nope.csv"], "No such file or directory: nope.csv"),
        (["estimate-corr", "--tau", "1.0", "--input", "{tmp}"], "Is a directory: {tmp}"),
        (
            ["estimate-diff-corr", "--tau", "1.0", "--out-json", "{tmp}/missing/x.json"],
            "No such file or directory: {tmp}/missing/x.json",
        ),
        (["estimate-corr", "--tau", "1.0", "--input", "{tmp}/latin1.csv"], "latin1.csv: not valid UTF-8"),
        (
            ["test-equality", "--out-json", "{tmp}/missing/x.json"],
            "No such file or directory: {tmp}/missing/x.json",
        ),
        (
            ["simulate", "--model", "1", "--p", "10", "--n", "20", "--reps", "2",
             "--out-csv", "{tmp}/missing/x.csv"],
            "No such file or directory: {tmp}/missing/x.csv",
        ),
        (["cv", "--estimator", "cov-threshold"], "estimator 'cov-threshold' needs --input"),
    ],
    ids=[
        "empty-rules", "comma-rules", "empty-estimators", "test-equality-top-k",
        "support-rank-top-k", "nan-eta", "cv-split-diff-corr", "cv-split-single-corr",
        "missing-input", "directory-input", "missing-output-directory", "not-utf8-input",
        "test-equality-missing-output-directory", "simulate-missing-output-directory",
        "cv-single-group-without-input",
    ],
)
def test_user_side_flag_errors_exit_2(tmp_path, sample_files, capsys, argv, message):
    (tmp_path / "latin1.csv").write_bytes(b"a,b\n1,2\n\xff,3\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    message = message.replace("{tmp}", str(tmp_path))
    if "single-corr" in argv:
        argv = argv + ["--input", sample_files[0]]
    elif argv[0] != "simulate" and "--input" not in argv:
        argv = argv + ["--input1", sample_files[0], "--input2", sample_files[1]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "USER" in captured.err and message in captured.err
    assert captured.out == ""
