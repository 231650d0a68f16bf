import argparse
import csv
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import diffcorr
from diffcorr import read_matrix_csv, read_sample_csv
from diffcorr.cli import build_parser, ingest_two_group, main
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


def test_cell_over_the_csv_field_limit_is_a_user_error(tmp_path, capsys):
    # a quoted cell is read by the csv module, whose field limit is 131072 characters
    path = tmp_path / "long.csv"
    path.write_text('a,b\n1,2\n3,"' + "1" * 200000 + '"\n4,5\n')
    assert main(["estimate-corr", "--input", str(path), "--tau", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "USER" in err and "field larger than field limit" in err and "(row 3)" in err


def test_matrix_csv_is_the_bytes_of_formatting_every_cell(tmp_path):
    values = np.array([[0.0, -0.0, 5e-324], [1e308, -1.5, 0.0], [-0.0, 2.5, -5e-324]])
    labels = ("a", "b", "c")
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["", *labels])
    for label, row in zip(labels, values.tolist()):
        writer.writerow([label] + [format(x, ".17g") for x in row])
    path = tmp_path / "m.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        diffcorr.write_matrix_csv(fh, values, labels, labels)
    assert path.read_bytes() == want.getvalue().encode()
    assert b",-0," in path.read_bytes()


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

    with open(rewritten, "w", newline="", encoding="utf-8") as fh:
        write_matrix_csv(fh, reread, ("g1", "g2", "g3"), ("g1", "g2", "g3"))
    assert rewritten.read_bytes() == out1_m.read_bytes()
    summary = json.loads(out1_j.read_text())
    assert summary["cv"]["tau_hat"] == summary["tau"]
    assert len(summary["cv"]["grid"]) == 26


def test_norms_are_computed_only_for_the_json(tmp_path, sample_files, monkeypatch):
    calls = []
    spectral_norm = diffcorr.cli.spectral_norm

    def counted(m):
        calls.append(m.shape)
        return spectral_norm(m)

    monkeypatch.setattr(diffcorr.cli, "spectral_norm", counted)
    a, b = sample_files
    args = ["estimate-diff-corr", "--input1", a, "--input2", b, "--tau", "1"]
    assert main(args + ["--out-matrix", str(tmp_path / "m.csv")]) == 0
    assert calls == []
    out = tmp_path / "summary.json"
    assert main(args + ["--out-json", str(out)]) == 0
    assert calls == [(3, 3)]
    norms = json.loads(out.read_text())["norms"]
    assert norms["spectral"] == spectral_norm(read_matrix_csv(tmp_path / "m.csv")[0])


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


def test_constant_column_with_a_nonzero_computed_variance_exits_3(tmp_path, capsys):
    # the column mean of ten 0.1s is not 0.1, so the variance computed from the
    # centered column is about 1e-34, yet the column is constant: a degenerate
    # variable, named, under every command
    x = np.random.default_rng(3).standard_normal((10, 3))
    x[:, 1] = 0.1
    assert np.square(x - x.mean(axis=0)).sum(axis=0)[1] > 0.0
    path = _write_csv(tmp_path / "x.csv", ["a", "b", "c"], x.tolist())
    inputs = ["--input1", path, "--input2", path]
    for argv in (["estimate-diff-corr", "--tau", "1"], ["estimate-diff-corr"], ["cv"],
                 ["test-equality"]):
        assert main(argv + inputs) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error [DATA]: variable b has a sample variance that is "
                                "not positive and finite\n")


@pytest.mark.parametrize("case", ["scaled-by-1e155", "one-cell-of-1e200"])
def test_overflowing_variance_exits_3_naming_the_variable(tmp_path, capsys, case):
    rng = np.random.default_rng(9)
    x1, x2 = rng.standard_normal((20, 4)), rng.standard_normal((20, 4))
    if case == "scaled-by-1e155":  # every variance overflows
        x1, x2, want = x1 * 1e155, x2 * 1e155, "variable a "
    else:  # only that column's
        x2[3, 2], want = 1e200, "variable c "
    paths = [_write_csv(tmp_path / f"x{k}.csv", ["a", "b", "c", "d"], x.tolist())
             for k, x in ((1, x1), (2, x2))]
    # the test, and the fit and CV without --tau, which check the whole samples first
    for command in ("test-equality", "estimate-diff-corr", "cv"):
        code = main([command, "--input1", paths[0], "--input2", paths[1]])
        captured = capsys.readouterr()
        assert code == 3
        assert "DATA" in captured.err and want in captured.err
        assert captured.out == ""


def test_corr_estimates_and_the_test_do_not_change_with_a_scale_of_1e154(tmp_path, capsys):
    # the squares of data at 1e154 sum past the float range, but each centered
    # column is divided by a power of two before they are summed
    rng = np.random.default_rng(30)
    x1, x2 = rng.standard_normal((60, 8)), rng.standard_normal((50, 8))
    x2[:, 1] += 0.8 * x2[:, 0]
    results = []
    for scale in (1.0, 1e154):
        p1, p2 = (_write_csv(tmp_path / f"x{k}-{scale:g}.csv", [f"v{i}" for i in range(8)],
                             (x * scale).tolist()) for k, x in ((1, x1), (2, x2)))
        runs = {"diff-corr": ["estimate-diff-corr", "--input1", p1, "--input2", p2],
                "single-corr": ["estimate-corr", "--input", p1]}
        result = {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}-{scale:g}"
            assert main(argv + ["--seed", "3", "--out-json", f"{out}.json",
                                "--out-matrix", f"{out}.csv"]) == 0
            result[name] = json.loads(Path(f"{out}.json").read_text())["tau"]
            result[name + "-matrix"] = read_matrix_csv(f"{out}.csv")[0]
        out = tmp_path / f"test-{scale:g}.json"
        assert main(["test-equality", "--input1", p1, "--input2", p2, "--out-json", str(out)]) == 0
        result["t_n"] = json.loads(out.read_text())["test"]["t_n"]
        results.append(result)
        capsys.readouterr()
    plain, scaled = results
    for name in ("diff-corr", "single-corr"):
        assert scaled[name] == plain[name]
        assert np.max(np.abs(scaled[name + "-matrix"] - plain[name + "-matrix"])) <= 1e-12
    assert scaled["t_n"] == pytest.approx(plain["t_n"], rel=1e-12)


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


def test_test_equality_at_a_tiny_alpha(tmp_path, sample_files):
    # 1 - alpha rounds to 1 below alpha of about 1.1e-16; the level is still valid
    a, b = sample_files
    out = tmp_path / "test.json"
    assert main(["test-equality", "--input1", a, "--input2", b, "--alpha", "1e-20",
                 "--out-json", str(out)]) == 0
    test = json.loads(out.read_text())["test"]
    assert test["alpha"] == 1e-20 and test["reject"] is False
    assert test["tau_alpha"] == pytest.approx(88.87923229223259, rel=1e-12)


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


def test_left_out_variables_warn_on_stderr_only(tmp_path, capsys):
    # sparse counts leave variables constant in some fold parts; the JSON
    # holds what it holds for any other data
    rng = np.random.default_rng(1)
    header = [f"g{i}" for i in range(40)]
    a, b = (_write_csv(tmp_path / f"c{k}.csv", header, rng.poisson(0.2, (30, 40)).tolist())
            for k in (1, 2))
    out = tmp_path / "cv.json"
    assert main(["cv", "--input1", a, "--input2", b, "--out-json", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("tau_hat = ")
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("warning: cross-validation left out ")
    assert set(json.loads(out.read_text())["cv"]) == {"tau_hat", "repeats", "grid", "losses"}


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


def test_simulate_fails_when_an_estimator_has_no_results(tmp_path, capsys):
    # folds too small for the samples fail every CV fit: the run stops with the
    # fit's own category and message and leaves an earlier report as it was
    out = tmp_path / "r.csv"
    out.write_bytes(b"earlier,report\r\n")
    cases = [
        (["--model", "2", "--p", "10", "--n", "3", "--reps", "2", "--estimators", "diff-corr"],
         "cannot split 3 observations into 5 folds"),
        (["--model", "1", "--p", "4", "--n", "10", "--cv-folds", "10"],
         "cannot split 10 observations into 10 folds"),
    ]
    for flags, message in cases:
        assert main(["simulate", *flags, "--out-csv", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error [USER]: {message}: both parts need at least 2 observations\n"
        assert out.read_bytes() == b"earlier,report\r\n"
        assert set(tmp_path.iterdir()) == {out}


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
        (
            ["estimate-diff-corr", "--out-matrix", "{tmp}/m.csv", "--out-json", "{tmp}/missing/x.json"],
            "No such file or directory: {tmp}/missing/x.json",
        ),
        (["cv", "--out-json", "{tmp}/missing/c.json"], "No such file or directory: {tmp}/missing/c.json"),
        (
            ["support-rank", "--out-matrix", "{tmp}/m.csv", "--out-csv", "{tmp}/missing/r.csv"],
            "No such file or directory: {tmp}/missing/r.csv",
        ),
        (["test-equality", "--alpha", "1.5", "--out-json", "{tmp}/t.json"], "alpha must lie in (0, 1), got 1.5"),
        (["test-equality", "--top-k", "-1", "--out-json", "{tmp}/t.json"], "top-k must be >= 0"),
        (["estimate-diff-corr", "--cv-grid", "100000000000000000000", "--out-json", "{tmp}/e.json"],
         "grid_n must be <= 1000000, got 100000000000000000000"),
        (["simulate", "--model", "1", "--p", "10", "--n", "20", "--reps", "2",
          "--cv-grid", "1000001"], "grid_n must be <= 1000000, got 1000001"),
        (["estimate-diff-corr", "--tau", "1.0", "--out-json", "{tmp}"], "Is a directory: {tmp}"),
        (["estimate-diff-corr", "--tau", "1", "--groups", "A:B"],
         "no labeled --input; --groups would be ignored"),
        (["estimate-diff-corr", "--tau", "1", "--label-column", "grp"],
         "no labeled --input; --label-column would be ignored"),
        (["test-equality", "--groups", "A:B"], "no labeled --input; --groups would be ignored"),
        (["cv", "--estimator", "single-corr", "--input1", "{tmp}/b.csv"],
         "estimator 'single-corr' reads one --input; --input1 would be ignored"),
        (["cv", "--estimator", "single-corr", "--label-column", "grp", "--groups", "A:B"],
         "estimator 'single-corr' reads one --input; --label-column, --groups would be ignored"),
        (["estimate-diff-corr", "--tau", "1", "--seed", "9"], "--tau fixes the constant; --seed would be ignored"),
        (["support-rank", "--tau", "1", "--seed", "9"], "--tau fixes the constant; --seed would be ignored"),
        (["estimate-diff-corr", "--rule", "hard", "--eta", "2"],
         "only adaptive-lasso has an exponent; --eta would be ignored"),
        (["cv", "--rule", "soft", "--eta", "2"], "only adaptive-lasso has an exponent; --eta would be ignored"),
        (["simulate", "--model", "1", "--p", "10", "--n", "20", "--reps", "2", "--rules", "hard,soft",
          "--eta", "2"], "only adaptive-lasso has an exponent; --eta would be ignored"),
        (["simulate", "--model", "1", "--p", "10", "--n", "20", "--n1", "20", "--n2", "30", "--reps", "2"],
         "--n1 and --n2 set both group sizes; --n would be ignored"),
        # a rule takes eta = inf, but the JSON summary could not hold it
        *(([*command, "--eta", "inf"], "--eta must be finite, got inf")
          for command in (["estimate-diff-corr"], ["estimate-diff-cov"],
                          ["estimate-corr", "--input", "{tmp}/missing.csv"],
                          ["estimate-cross", "--split", "1"], ["support-rank"], ["cv"],
                          ["simulate", "--model", "1", "--p", "4", "--n", "10", "--reps", "2"])),
        (["estimate-diff-corr", "--eta", "1e400"], "--eta must be finite, got inf"),
        (["simulate", "--model", "1", "--p", "4", "--n", "-5", "--reps", "2"],
         "need at least 2 observations, got -5"),
        (["simulate", "--model", "1", "--p", "4", "--n1", "10", "--n2", "-1", "--reps", "2"],
         "need at least 2 observations, got -1"),
    ],
    ids=[
        "empty-rules", "comma-rules", "empty-estimators", "test-equality-top-k",
        "support-rank-top-k", "nan-eta", "cv-split-diff-corr", "cv-split-single-corr",
        "missing-input", "directory-input", "missing-output-directory", "not-utf8-input",
        "test-equality-missing-output-directory", "simulate-missing-output-directory",
        "cv-single-group-without-input", "estimate-missing-output-before-cv",
        "cv-missing-output-directory", "support-rank-missing-output-before-cv",
        "test-equality-alpha-before-output", "test-equality-top-k-before-output",
        "huge-cv-grid", "simulate-huge-cv-grid",
        "output-is-a-directory", "ignored-groups", "ignored-label-column",
        "test-equality-ignored-groups", "cv-single-ignored-input1", "cv-single-ignored-labels",
        "ignored-seed-with-tau", "support-rank-ignored-seed-with-tau", "ignored-eta-hard",
        "cv-ignored-eta-soft", "simulate-ignored-eta", "simulate-ignored-n",
        "infinite-eta", "estimate-diff-cov-infinite-eta", "estimate-corr-infinite-eta",
        "estimate-cross-infinite-eta", "support-rank-infinite-eta", "cv-infinite-eta",
        "simulate-infinite-eta", "eta-1e400", "simulate-negative-n", "simulate-negative-n2",
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
    files = set(tmp_path.iterdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "USER" in captured.err and message in captured.err
    assert captured.out == ""
    assert set(tmp_path.iterdir()) == files  # no output, not even an empty one, was left


def test_test_equality_has_no_seed(sample_files, capsys):
    a, b = sample_files
    with pytest.raises(SystemExit) as exc:
        main(["test-equality", "--input1", a, "--input2", b, "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


_TWO_FILES = ["--input1", "{a}", "--input2", "{b}"]


@pytest.mark.parametrize(
    ("argv", "flags"),
    [
        (["estimate-diff-corr", *_TWO_FILES, "--tau", "1", "--out-json", "{tmp}/out",
          "--out-matrix", "{tmp}/out"], ("--out-json", "--out-matrix")),
        (["estimate-diff-corr", *_TWO_FILES, "--tau", "1", "--out-json", "{tmp}/link",
          "--out-matrix", "{tmp}/./out"], ("--out-json", "--out-matrix")),
        (["support-rank", *_TWO_FILES, "--tau", "1", "--out-csv", "{tmp}/out",
          "--out-matrix", "{tmp}/out"], ("--out-csv", "--out-matrix")),
        (["support-rank", *_TWO_FILES, "--tau", "1", "--out-json", "{tmp}/out",
          "--out-csv", "{tmp}/other", "--out-matrix", "{tmp}/link"], ("--out-json", "--out-matrix")),
        (["estimate-diff-corr", *_TWO_FILES, "--tau", "1", "--out-matrix", "{a}"],
         ("--input1", "--out-matrix")),
        (["estimate-diff-corr", *_TWO_FILES, "--tau", "1", "--out-matrix", "{tmp}/a-link"],
         ("--input1", "--out-matrix")),
        (["test-equality", *_TWO_FILES, "--out-json", "{b}"], ("--input2", "--out-json")),
        (["cv", "--input", "{tmp}/labeled.csv", "--label-column", "grp",
          "--out-json", "{tmp}/labeled.csv"], ("--input", "--out-json")),
    ],
    ids=["estimate-same-path", "estimate-symlink", "support-rank-csv-matrix",
         "support-rank-json-symlink", "estimate-matrix-over-input1",
         "estimate-matrix-over-input1-symlink", "test-equality-json-over-input2",
         "cv-json-over-labeled-input"],
)
def test_two_outputs_on_one_file_exit_2(tmp_path, sample_files, capsys, argv, flags):
    # both partial files would be renamed onto the one path, losing an output;
    # an output on an input would replace the observations it came from
    a, b = sample_files
    (tmp_path / "out").write_bytes(b"earlier\n")
    (tmp_path / "link").symlink_to(tmp_path / "out")
    (tmp_path / "a-link").symlink_to(a)
    _write_csv(tmp_path / "labeled.csv", ["grp", "x", "y"],
               [["A" if i % 2 else "B", i, i * i % 7] for i in range(10)])
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    argv = [arg.replace("{tmp}", str(tmp_path)).replace("{a}", a).replace("{b}", b) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error [USER]: ") and "name the same file" in captured.err
    assert all(flag in captured.err for flag in flags)
    assert captured.out == ""
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_two_inputs_may_share_a_file(tmp_path, sample_files):
    a, _ = sample_files
    (tmp_path / "link").symlink_to(a)
    before = Path(a).read_bytes()
    for second in (a, str(tmp_path / "link")):
        argv = ["estimate-diff-corr", "--input1", a, "--input2", second, "--tau", "1",
                "--out-json", str(tmp_path / "e.json")]
        assert main(argv) == 0
        assert json.loads((tmp_path / "e.json").read_text())["nonzero_count"] == 0
    assert Path(a).read_bytes() == before


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    # the locale's encoding would fail on the label; every output is UTF-8
    rng = np.random.default_rng(5)
    header = ["\u03a9a", "b", "c"]
    paths = [_write_csv(tmp_path / f"x{g}.csv", header, rng.standard_normal((10, 3)).tolist())
             for g in (1, 2)]
    env = {key: value for key, value in os.environ.items() if not key.startswith(("LC_", "PYTHON"))}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(Path(diffcorr.__file__).parents[1]))
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "diffcorr.cli", "support-rank", "--input1", paths[0],
         "--input2", paths[1], "--tau", "0", "--top-k", "0", "--out-csv", str(out)],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
    assert rows[0] == ["variable", "count"]
    assert sorted(row[0] for row in rows[1:]) == sorted(header)


def test_a_device_may_take_two_outputs(sample_files, capsys):
    a, b = sample_files
    argv = ["estimate-diff-corr", "--input1", a, "--input2", b, "--tau", "1",
            "--out-json", os.devnull, "--out-matrix", os.devnull]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("estimate-diff-corr: tau=1.0")


@pytest.mark.parametrize(
    ("inputs", "code"),
    [(["--input1", "{tmp}/nope.csv", "--input2", "{b}"], 2),
     (["--input1", "{tmp}/const.csv", "--input2", "{tmp}/const.csv"], 3)],
    ids=["missing-input", "degenerate-data"],
)
def test_failed_run_keeps_earlier_outputs(tmp_path, sample_files, inputs, code):
    a, b = sample_files
    _write_csv(tmp_path / "const.csv", ["a", "b"], [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    out_json, out_matrix = tmp_path / "e.json", tmp_path / "m.csv"
    argv = ["estimate-diff-corr", "--tau", "1", "--out-json", str(out_json),
            "--out-matrix", str(out_matrix)]
    assert main(argv + ["--input1", a, "--input2", b]) == 0
    before = {path: path.read_bytes() for path in (out_json, out_matrix)}
    files = set(tmp_path.iterdir())
    inputs = [arg.replace("{tmp}", str(tmp_path)).replace("{b}", b) for arg in inputs]
    assert main(argv + inputs) == code
    assert {path: path.read_bytes() for path in before} == before
    assert set(tmp_path.iterdir()) == files  # no partial file was left behind


def test_outputs_are_plain_files_with_the_mode_of_open(tmp_path, sample_files):
    a, b = sample_files
    plain = tmp_path / "plain.json"
    plain.open("w").close()
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    argv = ["estimate-diff-corr", "--input1", a, "--input2", b, "--tau", "1"]
    assert main(argv + ["--out-json", str(link), "--out-matrix", str(tmp_path / "m.csv")]) == 0
    assert link.is_symlink() and json.loads(target.read_text())["tau"] == 1.0
    mode = plain.stat().st_mode
    assert (tmp_path / "m.csv").stat().st_mode == mode and target.stat().st_mode == mode


def _cli_snapshot():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"
    snapshot = types.ModuleType("cli_snapshot")
    exec(compile(path.read_text(), str(path), "exec"), vars(snapshot))
    return snapshot


def test_cli_snapshot_runs_every_command(tmp_path):
    # tools/cli_snapshot.py records every command's output for byte-identity
    # checks of a refactor; a subcommand missing from it could change unseen
    snapshot = _cli_snapshot()
    names = [name for name, _ in snapshot.COMMANDS]
    assert len(set(names)) == len(names)
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for _, argv in snapshot.COMMANDS} == set(subcommands.choices)
    assert snapshot.main([str(tmp_path / "snap")]) == 0
    for index, name in enumerate(names):
        want = "2" if name.startswith(("simulate-too", "ignored-", "same-file-", "bad-csv-")) else "0"
        assert (tmp_path / "snap" / f"{index:02d}-{name}" / "exit").read_text() == f"{want}\n", name


def test_cli_snapshot_compares_numbers(tmp_path, capsys):
    snapshot = _cli_snapshot()
    trees = {}
    for name, report in (("base", "a,1.0,2\n"), ("close", "a,1.0000000000001,2\n"),
                         ("far", "a,1.001,2\n"), ("text", "b,1.0,2\n"),
                         ("zero", "a,0,2\n"), ("negzero", "a,-0,2\n")):
        (tmp_path / name / "00-cell").mkdir(parents=True)
        (tmp_path / name / "00-cell" / "report.csv").write_text(report)
        trees[name] = tmp_path / name
    compare = snapshot.compare
    assert compare(trees["base"], trees["base"], 1e-12) == 0
    assert capsys.readouterr().out == ""
    assert compare(trees["base"], trees["close"], 1e-12) == 0
    head, worst = capsys.readouterr().out.rsplit(" ", 1)
    assert head == "00-cell/report.csv: numeric, largest relative difference"
    assert float(worst) == pytest.approx(1e-13, rel=1e-2)
    assert compare(trees["base"], trees["far"], 1e-12) == 1
    assert "(above 1e-12)" in capsys.readouterr().out
    assert compare(trees["base"], trees["far"], 1e-2) == 0
    capsys.readouterr()
    assert compare(trees["zero"], trees["negzero"], 1.0) == 1  # a sign of zero changed
    assert "largest relative difference inf (above 1)" in capsys.readouterr().out
    assert compare(trees["base"], trees["text"], 1.0) == 1
    assert capsys.readouterr().out == (
        "00-cell/report.csv: non-numeric difference\n  < a,1.0,2\n  > b,1.0,2\n"
    )
    (trees["text"] / "00-cell" / "extra").write_text("")
    assert compare(trees["base"], trees["text"], 1.0) == 1
    assert f"00-cell/extra: only in {trees['text']}" in capsys.readouterr().out
    assert snapshot.main(["--compare", str(trees["base"]), str(trees["far"]), "--rtol", "0.01"]) == 0
