"""Record what every diffcorr command prints and writes, for byte-identity checks.

Usage:

    PYTHONPATH=path/to/tree/src python tools/cli_snapshot.py OUT_DIR
    python tools/cli_snapshot.py --compare OUT_A OUT_B [--rtol R]

The first form writes seeded input CSVs to OUT_DIR/inputs, then runs
`diffcorr.cli.main` in-process over COMMANDS. Each command runs in its own
directory OUT_DIR/NN-name, which receives its exit code (`exit`), its `stdout`
and `stderr`, and the files it writes. Paths are relative, so two snapshots
taken from different trees compare byte for byte with

    diff -r OUT_A OUT_B

The second form compares two snapshots number by number, for a change that
moves results in their last digits. It prints each differing file with the
largest relative difference among its numeric tokens, and each file that
differs anywhere else (or exists in one snapshot only) with its first
differing line. It exits 1 when any difference is non-numeric or above R
(default 1e-12), else 0.

The commands cover `cv` for every estimator kind and rule, every estimate
command under every rule, `support-rank`, `test-equality`, five `simulate`
cells, user-side settings that must exit 2, CSV inputs in unusual and
malformed layouts, `cv` and a cross-validated `estimate-diff-corr` on
sparse counts, whose fold parts can hold a constant variable, and
`test-equality`, a cross-validated `estimate-diff-corr` and single-corr `cv`
on 0/1/2 codes whose group 1 holds a copied variable, which correlates at
exactly 1 with its original, and a cross-validated `estimate-diff-corr` and
`test-equality` on the two samples scaled by 1e-160 and by 2**500 (SCALED),
at both ends of the float range. The inputs have 12 variables, except for six
cases on WIDE_P variables, whose statistics span more than one row block
(`diffcorr.moments.row_blocks`), so that every consumer of those blocks crosses
a block boundary: `test-equality`, and cross-validated `estimate-diff-corr`,
`estimate-corr`, `estimate-diff-cov` (soft), and `estimate-cross` at split 100
(the fit stops inside block 64:150, cross-validation walks one block 0:100),
and `cv` for cross-corr at split 130 (blocks 0:64 and 64:130). The 68 commands
run in about 1 s on 2 cores. The `simulate` cells share each group's
and each fold part's moments within a replication: one cell scores all three
rules, `simulate-wide` has p = 130 (two row blocks), and `simulate-baselines`
runs only the single-group baselines, whose cross-validations share fold
parts without diff-corr's.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import re
import sys
from pathlib import Path

import numpy as np

RULES = ("hard", "soft", "adaptive-lasso")
KINDS = ("diff-corr", "diff-cov", "cross-corr", "single-corr", "cov-threshold")
ESTIMATES = ("estimate-diff-corr", "estimate-diff-cov", "estimate-corr", "estimate-cross")

TWO_FILES = ["--input1", "../inputs/x1.csv", "--input2", "../inputs/x2.csv"]
WIDE_FILES = ["--input1", "../inputs/wide1.csv", "--input2", "../inputs/wide2.csv"]
WIDE_P = 150  # rows 0:64 and 64:150 of the upper triangle
COUNT_FILES = ["--input1", "../inputs/counts1.csv", "--input2", "../inputs/counts2.csv"]
CODE_FILES = ["--input1", "../inputs/codes1.csv", "--input2", "../inputs/codes2.csv"]
# inputs/NAME1.csv and NAME2.csv are x1.csv and x2.csv times the factor
SCALED = {"tiny": 1e-160, "huge": 2.0**500}
LABELED = ["--input", "../inputs/labeled.csv", "--label-column", "grp", "--groups", "A+B:C"]
ONE_FILE = ["--input", "../inputs/x1.csv"]
# inputs/NAME.csv is x1.csv with its fifth line, file row 5, changed by the function
MALFORMED = {
    "blank-row": lambda line: "",
    "hash-cell": lambda line: "#" + line[line.index(","):],
    "short-row": lambda line: line.rsplit(",", 1)[0],
}


def _inputs_of(command: str, kind: str | None = None) -> list[str]:
    if command == "estimate-corr" or kind in ("single-corr", "cov-threshold"):
        return ONE_FILE
    split = ["--split", "6"] if command == "estimate-cross" or kind == "cross-corr" else []
    return TWO_FILES + split


def _commands() -> list[tuple[str, list[str]]]:
    """(name, argv) pairs; each name is unique and becomes a directory."""
    commands = []
    for kind in KINDS:
        for rule in RULES:
            argv = ["cv", "--estimator", kind, "--rule", rule, *_inputs_of("cv", kind)]
            commands.append((f"cv-{kind}-{rule}", argv + ["--out-json", "cv.json"]))
    for command in ESTIMATES:
        for rule in RULES:
            argv = [command, "--rule", rule, *_inputs_of(command), "--seed", "3"]
            outputs = ["--out-json", "summary.json", "--out-matrix", "estimate.csv"]
            commands.append((f"{command}-{rule}", argv + outputs))
    commands += [
        ("support-rank", ["support-rank", *LABELED, "--top-k", "5", "--out-json", "summary.json",
                          "--out-csv", "ranking.csv", "--out-matrix", "estimate.csv"]),
        ("test-equality", ["test-equality", *TWO_FILES, "--top-k", "5", "--out-json", "test.json"]),
        ("test-equality-wide", ["test-equality", *WIDE_FILES, "--top-k", "5",
                                "--out-json", "test.json"]),
        ("estimate-diff-corr-wide-hard", ["estimate-diff-corr", *WIDE_FILES, "--rule", "hard",
                                          "--seed", "3", "--out-json", "summary.json",
                                          "--out-matrix", "estimate.csv"]),
        # the fit stops inside block 64:150, while cross-validation walks one block 0:100
        ("estimate-cross-wide-hard", ["estimate-cross", *WIDE_FILES, "--split", "100", "--rule",
                                      "hard", "--seed", "3", "--out-json", "summary.json",
                                      "--out-matrix", "estimate.csv"]),
        # cross-validation walks blocks 0:64 and 64:130
        ("cv-cross-corr-wide-hard", ["cv", "--estimator", "cross-corr", *WIDE_FILES, "--split",
                                     "130", "--rule", "hard", "--out-json", "cv.json"]),
        ("estimate-corr-wide-hard", ["estimate-corr", "--input", WIDE_FILES[1], "--rule", "hard",
                                     "--seed", "3", "--out-json", "summary.json",
                                     "--out-matrix", "estimate.csv"]),
        ("estimate-diff-cov-wide-soft", ["estimate-diff-cov", *WIDE_FILES, "--rule", "soft",
                                         "--seed", "3", "--out-json", "summary.json",
                                         "--out-matrix", "estimate.csv"]),
        ("simulate-model1", ["simulate", "--model", "1", "--p", "100", "--n", "50", "--reps", "2",
                             "--seed", "1", "--out-csv", "report.csv"]),
        ("simulate-model2", ["simulate", "--model", "2", "--p", "20", "--n1", "30", "--n2", "40",
                             "--reps", "3", "--rules", "soft,hard",
                             "--estimators", "sample-diff,diff-corr", "--cv-grid", "10",
                             "--out-csv", "report.csv"]),
        # soft and adaptive-lasso at eta 2 next to hard: three rules scored on one set of folds
        ("simulate-three-rules", ["simulate", "--model", "1", "--p", "16", "--n", "30", "--reps",
                                  "2", "--rules", "hard,soft,adaptive-lasso", "--eta", "2",
                                  "--seed", "4", "--out-csv", "report.csv"]),
        ("simulate-wide", ["simulate", "--model", "1", "--p", "130", "--n", "40", "--reps", "2",
                           "--seed", "2", "--out-csv", "report.csv"]),
        ("simulate-baselines", ["simulate", "--model", "1", "--p", "24", "--n", "30", "--reps",
                                "2", "--estimators", "separate-corr,cov-normalize",
                                "--seed", "5", "--out-csv", "report.csv"]),
        # user-side settings: each must exit 2 and name its cause
        ("simulate-too-few-rows", ["simulate", "--model", "2", "--p", "10", "--n", "3", "--reps",
                                   "2", "--estimators", "diff-corr", "--out-csv", "report.csv"]),
        ("simulate-too-many-folds", ["simulate", "--model", "1", "--p", "4", "--n", "10",
                                     "--cv-folds", "10", "--out-csv", "report.csv"]),
        ("ignored-groups", ["estimate-diff-corr", *TWO_FILES, "--tau", "1", "--groups", "A:B"]),
        ("ignored-label-column", ["estimate-diff-corr", *TWO_FILES, "--tau", "1",
                                  "--label-column", "grp"]),
        ("ignored-test-groups", ["test-equality", *TWO_FILES, "--groups", "A:B"]),
        ("ignored-input1", ["cv", "--estimator", "single-corr", *ONE_FILE,
                            "--input1", "../inputs/x2.csv"]),
        ("ignored-labels", ["cv", "--estimator", "single-corr", *ONE_FILE,
                            "--label-column", "grp", "--groups", "A:B"]),
        ("ignored-tau-seed", ["estimate-diff-corr", *TWO_FILES, "--tau", "1", "--seed", "9"]),
        ("ignored-hard-eta", ["estimate-diff-corr", *TWO_FILES, "--rule", "hard", "--eta", "2"]),
        ("ignored-simulate-eta", ["simulate", "--model", "2", "--p", "10", "--n", "20", "--reps",
                                  "2", "--rules", "hard", "--eta", "2"]),
        ("ignored-simulate-n", ["simulate", "--model", "2", "--p", "10", "--n", "20", "--n1", "20",
                                "--n2", "30", "--reps", "2"]),
        ("ignored-test-seed", ["test-equality", *TWO_FILES, "--seed", "3"]),
        ("same-file-outputs", ["estimate-diff-corr", *TWO_FILES, "--tau", "1",
                               "--out-json", "out", "--out-matrix", "out"]),
        # an output naming an input would replace it; the inputs must outlive them
        ("same-file-input-output", ["estimate-diff-corr", *TWO_FILES, "--tau", "1",
                                    "--out-matrix", TWO_FILES[1]]),
        ("same-file-labeled-input-output", ["cv", *LABELED, "--out-json", LABELED[1]]),
        # ingest: a quoted file with a byte order mark, CRLF endings and trailing
        # blank rows is read; a blank middle row, a '#' cell and a short row exit 2
        ("quoted-csv", ["estimate-corr", "--input", "../inputs/quoted.csv", "--seed", "3",
                        "--out-json", "summary.json", "--out-matrix", "estimate.csv"]),
        *((f"bad-csv-{name}", ["estimate-corr", "--input", f"../inputs/{name}.csv", "--tau", "1"])
          for name in MALFORMED),
        # sparse counts: some fold parts hold a constant variable, which drops
        # out of that split's loss with one warning line
        ("cv-sparse-counts", ["cv", *COUNT_FILES, "--out-json", "cv.json"]),
        ("estimate-diff-corr-sparse-counts", ["estimate-diff-corr", *COUNT_FILES, "--seed", "3",
                                              "--out-json", "summary.json",
                                              "--out-matrix", "estimate.csv"]),
        # 0/1/2 codes with a copy in group 1: it correlates at exactly 1 there,
        # and the test divides by group 2's nonzero variance of the pair
        ("test-equality-codes", ["test-equality", *CODE_FILES, "--top-k", "5",
                                 "--out-json", "test.json"]),
        ("estimate-diff-corr-codes", ["estimate-diff-corr", *CODE_FILES, "--seed", "3",
                                      "--out-json", "summary.json",
                                      "--out-matrix", "estimate.csv"]),
        ("cv-single-corr-codes", ["cv", "--estimator", "single-corr", "--input",
                                  "../inputs/codes1.csv", "--out-json", "cv.json"]),
    ]
    # both ends of the float range: the squares of the tiny inputs are subnormal
    for name in SCALED:
        files = ["--input1", f"../inputs/{name}1.csv", "--input2", f"../inputs/{name}2.csv"]
        commands += [
            (f"estimate-diff-corr-{name}", ["estimate-diff-corr", *files, "--seed", "3",
                                            "--out-json", "summary.json",
                                            "--out-matrix", "estimate.csv"]),
            (f"test-equality-{name}", ["test-equality", *files, "--top-k", "5",
                                       "--out-json", "test.json"]),
        ]
    return commands


COMMANDS = _commands()


def _correlated_pair(seed: int, p: int, n1: int, n2: int) -> list[np.ndarray]:
    """Two correlated Gaussian samples whose first two variables' correlation differs."""
    rng = np.random.default_rng(seed)
    mix = np.eye(p) + 0.4 * (rng.random((p, p)) < 0.2)
    samples = [rng.standard_normal((n, p)) @ mix for n in (n1, n2)]
    samples[1][:, 1] += 0.8 * samples[1][:, 0]
    return samples


def write_inputs(directory: Path, p: int = 12, n1: int = 60, n2: int = 70) -> None:
    """Two correlated Gaussian samples with a shared header, and the same rows
    as one labeled CSV whose labels A and B pool into group 1 and C is group 2;
    then group 1 quoted throughout, group 1 with each fault of MALFORMED, a
    pair of samples on WIDE_P variables, a pair of sparse Poisson(0.2)
    count samples in which every variable varies, a pair of 0/1/2 code
    samples whose group 1 has v7 planted as a copy of v2, and the two samples
    times each factor of SCALED."""
    directory.mkdir(parents=True, exist_ok=True)
    header = [f"v{i}" for i in range(p)]
    samples = _correlated_pair(20141, p, n1, n2)
    for name, x in zip(("x1.csv", "x2.csv"), samples):
        _write_csv(directory / name, header, x.tolist())
    for name, factor in SCALED.items():
        for k, x in enumerate(samples, 1):
            _write_csv(directory / f"{name}{k}.csv", header, (x * factor).tolist())
    wide = _correlated_pair(20142, WIDE_P, n1, n2)
    for name, x in zip(("wide1.csv", "wide2.csv"), wide):
        _write_csv(directory / name, [f"v{i}" for i in range(WIDE_P)], x.tolist())
    counts = np.random.default_rng(20143).poisson(0.2, (2 * n1, p))
    for name, x in zip(("counts1.csv", "counts2.csv"), (counts[:n1], counts[n1:])):
        _write_csv(directory / name, header, x.tolist())
    codes = np.random.default_rng(20144).integers(0, 3, (n1 + n2, p))
    codes[:n1, 7] = codes[:n1, 2]
    for name, x in zip(("codes1.csv", "codes2.csv"), (codes[:n1], codes[n1:])):
        _write_csv(directory / name, header, x.tolist())
    labels = ["A" if i % 2 else "B" for i in range(n1)] + ["C"] * n2
    rows = [[label, *row] for label, row in zip(labels, np.vstack(samples).tolist())]
    _write_csv(directory / "labeled.csv", ["grp", *header], rows)
    quoted = io.StringIO()
    csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows([header, *samples[0].tolist()])
    text = quoted.getvalue() + ",,\r\n\r\n"
    (directory / "quoted.csv").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for name, fault in MALFORMED.items():
        lines = (directory / "x1.csv").read_text(encoding="utf-8").splitlines()
        lines[4] = fault(lines[4])
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_one(main, directory: Path, argv: list[str]) -> None:
    directory.mkdir()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
    finally:
        os.chdir(cwd)
    (directory / "exit").write_text(f"{code}\n")
    (directory / "stdout").write_text(out.getvalue(), encoding="utf-8")
    (directory / "stderr").write_text(err.getvalue(), encoding="utf-8")


# a decimal number, signed, with optional fraction and exponent
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numeric_difference(a: str, b: str) -> float | None:
    """Largest relative difference between the numeric tokens of two texts,
    or None when they differ anywhere else. A zero against a zero of the other
    sign is infinitely far: the CSV writer writes -0 only for a negative zero."""
    if _NUMBER.split(a) != _NUMBER.split(b):
        return None
    worst = 0.0
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if x != y:
            fx, fy = float(x), float(y)
            scale = max(abs(fx), abs(fy))
            if scale:
                worst = max(worst, abs(fx - fy) / scale)
            elif np.signbit(fx) != np.signbit(fy):
                worst = np.inf
    return worst


def _first_differing_line(a: str, b: str) -> str:
    pairs = zip(a.splitlines() + [""], b.splitlines() + [""])
    differ = ((x, y) for x, y in pairs if _NUMBER.split(x) != _NUMBER.split(y))
    line_a, line_b = next(differ, ("(line endings differ)", ""))
    return f"  < {line_a}\n  > {line_b}"


def compare(root_a: Path, root_b: Path, rtol: float) -> int:
    """Print every file that differs between two snapshots; 1 when any
    difference is non-numeric or above rtol."""
    tree_a, tree_b = ({p.relative_to(root) for p in root.rglob("*") if p.is_file()}
                      for root in (root_a, root_b))
    failed = bool(tree_a ^ tree_b)
    for name in sorted(tree_a ^ tree_b):
        print(f"{name}: only in {root_a if name in tree_a else root_b}")
    for name in sorted(tree_a & tree_b):
        a, b = ((root / name).read_text(encoding="utf-8") for root in (root_a, root_b))
        if a == b:
            continue
        worst = numeric_difference(a, b)
        if worst is None:
            print(f"{name}: non-numeric difference\n{_first_differing_line(a, b)}")
        else:
            above = f" (above {rtol:g})" if worst > rtol else ""
            print(f"{name}: numeric, largest relative difference {worst:.3g}{above}")
        failed |= worst is None or worst > rtol
    return int(failed)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="cli_snapshot.py", description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", type=Path, help="write a snapshot here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OUT_A", "OUT_B"),
                        help="compare two snapshots number by number")
    parser.add_argument("--rtol", type=float, default=1e-12,
                        help="largest relative difference --compare accepts (default 1e-12)")
    args = parser.parse_args(argv)
    if (args.out_dir is None) == (args.compare is None):
        parser.error("give either OUT_DIR or --compare OUT_A OUT_B")
    if args.compare:
        return compare(*args.compare, args.rtol)
    from diffcorr.cli import main as diffcorr_main

    root = args.out_dir
    if root.exists() and any(root.iterdir()):
        print(f"{root} exists and is not empty", file=sys.stderr)
        return 2
    write_inputs(root / "inputs")
    for index, (name, command) in enumerate(COMMANDS):
        run_one(diffcorr_main, root / f"{index:02d}-{name}", command)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
