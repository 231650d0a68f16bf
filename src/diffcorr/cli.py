"""Command line entry point.

Commands: estimate-diff-corr, estimate-corr, estimate-diff-cov,
estimate-cross, test-equality, cv, simulate, support-rank. Estimates are
written as labeled matrix CSVs, summaries as JSON (schema_version 1, no
timestamps, byte-identical for identical config and seed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from .crossval import (
    CvConfig,
    cv_select_tau,
    cv_select_tau_single,
)
from .dataset import TwoGroupDataset, read_labeled_csv, read_sample_csv, write_matrix_csv
from .equality_test import test_equality
from .errors import DiffCorrError, ValidationError
from .estimators import (
    DifferentialEstimate,
    estimate_cross_corr,
    estimate_diff_corr,
    estimate_diff_cov,
    estimate_single_corr,
    support_ranking,
)
from .norms import frobenius_norm, matrix_l1_norm, spectral_norm
from .simulation import ESTIMATOR_NAMES, run_benchmark
from .thresholding import KINDS, RULE_NAMES, ThresholdRule

SCHEMA_VERSION = 1
_EXIT_CODES = {"USER": 2, "DATA": 3, "INTERNAL": 4}
# stdout's reader went away early (`diffcorr ... | head`); 128 + SIGPIPE, the
# status a shell reports for a writer stopped by a closed pipe
_EXIT_BROKEN_PIPE = 141


def ingest_two_group(
    input1=None, input2=None, input=None, label_column=None, groups=None
) -> TwoGroupDataset:
    """Build a two-group dataset either from two CSV files or from one
    labeled CSV plus a group-column mapping."""
    if input is not None:
        if input1 is not None or input2 is not None:
            raise ValidationError("--input cannot be combined with --input1/--input2")
        if label_column is None:
            raise ValidationError("--input requires --label-column")
        return read_labeled_csv(input, label_column, groups)
    if input1 is None or input2 is None:
        raise ValidationError("provide --input1 and --input2, or --input with --label-column")
    return TwoGroupDataset(read_sample_csv(input1), read_sample_csv(input2))


def _ingest(args, kind):
    """Two-group kinds read --input1/--input2 or a labeled --input, the others --input."""
    if KINDS[kind].two_group:
        return ingest_two_group(args.input1, args.input2, args.input, args.label_column, args.groups)
    if args.input is None:
        raise ValidationError(f"estimator {kind!r} needs --input")
    return read_sample_csv(args.input)


def _add_two_group_flags(sub):
    sub.add_argument("--input1", help="CSV for group 1")
    sub.add_argument("--input2", help="CSV for group 2")
    sub.add_argument("--input", help="single labeled CSV")
    sub.add_argument("--label-column", help="group column name in the labeled CSV")
    sub.add_argument("--groups", help='group mapping like "A+B:C" for the labeled CSV')


def _add_estimation_flags(sub):
    sub.add_argument("--tau", type=float, default=None, help="fixed thresholding constant (skips CV)")
    sub.add_argument("--rule", choices=RULE_NAMES, default="adaptive-lasso")
    sub.add_argument("--eta", type=float, default=4.0, help="adaptive-lasso exponent")
    _add_cv_flags(sub)
    sub.add_argument("--out-matrix", help="write the estimate as a labeled CSV")
    sub.add_argument("--out-json", help="write the JSON summary")


# each CV flag, the CvConfig field it sets and its help text
_CV_FLAGS = (
    ("--cv-folds", "k_folds", "K in K-fold CV"),
    ("--cv-repeats", "h_repeats", "number of random splits"),
    ("--cv-grid", "grid_n", "grid resolution N for {0, 1/N, ..., 5}"),
)


def _add_cv_flags(sub):
    for flag, field, text in _CV_FLAGS:
        sub.add_argument(flag, type=int, dest=field, help=f"{text} (default {getattr(CvConfig, field)})")
    sub.add_argument("--seed", type=int, default=0)


def _cv_config(args, rule) -> CvConfig:
    given = {flag: field for flag, field, _ in _CV_FLAGS if getattr(args, field) is not None}
    if getattr(args, "tau", None) is not None and given:
        raise ValidationError(
            f"--tau fixes the constant; {', '.join(given)} would be ignored"
        )
    fields = {field: getattr(args, field) for field in given.values()}
    return CvConfig(seed=args.seed, rule=rule, **fields)


def _norm_summary(est: DifferentialEstimate) -> dict:
    m = est.estimate
    l1 = matrix_l1_norm(m.T) if not est.is_square else matrix_l1_norm(m)
    return {
        "spectral": spectral_norm(m),
        "l1": l1,
        "frobenius": frobenius_norm(m),
    }


def _cv_summary(cv) -> dict | None:
    if cv is None:
        return None
    return {
        "tau_hat": cv.tau_hat,
        "repeats": cv.splits_used,
        "grid": [float(x) for x in cv.grid],
        "losses": [float(x) for x in cv.losses],
    }


def _warn_at_grid_edge(cv) -> None:
    """One stderr line when cross-validation selected the first or last grid
    point, where the true minimiser may lie outside the grid."""
    if cv is not None and cv.tau_hat in (cv.grid[0], cv.grid[-1]):
        print(
            f"warning: cross-validated tau = {cv.tau_hat:g} is at the edge of the "
            f"grid [{cv.grid[0]:g}, {cv.grid[-1]:g}]; the grid may be too narrow",
            file=sys.stderr,
        )


def _open_output(path, **kwargs):
    """Open an optional output before the work, so a bad path fails before any output."""
    return open(path, "w", **kwargs) if path else contextlib.nullcontext()


def _write_json(fh, payload) -> None:
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _emit_estimate(args, est: DifferentialEstimate, **extra) -> None:
    if args.out_matrix:
        write_matrix_csv(args.out_matrix, est.estimate, est.row_labels, est.col_labels)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "rule": est.rule.kind,
        "eta": est.rule.eta,
        "tau": est.tau,
        "seed": args.seed,
        "shape": list(est.estimate.shape),
        "nonzero_count": est.nonzero_count(),
        "norms": _norm_summary(est),
        "cv": _cv_summary(est.cv),
        **extra,
    }
    if args.out_json:
        with open(args.out_json, "w") as fh:
            _write_json(fh, payload)
    print(f"{args.command}: tau={est.tau} nonzero={payload['nonzero_count']}")
    _warn_at_grid_edge(est.cv)


# each estimate command and the estimator kind it fits
_ESTIMATE_COMMANDS = (
    ("estimate-diff-corr", "diff-corr"),
    ("estimate-diff-cov", "diff-cov"),
    ("estimate-corr", "single-corr"),
    ("estimate-cross", "cross-corr"),
)
_ESTIMATORS = {
    "diff-corr": estimate_diff_corr,
    "diff-cov": estimate_diff_cov,
    "single-corr": estimate_single_corr,
}


def _estimate(args, kind) -> DifferentialEstimate:
    data = _ingest(args, kind)
    rule = ThresholdRule(args.rule, args.eta)
    cfg = _cv_config(args, rule)
    if KINDS[kind].cross_block:
        return estimate_cross_corr(data, args.split, args.tau, rule, cfg)
    return _ESTIMATORS[kind](data, args.tau, rule, cfg)


def _cmd_estimate(args) -> int:
    extra = {"split": args.split} if KINDS[args.kind].cross_block else {}
    _emit_estimate(args, _estimate(args, args.kind), **extra)
    return 0


def _cmd_support_rank(args) -> int:
    if args.top_k < 0:
        raise ValidationError(f"--top-k must be >= 0, got {args.top_k}")
    est = _estimate(args, "diff-corr")
    ranking = support_ranking(est)
    if args.out_csv:
        with open(args.out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variable", "count"])
            writer.writerows(ranking)
    extra = {"ranking": [[label, count] for label, count in ranking]}
    _emit_estimate(args, est, **extra)
    for label, count in ranking[: args.top_k]:
        print(f"{label}\t{count}")
    return 0


def _cmd_test_equality(args) -> int:
    ds = ingest_two_group(args.input1, args.input2, args.input, args.label_column, args.groups)
    with _open_output(args.out_json) as out:
        result = test_equality(ds, args.alpha)
        pairs = result.top_pairs(args.top_k)
        decision = "reject" if result.reject else "accept"
        print(f"t_n = {result.t_n:.6g}")
        print(f"p-value = {result.p_value:.6g}")
        print(f"decision at alpha={result.alpha:g}: {decision} equality")
        print(f"top {args.top_k} pairs:")
        for name_i, name_j, value in pairs:
            print(f"  {name_i}\t{name_j}\t{value:.6g}")
        if out is not None:
            _write_json(
                out,
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "test-equality",
                    "seed": args.seed,
                    "test": {
                        "t_n": result.t_n,
                        "centered": result.centered,
                        "p_value": result.p_value,
                        "alpha": result.alpha,
                        "reject": result.reject,
                        "tau_alpha": result.tau_alpha,
                        "top_pairs": [list(t) for t in pairs],
                    },
                },
            )
    return 0


def _cmd_cv(args) -> int:
    rule = ThresholdRule(args.rule, args.eta)
    cfg = _cv_config(args, rule)
    data = _ingest(args, args.estimator)
    if KINDS[args.estimator].two_group:
        result = cv_select_tau(data, cfg, args.estimator, split=args.split)
    elif args.split is not None:
        raise ValidationError(f"a split index applies only to cross-corr, not {args.estimator!r}")
    else:
        result = cv_select_tau_single(data, cfg, args.estimator)
    print(f"tau_hat = {result.tau_hat:g} (over {len(result.grid)} grid points)")
    _warn_at_grid_edge(result)
    if args.out_json:
        with open(args.out_json, "w") as fh:
            _write_json(
                fh,
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "cv",
                    "estimator": args.estimator,
                    "rule": rule.kind,
                    "eta": rule.eta,
                    "seed": args.seed,
                    "cv": _cv_summary(result),
                },
            )
    return 0


def _cmd_simulate(args) -> int:
    n1 = args.n1 if args.n1 is not None else args.n
    n2 = args.n2 if args.n2 is not None else args.n
    if n1 is None or n2 is None:
        raise ValidationError("simulate needs --p and --n (or --n1/--n2)")
    rules = [ThresholdRule(name, args.eta) for name in args.rules.split(",") if name]
    estimators = [name for name in args.estimators.split(",") if name]
    if not rules or not estimators:
        raise ValidationError("--rules and --estimators each need at least one name")
    cfg = _cv_config(args, rules[0])
    with _open_output(args.out_csv, newline="") as out:
        report = run_benchmark(
            f"model{args.model}",
            [(args.p, n1, n2)],
            args.reps,
            rules,
            estimators,
            seed=args.seed,
            cv=cfg,
        )
        print(report.format_table())
        if report.failures:
            print(f"({len(report.failures)} replication failures)", file=sys.stderr)
        if out is not None:
            report.write_csv(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcorr",
        description="Adaptive thresholding estimation and testing of differential correlation matrices",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for command, kind in _ESTIMATE_COMMANDS:
        sub = commands.add_parser(command)
        if KINDS[kind].two_group:
            _add_two_group_flags(sub)
        else:
            sub.add_argument("--input", required=True, help="observations CSV")
        if KINDS[kind].cross_block:
            sub.add_argument("--split", type=int, required=True, help="first block size p1")
        _add_estimation_flags(sub)
        sub.set_defaults(handler=_cmd_estimate, kind=kind)

    sub = commands.add_parser("support-rank")
    _add_two_group_flags(sub)
    _add_estimation_flags(sub)
    sub.add_argument("--out-csv", help="write the ranked (variable, count) CSV")
    sub.add_argument("--top-k", type=int, default=20)
    sub.set_defaults(handler=_cmd_support_rank)

    sub = commands.add_parser("test-equality")
    _add_two_group_flags(sub)
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--top-k", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-json")
    sub.set_defaults(handler=_cmd_test_equality)

    sub = commands.add_parser("cv")
    _add_two_group_flags(sub)
    sub.add_argument(
        "--estimator",
        default="diff-corr",
        choices=tuple(KINDS),
    )
    sub.add_argument("--split", type=int, default=None, help="block size for cross-corr")
    sub.add_argument("--rule", choices=RULE_NAMES, default="adaptive-lasso")
    sub.add_argument("--eta", type=float, default=4.0)
    _add_cv_flags(sub)
    sub.add_argument("--out-json")
    sub.set_defaults(handler=_cmd_cv)

    sub = commands.add_parser("simulate")
    sub.add_argument("--model", type=int, choices=(1, 2), required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--n", type=int, default=None, help="sets both group sizes")
    sub.add_argument("--n1", type=int, default=None)
    sub.add_argument("--n2", type=int, default=None)
    sub.add_argument("--reps", type=int, default=20)
    sub.add_argument("--rules", default="hard,adaptive-lasso")
    sub.add_argument("--eta", type=float, default=4.0)
    sub.add_argument("--estimators", default=",".join(ESTIMATOR_NAMES))
    _add_cv_flags(sub)
    sub.add_argument("--out-csv", help="write the report CSV")
    sub.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # send what is still buffered to the null device, so the final flush
        # at interpreter exit does not hit the closed pipe again
        with contextlib.suppress(AttributeError, OSError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except DiffCorrError as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 4)
    except OSError as exc:  # a path that cannot be opened, read or written
        print(f"error [USER]: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return _EXIT_CODES["USER"]
    except Exception as exc:  # solver or library failure
        print(f"error [INTERNAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_CODES["INTERNAL"]


if __name__ == "__main__":
    sys.exit(main())
