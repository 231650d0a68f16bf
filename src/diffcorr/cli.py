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

import numpy as np

from .crossval import (
    SINGLE_GROUP_KINDS,
    TWO_GROUP_KINDS,
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
from .thresholding import RULE_NAMES, ThresholdRule

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


def _add_cv_flags(sub):
    sub.add_argument("--cv-folds", type=int, default=None, help="K in K-fold CV (default 5)")
    sub.add_argument("--cv-repeats", type=int, default=None, help="number of random splits (default 5)")
    sub.add_argument("--cv-grid", type=int, default=None, help="grid resolution N for {0, 1/N, ..., 5} (default 50)")
    sub.add_argument("--seed", type=int, default=0)


def _cv_config(args, rule) -> CvConfig:
    explicit = [
        name
        for name, value in (
            ("--cv-folds", args.cv_folds),
            ("--cv-repeats", args.cv_repeats),
            ("--cv-grid", args.cv_grid),
        )
        if value is not None
    ]
    if getattr(args, "tau", None) is not None and explicit:
        raise ValidationError(
            f"--tau fixes the constant; {', '.join(explicit)} would be ignored"
        )
    return CvConfig(
        k_folds=args.cv_folds if args.cv_folds is not None else 5,
        h_repeats=args.cv_repeats if args.cv_repeats is not None else 5,
        grid_n=args.cv_grid if args.cv_grid is not None else 50,
        seed=args.seed,
        rule=rule,
    )


def _norm_summary(est: DifferentialEstimate) -> dict:
    m = est.estimate
    l1 = matrix_l1_norm(m.T) if not est.is_square else matrix_l1_norm(m)
    return {
        "spectral": spectral_norm(m),
        "l1": l1,
        "frobenius": frobenius_norm(m),
    }


def _cv_summary(cv) -> dict | list | None:
    if cv is None:
        return None
    if isinstance(cv, tuple):
        return [_cv_summary(item) for item in cv]
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


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_estimate(args, command, est: DifferentialEstimate, extra=None) -> None:
    if args.out_matrix:
        write_matrix_csv(args.out_matrix, est.estimate, est.row_labels, est.col_labels)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "rule": est.rule.kind if est.rule else None,
        "eta": est.rule.eta if est.rule else None,
        "tau": list(est.tau) if isinstance(est.tau, tuple) else est.tau,
        "seed": args.seed,
        "shape": list(est.estimate.shape),
        "nonzero_count": est.nonzero_count(),
        "norms": _norm_summary(est),
        "cv": _cv_summary(est.cv),
    }
    if extra:
        payload.update(extra)
    if args.out_json:
        _write_json(args.out_json, payload)
    tau_repr = payload["tau"]
    print(f"{command}: tau={tau_repr} nonzero={payload['nonzero_count']}")
    _warn_at_grid_edge(est.cv)


def _rule(args) -> ThresholdRule:
    return ThresholdRule(args.rule, args.eta)


def _cmd_estimate_diff_corr(args) -> int:
    ds = ingest_two_group(args.input1, args.input2, args.input, args.label_column, args.groups)
    rule = _rule(args)
    est = estimate_diff_corr(ds, args.tau, rule, _cv_config(args, rule))
    _emit_estimate(args, "estimate-diff-corr", est)
    return 0


def _cmd_estimate_corr(args) -> int:
    x = read_sample_csv(args.input)
    rule = _rule(args)
    est = estimate_single_corr(x, args.tau, rule, _cv_config(args, rule))
    _emit_estimate(args, "estimate-corr", est)
    return 0


def _cmd_estimate_diff_cov(args) -> int:
    ds = ingest_two_group(args.input1, args.input2, args.input, args.label_column, args.groups)
    rule = _rule(args)
    est = estimate_diff_cov(ds, args.tau, rule, _cv_config(args, rule))
    _emit_estimate(args, "estimate-diff-cov", est)
    return 0


def _cmd_estimate_cross(args) -> int:
    ds = ingest_two_group(args.input1, args.input2, args.input, args.label_column, args.groups)
    rule = _rule(args)
    est = estimate_cross_corr(ds, args.split, args.tau, rule, _cv_config(args, rule))
    _emit_estimate(args, "estimate-cross", est, extra={"split": args.split})
    return 0


def _cmd_support_rank(args) -> int:
    if args.top_k < 0:
        raise ValidationError(f"--top-k must be >= 0, got {args.top_k}")
    ds = ingest_two_group(args.input1, args.input2, args.input, args.label_column, args.groups)
    rule = _rule(args)
    est = estimate_diff_corr(ds, args.tau, rule, _cv_config(args, rule))
    ranking = support_ranking(est)
    if args.out_csv:
        with open(args.out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variable", "count"])
            writer.writerows(ranking)
    extra = {"ranking": [[label, count] for label, count in ranking]}
    _emit_estimate(args, "support-rank", est, extra=extra)
    for label, count in ranking[: args.top_k]:
        print(f"{label}\t{count}")
    return 0


def _cmd_test_equality(args) -> int:
    ds = ingest_two_group(args.input1, args.input2, args.input, args.label_column, args.groups)
    result = test_equality(ds, args.alpha)
    pairs = result.top_pairs(args.top_k)
    decision = "reject" if result.reject else "accept"
    print(f"t_n = {result.t_n:.6g}")
    print(f"p-value = {result.p_value:.6g}")
    print(f"decision at alpha={result.alpha:g}: {decision} equality")
    print(f"top {args.top_k} pairs:")
    for name_i, name_j, value in pairs:
        print(f"  {name_i}\t{name_j}\t{value:.6g}")
    if args.out_json:
        _write_json(
            args.out_json,
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
    args.tau = None
    cfg = _cv_config(args, rule)
    if args.estimator in TWO_GROUP_KINDS:
        ds = ingest_two_group(args.input1, args.input2, args.input, args.label_column, args.groups)
        result = cv_select_tau(ds, cfg, args.estimator, split=args.split)
    elif args.estimator in SINGLE_GROUP_KINDS:
        if args.input is None:
            raise ValidationError(f"estimator {args.estimator!r} needs --input")
        if args.split is not None:
            raise ValidationError(f"a split index applies only to cross-corr, not {args.estimator!r}")
        result = cv_select_tau_single(read_sample_csv(args.input), cfg, args.estimator)
    else:
        raise ValidationError(f"unknown estimator kind {args.estimator!r}")
    print(f"tau_hat = {result.tau_hat:g} (over {len(result.grid)} grid points)")
    _warn_at_grid_edge(result)
    if args.out_json:
        _write_json(
            args.out_json,
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
    if args.p is None or n1 is None or n2 is None:
        raise ValidationError("simulate needs --p and --n (or --n1/--n2)")
    rules = [ThresholdRule(name, args.eta) for name in args.rules.split(",") if name]
    estimators = [name for name in args.estimators.split(",") if name]
    if not rules or not estimators:
        raise ValidationError("--rules and --estimators each need at least one name")
    args.tau = None
    cfg = _cv_config(args, rules[0])
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
    if args.out_csv:
        report.write_csv(args.out_csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcorr",
        description="Adaptive thresholding estimation and testing of differential correlation matrices",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler in (
        ("estimate-diff-corr", _cmd_estimate_diff_corr),
        ("estimate-diff-cov", _cmd_estimate_diff_cov),
    ):
        sub = commands.add_parser(name)
        _add_two_group_flags(sub)
        _add_estimation_flags(sub)
        sub.set_defaults(handler=handler)

    sub = commands.add_parser("estimate-corr")
    sub.add_argument("--input", required=True, help="observations CSV")
    _add_estimation_flags(sub)
    sub.set_defaults(handler=_cmd_estimate_corr)

    sub = commands.add_parser("estimate-cross")
    _add_two_group_flags(sub)
    sub.add_argument("--split", type=int, required=True, help="first block size p1")
    _add_estimation_flags(sub)
    sub.set_defaults(handler=_cmd_estimate_cross)

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
        choices=TWO_GROUP_KINDS + SINGLE_GROUP_KINDS,
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
    except Exception as exc:  # solver or library failure
        print(f"error [INTERNAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_CODES["INTERNAL"]


if __name__ == "__main__":
    sys.exit(main())
