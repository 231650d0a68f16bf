"""Command line entry point.

Commands: estimate-diff-corr, estimate-corr, estimate-diff-cov,
estimate-cross, test-equality, cv, simulate, support-rank. Estimates are
written as labeled matrix CSVs, summaries as JSON (schema_version 1, no
timestamps, byte-identical for identical config, seed and BLAS thread
count). main opens every --out-* file as UTF-8 before a command reads its
inputs; the command handlers only compute and write.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import math
import os
import sys

from .crossval import CvConfig, cv_select_tau, cv_select_tau_single
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
from .simulation import DEFAULT_RULES, ESTIMATOR_NAMES, run_benchmark
from .thresholding import DEFAULT_RULE, KINDS, RULE_NAMES, ThresholdRule, check_split

SCHEMA_VERSION = 1
_EXIT_CODES = {"USER": 2, "DATA": 3, "INTERNAL": 4}
# stdout's reader went away early (`diffcorr ... | head`); 128 + SIGPIPE, the
# status a shell reports for a writer stopped by a closed pipe
_EXIT_BROKEN_PIPE = 141


def _reject_ignored(reason, **flags) -> None:
    """Fail on each flag that was given although the command would ignore it."""
    if given := [f"--{name.replace('_', '-')}" for name, value in flags.items() if value is not None]:
        raise ValidationError(f"{reason}; {', '.join(given)} would be ignored")


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
    _reject_ignored("no labeled --input", label_column=label_column, groups=groups)
    if input1 is None or input2 is None:
        raise ValidationError("provide --input1 and --input2, or --input with --label-column")
    return TwoGroupDataset(read_sample_csv(input1), read_sample_csv(input2))


def _ingest(args, kind):
    """Two-group kinds read --input1/--input2 or a labeled --input, the others --input."""
    if KINDS[kind].two_group:
        return ingest_two_group(args.input1, args.input2, args.input, args.label_column, args.groups)
    if args.input is None:
        raise ValidationError(f"estimator {kind!r} needs --input")
    ignored = {name: getattr(args, name, None) for name in ("input1", "input2", "label_column", "groups")}
    _reject_ignored(f"estimator {kind!r} reads one --input", **ignored)
    return read_sample_csv(args.input)


def _add_two_group_flags(sub):
    sub.add_argument("--input1", help="CSV for group 1")
    sub.add_argument("--input2", help="CSV for group 2")
    sub.add_argument("--input", help="single labeled CSV")
    sub.add_argument("--label-column", help="group column name in the labeled CSV")
    sub.add_argument("--groups", help='group mapping like "A+B:C" for the labeled CSV')


def _add_rule_flags(sub):
    sub.add_argument("--rule", choices=RULE_NAMES, default=DEFAULT_RULE.kind)
    sub.add_argument("--eta", type=float, help="adaptive-lasso exponent")


def _rules(names, eta) -> list[ThresholdRule]:
    """One rule per name; --eta sets the adaptive-lasso exponent, which must be
    finite, so it fails when no rule named is adaptive-lasso."""
    rules = [ThresholdRule(name) if eta is None else ThresholdRule(name, eta) for name in names]
    if eta is not None and not math.isfinite(eta):  # a rule takes inf; JSON has no Infinity
        raise ValidationError(f"--eta must be finite, got {eta}")
    if all(rule.kind != "adaptive-lasso" for rule in rules):
        _reject_ignored("only adaptive-lasso has an exponent", eta=eta)
    return rules


def _add_estimation_flags(sub):
    sub.add_argument("--tau", type=float, default=None, help="fixed thresholding constant (skips CV)")
    _add_rule_flags(sub)
    _add_cv_flags(sub)
    sub.add_argument("--out-matrix", help="write the estimate as a labeled CSV")
    sub.add_argument("--out-json", help="write the JSON summary")


# each CV flag, the CvConfig field it sets and its help text
_CV_FLAGS = (
    ("--cv-folds", "k_folds", "K in K-fold CV"),
    ("--cv-repeats", "h_repeats", "number of random splits"),
    ("--cv-grid", "grid_n", "grid resolution N for {0, 1/N, ..., 5}"),
    ("--seed", "seed", "random seed"),
)


def _add_cv_flags(sub):
    for flag, field, text in _CV_FLAGS:
        sub.add_argument(flag, type=int, dest=field, help=f"{text} (default {getattr(CvConfig, field)})")


def _cv_config(args) -> CvConfig:
    given = {flag: field for flag, field, _ in _CV_FLAGS if getattr(args, field) is not None}
    if getattr(args, "tau", None) is not None and given:
        raise ValidationError(f"--tau fixes the constant; {', '.join(given)} would be ignored")
    return CvConfig(**{field: getattr(args, field) for field in given.values()})


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


def _warn_of_cv(cv) -> None:
    """One stderr line when cross-validation selected the first or last grid
    point, where the true minimiser may lie outside the grid, and one when it
    left variables out of some split's loss."""
    if cv is not None and cv.tau_hat in (cv.grid[0], cv.grid[-1]):
        print(
            f"warning: cross-validated tau = {cv.tau_hat:g} is at the edge of the "
            f"grid [{cv.grid[0]:g}, {cv.grid[-1]:g}]; the grid may be too narrow",
            file=sys.stderr,
        )
    if cv is not None and cv.left_out:
        print(f"warning: cross-validation left out {cv.left_out} variables summed over "
              f"{cv.splits_used} repetitions, each constant (or of a variance that is not "
              "finite) in some fold part", file=sys.stderr)


def _output_paths(args) -> dict[str, str | None]:
    """Every --out-* path of the command, by flag name without its "out_".
    Fails when a given output names the same regular file (symlinks resolved)
    as an input or another output, which the run would replace; two inputs
    may share a file, and a device such as /dev/stdout may take several
    outputs."""
    outputs = {name: path for name, path in vars(args).items() if name.startswith("out_")}
    seen = {}
    for name in ("input1", "input2", "input", *outputs):
        path = getattr(args, name, None)
        if path and (os.path.isfile(path) or not os.path.exists(path)):
            target, given = os.path.realpath(path), f"--{name.replace('_', '-')} {path}"
            if name in outputs and target in seen:
                raise ValidationError(f"{seen[target]} and {given} name the same file")
            seen.setdefault(target, given)
    return {name.removeprefix("out_"): path for name, path in outputs.items()}


@contextlib.contextmanager
def _open_output(path):
    """Open an optional output as UTF-8 text with newline="", whatever the
    locale, before the work, so a bad path fails before any work. A regular
    file is written beside its target and renamed over it only when the block
    succeeds; on any failure the partial file is removed and an earlier file
    at path stays as it was. A directory fails and a device or pipe (such as
    /dev/stdout) is written in place, as open() does."""
    if not path:
        yield None
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
        return
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    target = os.path.realpath(path)  # a symlink stays a link to the new file
    head, tail = os.path.split(target)
    partial = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.partial")
    try:
        # O_EXCL never reuses an existing file; mode 0o666 less the umask, as open() gives
        fd = os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None  # name the path given
    try:
        with open(fd, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(partial)
        raise


def _check_top_k(top_k: int) -> None:
    if top_k < 0:
        raise ValidationError(f"--top-k must be >= 0, got {top_k}")


def _write_json(args, out, **fields) -> None:
    """The JSON summary under its schema version and command, if --out-json was given."""
    if out.json is not None:
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **fields}
        json.dump(payload, out.json, indent=2, sort_keys=True)
        out.json.write("\n")


def _emit_estimate(args, out, est: DifferentialEstimate, seed, **extra) -> None:
    if out.matrix is not None:
        write_matrix_csv(out.matrix, est.estimate, est.row_labels, est.col_labels)
    nonzero = est.nonzero_count()
    if out.json is not None:  # the norms are for the summary only
        _write_json(
            args, out, rule=est.rule.kind, eta=est.rule.eta, tau=est.tau, seed=seed,
            shape=list(est.estimate.shape), nonzero_count=nonzero, norms=_norm_summary(est),
            cv=_cv_summary(est.cv), **extra,
        )
    print(f"{args.command}: tau={est.tau} nonzero={nonzero}")
    _warn_of_cv(est.cv)


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


def _estimate(args, kind, rule, cfg) -> DifferentialEstimate:
    data = _ingest(args, kind)
    if KINDS[kind].cross_block:
        return estimate_cross_corr(data, args.split, args.tau, rule, cfg)
    return _ESTIMATORS[kind](data, args.tau, rule, cfg)


def _cmd_estimate(args, out) -> None:
    (rule,), cfg = _rules([args.rule], args.eta), _cv_config(args)
    extra = {"split": args.split} if KINDS[args.kind].cross_block else {}
    _emit_estimate(args, out, _estimate(args, args.kind, rule, cfg), cfg.seed, **extra)


def _cmd_support_rank(args, out) -> None:
    _check_top_k(args.top_k)
    (rule,), cfg = _rules([args.rule], args.eta), _cv_config(args)
    est = _estimate(args, "diff-corr", rule, cfg)
    ranking = support_ranking(est)
    if out.csv is not None:
        writer = csv.writer(out.csv)
        writer.writerow(["variable", "count"])
        writer.writerows(ranking)
    _emit_estimate(args, out, est, cfg.seed, ranking=[[label, count] for label, count in ranking])
    for label, count in ranking[: args.top_k]:
        print(f"{label}\t{count}")


def _cmd_test_equality(args, out) -> None:
    _check_top_k(args.top_k)
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
    test = {
        "t_n": result.t_n,
        "centered": result.centered,
        "p_value": result.p_value,
        "alpha": result.alpha,
        "reject": result.reject,
        "tau_alpha": result.tau_alpha,
        "top_pairs": [list(t) for t in pairs],
    }
    _write_json(args, out, test=test)


def _cmd_cv(args, out) -> None:
    (rule,), cfg = _rules([args.rule], args.eta), _cv_config(args)
    data = _ingest(args, args.estimator)
    check_split(args.estimator, args.split, data.p)
    if KINDS[args.estimator].two_group:
        result = cv_select_tau(data, cfg, args.estimator, args.split, rule)
    else:
        result = cv_select_tau_single(data, cfg, args.estimator, rule)
    print(f"tau_hat = {result.tau_hat:g} (over {len(result.grid)} grid points)")
    _warn_of_cv(result)
    _write_json(
        args, out, estimator=args.estimator, rule=rule.kind, eta=rule.eta, seed=cfg.seed,
        cv=_cv_summary(result),
    )


def _cmd_simulate(args, out) -> None:
    if args.n1 is not None and args.n2 is not None:
        _reject_ignored("--n1 and --n2 set both group sizes", n=args.n)
    n1 = args.n1 if args.n1 is not None else args.n
    n2 = args.n2 if args.n2 is not None else args.n
    if n1 is None or n2 is None:
        raise ValidationError("simulate needs --p and --n (or --n1/--n2)")
    rules = _rules([name for name in args.rules.split(",") if name], args.eta)
    estimators = [name for name in args.estimators.split(",") if name]
    if not rules or not estimators:
        raise ValidationError("--rules and --estimators each need at least one name")
    report = run_benchmark(
        f"model{args.model}", args.p, n1, n2, args.reps, rules, estimators, _cv_config(args)
    )
    print(report.format_table())
    if out.csv is not None:
        report.write_csv(out.csv)


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
    _add_rule_flags(sub)
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
    sub.add_argument("--rules", default=",".join(DEFAULT_RULES))
    sub.add_argument("--eta", type=float, help="adaptive-lasso exponent")
    sub.add_argument("--estimators", default=",".join(ESTIMATOR_NAMES))
    _add_cv_flags(sub)
    sub.add_argument("--out-csv", help="write the report CSV")
    sub.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every output is opened before the handler reads an input, and is
        # kept only when the handler returns
        with contextlib.ExitStack() as stack:
            out = argparse.Namespace(**{
                name: stack.enter_context(_open_output(path)) for name, path in _output_paths(args).items()
            })
            args.handler(args, out)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return 0
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
