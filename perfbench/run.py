"""diffcorr benchmark: three CLI workloads, each in its own fresh process.

    python3 perfbench/run.py --workload cv-estimate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation is one in-process call of ``diffcorr.cli.main(argv)`` made by
a single client in a closed loop. Inputs are written from ``--seed`` before
the measured process starts. After the loop every operation's output is
checked (see workloads.py) and a failed check counts as a failed operation.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything is read and written inside the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from layertrace import LAYERS, NESTING  # noqa: E402

SETUP_SAMPLES = 15  # fresh imports per run, after one untimed warm-up import
DEADLINE_S = 170  # the whole run, inputs and checks included
# On a 2-core machine shared with other work, two BLAS threads made each
# operation at most 5% faster but made run-to-run spread larger: a BLAS call
# waits for its slowest thread. One thread keeps the figures steady.
BLAS_THREADS = 1


class BenchError(Exception):
    """The benchmark cannot produce a result; no result line is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DIFFCORR_THREADS", None)  # the program's default: 1
    # setup_s times an import from bytecode caches, as for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], env: dict, deadline: float) -> str:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def check_module(path: str) -> None:
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"diffcorr was imported from {path}, not from {ROOT / 'src'}")


def setup_times(env: dict, deadline: float) -> list[float]:
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        rec = json.loads(run_child(["--setup-only"], env, deadline))
        check_module(rec["module"])
        if k:  # the first import writes bytecode caches
            samples.append(rec["setup_s"])
    return samples


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def check_ops(workload: str, result: dict, inputs: dict, argv: list[str]) -> list[str]:
    """One entry per failed operation; an empty list when all are correct.
    Each distinct output is checked against the reference once, and every
    operation must produce the same output as operation 0."""
    failures, verdicts, first = [], {}, None
    for rec in result["ops"]:
        files = workloads.output_files(argv, rec["op"])
        if rec["rc"] != 0:
            failures.append(f"op {rec['op']}: exit {rec['rc']}: {rec['stderr'].strip()}")
            continue
        try:
            key = workloads.digest(files, rec["stdout"])
        except OSError as exc:
            failures.append(f"op {rec['op']}: {exc}")
            continue
        if key not in verdicts:
            verdicts[key] = workloads.check(workload, files, inputs)
        first = first or key
        problems = list(verdicts[key])
        if key != first:
            problems.append("output differs from operation 00000")
        if problems:
            failures.append(f"op {rec['op']}: " + "; ".join(problems))
    return failures


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup: list[float]) -> dict:
    timed = [rec["s"] for rec in result["ops"][1:]]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_s_p50": metric(statistics.median(timed), "s"),
        "ops_per_s": metric(len(timed) / result["timed_wall_s"], "1/s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(workload: str, result: dict, failed: int) -> dict:
    per_op = result["layers"]
    if not per_op:
        raise BenchError("no traced operation completed; raise --seconds")
    for totals in per_op:
        missing = [l for l in workloads.EXPECTED_LAYERS[workload] if totals[l]["calls"] == 0]
        if missing:
            raise BenchError(f"trace recorded no calls on {workload} for {missing}")
        for layer in LAYERS:
            if totals[layer]["calls"] != per_op[0][layer]["calls"]:
                raise BenchError(f"{layer} call count varies between operations")
            if layer not in NESTING and totals[layer]["total_s"] != totals[layer]["s"]:
                raise BenchError(f"{layer} calls traced layers; list it in layertrace.NESTING")
    first = per_op[0]

    def med(fn):
        return statistics.median(fn(t) for t in per_op)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        calls_name = "crossval.fold_draws" if layer == "crossval.draw_folds" else f"{layer}.calls"
        out[f"{layer}.s"] = metric(med(lambda t, l=layer: t[l]["s"]), "s")
        if layer in NESTING:
            out[f"{layer}.total_s"] = metric(med(lambda t, l=layer: t[l]["total_s"]), "s")
        out[calls_name] = metric(first[layer]["calls"], "count")
    draws = first["crossval.draw_folds"]
    useful = first["crossval.cv_select_tau"]["note"] + first["crossval.cv_select_tau_single"]["note"]
    out["crossval.fold_redraws"] = metric(draws["failed"], "count")
    out["crossval.draw_useful_ratio"] = metric(ratio(useful, draws["calls"]), "ratio")
    out["dataset.read_cells_per_s"] = metric(
        med(lambda t: ratio(t["dataset.read_sample_csv"]["note"], t["dataset.read_sample_csv"]["s"])),
        "1/s")
    sim = first["simulation.run_benchmark"]
    out["simulation.fit_fail_ratio"] = metric(ratio(sim["fits_failed"], sim["fits"]), "ratio")
    traced = [r["s"] for r in result["ops"][1:] if r["traced"]]
    plain = [r["s"] for r in result["ops"][1:] if not r["traced"]]
    if not plain:
        raise BenchError("no plain operation to compare the traced ones with; raise --seconds")
    out["trace.overhead_ratio"] = metric(statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    out["fail_ratio"] = metric(failed / len(result["ops"]), "ratio")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    if not (ROOT / "src" / "diffcorr" / "cli.py").is_file():
        raise BenchError(f"no diffcorr sources under {ROOT / 'src'}")
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    try:
        (run_dir / "in").mkdir()
        (run_dir / "out").mkdir()
        inputs = workloads.make_inputs(workload, seed, run_dir / "in")
        argv = workloads.command(workload, seed, inputs, run_dir / "out")
        env = child_env()
        setup = setup_times(env, deadline)
        spec = run_dir / "spec.json"
        spec.write_text(json.dumps({"argv": argv, "seconds": seconds, "trace": trace}))
        result_path = run_dir / "result.json"
        run_child([str(spec), str(result_path)], env, deadline)
        result = json.loads(result_path.read_text())
        check_module(result["module"])
        setup.append(result["setup_s"])
        failures = check_ops(workload, result, inputs, argv)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()  # only when no other run is using it
    return {
        "workload": workload,
        "correct": not failures,
        "attempted": len(result["ops"]),
        "failed": len(failures),
        "failures": failures,
        "timed_ops": len(result["ops"]) - 1,
        "setup_samples": len(setup),
        "metrics": per_layer(workload, result, len(failures)) if trace else end_to_end(result, setup),
        "env": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "blas": result["blas"],
            "blas_threads": env["OPENBLAS_NUM_THREADS"],
            "diffcorr_threads": "default (1)",
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed,
            "seconds": seconds,
        },
    }


def report(res: dict) -> None:
    print(f"== {res['workload']}  seed={res['env']['seed']}  "
          f"{res['timed_ops']} timed ops + 1 warm-up, {res['setup_samples']} setup samples")
    print("env " + json.dumps(res["env"], sort_keys=True))
    counts = {"setup_s": f"  (median of {res['setup_samples']} imports)",
              "op_s_p50": f"  (median of {res['timed_ops']} ops)"}
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}{counts.get(name, '')}")
    if "fail_ratio" not in res["metrics"]:
        print(f"  {'fail_ratio':40s} {res['failed'] / res['attempted']:>16.6g} ratio"
              f"  ({res['failed']}/{res['attempted']})")
    for line in res["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = perf_counter() + DEADLINE_S * len(names)
    try:
        results = []
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
            report(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        line = {k: results[0][k] for k in keys}
    else:
        line = {r["workload"]: {k: r[k] for k in keys} for r in results}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
