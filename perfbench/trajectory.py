"""Record one trajectory point: run every workload once for each of the seeds
1 to 10 for BENCHMARK.json's run_seconds, then one traced run per workload
(seed 1), and write the results under perfbench/results/.

    python3 perfbench/trajectory.py --label seed

writes ``results/BENCH_<label>.json`` (every run, plus per workload and
metric the median, the quartiles and the spread (Q3 - Q1) / median) and
``results/BENCH_<label>_trace.md`` (the per-layer table). Each run is a
separate ``run.py`` process, exactly as a single measurement is made. Every
point uses the same seeds, workloads and seconds, so points compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SEEDS = range(1, 11)
SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def trace_table(traced: dict[str, dict]) -> str:
    names = list(next(iter(traced.values()))["metrics"])
    head = "| metric | unit | " + " | ".join(traced) + " |"
    rows = [head, "|" + "---|" * (len(traced) + 2)]
    for name in names:
        unit = next(iter(traced.values()))["metrics"][name]["unit"]
        cells = [f"{traced[w]['metrics'][name]['value']:.6g}" for w in traced]
        rows.append(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    names = list(workloads.WORKLOADS)
    runs = {w: [] for w in names}
    for seed in SEEDS:
        for w in names:
            runs[w].append(run_once(w, seed, SECONDS, 0))
            print(w, seed, {k: round(m["value"], 5) for k, m in runs[w][-1]["metrics"].items()},
                  flush=True)
    traced = {w: run_once(w, SEEDS[0], SECONDS, 1) for w in names}
    doc = {
        "label": args.label,
        "seconds": SECONDS,
        "env": runs[names[0]][0]["env"],
        "workloads": {w: {"summary": summary(runs[w]), "runs": runs[w],
                          "traced": traced[w]} for w in names},
    }
    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    (out / f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    (out / f"BENCH_{args.label}_trace.md").write_text(
        f"# Per-layer trace: {args.label} (workload seed {SEEDS[0]}, {SECONDS} s per workload)\n\n"
        "Values are per operation: `.s` self seconds, `.total_s` inclusive seconds\n"
        "(only for layers that call other traced layers), `.calls` call counts\n"
        "(medians over the traced operations of one run).\n\n"
        + trace_table(traced))
    for w in names:
        for name, s in doc["workloads"][w]["summary"].items():
            print(f"{w:14s} {name:12s} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
