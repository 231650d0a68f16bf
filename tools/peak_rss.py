"""Run one diffcorr command in a fresh process; report its wall time and peak RSS.

Usage:

    PYTHONPATH=path/to/tree/src python tools/peak_rss.py -- COMMAND [ARGS...]
    python tools/peak_rss.py --normal-inputs DIR P N

The first form runs `diffcorr COMMAND ARGS...` (`diffcorr.cli.main`) in a new
Python process with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
set to 1. After the command's own output it prints one line,

    wall_s=8.270 vmhwm_mib=338.2 exit=0

where wall_s is the child's wall time as seen from here (interpreter start and
imports included) and vmhwm_mib the VmHWM of the child's /proc/self/status,
read as the command returns: the peak resident set of that process alone,
which, unlike getrusage's ru_maxrss, starts afresh at exec. It exits with the
command's exit code. Linux only.

The second form writes DIR/x1.csv and DIR/x2.csv, two groups of N observations
of P independent N(0, 1) variables labelled v1..vP, drawn from
numpy.random.default_rng(0): the inputs of the large-p tables in README.md.
For example, at p = 4000:

    python tools/peak_rss.py --normal-inputs /tmp/p4000 4000 200
    PYTHONPATH=src python tools/peak_rss.py -- estimate-diff-corr --rule hard \\
        --input1 /tmp/p4000/x1.csv --input2 /tmp/p4000/x2.csv --out-json /tmp/p4000/fit.json
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# argv[1] is the write end of a pipe for the peak RSS, the rest the command
_CHILD = """
import os, sys
from diffcorr.cli import main
try:
    code = main(sys.argv[2:])
finally:
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    os.write(int(sys.argv[1]), hwm.split()[1].encode())
sys.exit(code)
"""


def run(command: list[str]) -> int:
    env = dict(os.environ, **{name: "1" for name in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    read_end, write_end = os.pipe()
    start = time.perf_counter()
    try:
        child = subprocess.run([sys.executable, "-c", _CHILD, str(write_end), *command],
                               env=env, pass_fds=(write_end,))
    finally:
        os.close(write_end)
    wall = time.perf_counter() - start
    with os.fdopen(read_end, "rb") as fh:
        kib = fh.read().decode()
    peak = f"{int(kib) / 1024:.1f}" if kib else "unknown"
    sys.stdout.flush()
    print(f"wall_s={wall:.3f} vmhwm_mib={peak} exit={child.returncode}", flush=True)
    return child.returncode


def write_normal_inputs(directory: Path, p: int, n: int) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    header = ",".join(f"v{j + 1}" for j in range(p))
    for name in ("x1.csv", "x2.csv"):
        np.savetxt(directory / name, rng.standard_normal((n, p)), fmt="%.17g",
                   delimiter=",", header=header, comments="")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" in argv:
        split = argv.index("--")
        options, command = argv[:split], argv[split + 1:]
    else:
        options, command = argv, []
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--normal-inputs", nargs=3, metavar=("DIR", "P", "N"))
    args = parser.parse_args(options)
    if args.normal_inputs:
        directory, p, n = args.normal_inputs
        write_normal_inputs(Path(directory), int(p), int(n))
        return 0
    if not command:
        parser.error("give a diffcorr command after --")
    return run(command)


if __name__ == "__main__":
    sys.exit(main())
