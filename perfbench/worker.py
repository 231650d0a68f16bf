"""One workload in one fresh process: time the import of diffcorr.cli, then
run a closed loop of in-process ``diffcorr.cli.main(argv)`` calls, each sent
only after the last returned, for a fixed number of seconds.

Run by run.py as ``python3 worker.py SPEC.json RESULT.json``; with
``--setup-only`` it only times the import. The spec names the argv template,
the seconds to measure and whether to trace. Operation 0 is a warm-up: its
output is checked but its time is not counted. With tracing on, operations
alternate between plain and traced so both medians come from the same run.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter


def main() -> int:
    t0 = perf_counter()
    import diffcorr.cli as cli

    setup_s = perf_counter() - t0
    if sys.argv[1] == "--setup-only":
        print(json.dumps({"setup_s": setup_s, "module": cli.__file__}))
        return 0

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    tracer_cls = None
    if spec["trace"]:
        from layertrace import Tracer as tracer_cls

    ops, layers = [], []
    loop_start = None
    i = 0
    while True:
        op = f"{i:05d}"
        argv = [a.replace("{op}", op) for a in spec["argv"]]
        traced = tracer_cls is not None and i % 2 == 1
        tracer = tracer_cls() if traced else None
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    rc = exc.code
                end = perf_counter()
        finally:
            if tracer:
                tracer.uninstall()
        ops.append({"op": op, "s": end - start, "rc": rc, "traced": traced,
                    "stdout": out.getvalue(), "stderr": err.getvalue()})
        if tracer:
            layers.append(tracer.layer_totals())
        if i == 0:
            loop_start = perf_counter()
        elif end - loop_start >= spec["seconds"]:
            break
        i += 1
    timed_wall_s = end - loop_start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": setup_s,
        "module": cli.__file__,
        "ops": ops,
        "layers": layers,
        "timed_wall_s": timed_wall_s,
        "peak_rss_mb": peak_rss_kib * 1024 / 1e6,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
