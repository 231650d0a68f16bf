"""Self-test of the output checks: a deliberately perturbed output must be
counted as a failed operation, and a faithful one must not.

    python3 perfbench/selftest.py

For each workload it runs the real command once, copies its output as a
second operation, perturbs the copy in one of several ways, and passes both
through the same check_ops that run.py uses. Exits 0 when every
perturbation is caught.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from diffcorr import cli  # noqa: E402


def _scale_one_entry(path: Path) -> None:
    """Multiply the first nonzero off-diagonal matrix entry by 1 + 1e-7."""
    lines = path.read_text().splitlines()
    for r, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        for c, cell in enumerate(cells[1:], start=1):
            if c != r and float(cell) != 0.0:
                cells[c] = format(float(cell) * (1 + 1e-7), ".17g")
                lines[r] = ",".join(cells)
                path.write_text("\n".join(lines) + "\n")
                return
    raise AssertionError("no nonzero entry to perturb")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _nudge_t_n(path: Path) -> None:
    _edit_json(path, lambda doc: doc["test"].update(t_n=doc["test"]["t_n"] * (1 + 1e-8)))


def _nudge_last_loss(path: Path) -> None:
    """A loss curve that is wrong where it is not minimal, so tau stays."""
    _edit_json(path, lambda doc: doc["cv"]["losses"].__setitem__(-1, doc["cv"]["losses"][-1] * (1 + 1e-7)))


def _nudge_last_mean(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[7] = format(float(cells[7]) * (1 + 1e-7), ".17g")  # the mean column
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_row(path: Path) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


# workload -> [(index of the output file to perturb, perturbation)]
PERTURB = {
    "cv-estimate": [(1, _scale_one_entry), (0, _nudge_last_loss)],
    "equality-test": [(0, _nudge_t_n)],
    "simulate": [(0, _nudge_last_mean), (0, _drop_last_row)],
}


def failures_for(workload: str, argv: list[str], inputs: dict, perturb=None) -> list[str]:
    first = workloads.output_files(argv, "00000")
    second = workloads.output_files(argv, "00001")
    for src, dst in zip(first, second):
        shutil.copyfile(src, dst)
    if perturb:
        index, fn = perturb
        fn(second[index])
    ops = [{"op": op, "rc": 0, "stdout": "", "stderr": ""} for op in ("00000", "00001")]
    return run.check_ops(workload, {"ops": ops}, inputs, argv)


def main() -> int:
    ok = True
    work = BENCH_DIR.parent / ".perfbench-work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        for workload in workloads.WORKLOADS:
            inputs = workloads.make_inputs(workload, 7, tmp)
            argv = workloads.command(workload, 7, inputs, tmp)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([a.replace("{op}", "00000") for a in argv])
            clean = failures_for(workload, argv, inputs)
            ok &= rc == 0 and clean == []
            print(f"{'ok  ' if rc == 0 and clean == [] else 'FAIL'} {workload}: "
                  f"faithful copy -> {clean}")
            for perturb in PERTURB[workload]:
                dirty = failures_for(workload, argv, inputs, perturb)
                # the reference check alone must catch the perturbation too
                alone = workloads.check(workload, workloads.output_files(argv, "00001"), inputs)
                passed = len(dirty) == 1 and dirty[0].startswith("op 00001") and alone != []
                ok &= passed
                print(f"{'ok  ' if passed else 'FAIL'} {workload}: {perturb[1].__name__} -> {dirty}")
    with contextlib.suppress(OSError):
        work.rmdir()  # only when no benchmark run is using it
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
