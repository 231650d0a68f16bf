import contextlib
import importlib
import io
import re
import types
from pathlib import Path

import numpy as np

import diffcorr

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _perfbench(name):
    """A benchmark module, executed from its source without writing anything
    under perfbench/."""
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(name)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def test_every_public_name_resolves_and_is_documented():
    for name in diffcorr.__all__:
        doc = getattr(diffcorr, name).__doc__
        # a dataclass without a docstring gets its signature as __doc__
        assert doc and not doc.startswith(f"{name}("), name


def test_removed_names_are_not_exported():
    removed = {
        "sample_covariance", "covariance_noise", "correlation_noise",
        "ModelSpec", "generate_model1", "generate_model2", "BenchmarkRow",
        "ThresholdMatrix", "GenerationFailedError", "NotPSDError", "DegenerateSplitError",
    }
    assert not removed & set(diffcorr.__all__)
    assert not removed & set(vars(diffcorr))


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3


def test_every_traced_name_resolves():
    # the layer trace patches these names; one a refactor drops would leave
    # its layer at zero calls and the traced benchmark run incorrect
    targets = _perfbench("layertrace").TARGETS
    assert targets
    for module, attribute, _ in targets:
        obj = importlib.import_module(f"diffcorr.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"diffcorr.{module}.{attribute}"


def test_every_expected_layer_records_calls(tmp_path):
    # each benchmark workload at a tiny size under the layer trace; a layer at
    # zero calls makes the traced benchmark run incorrect
    layertrace, workloads = _perfbench("layertrace"), _perfbench("workloads")
    cli = importlib.import_module("diffcorr.cli")
    x1, x2 = workloads.model1_pair(12, 30, np.random.default_rng(0))
    paths = [tmp_path / "group1.csv", tmp_path / "group2.csv"]
    for path, x in zip(paths, (x1, x2)):
        workloads.write_sample(path, x)
    inputs = {"paths": [str(path) for path in paths]}
    workloads.WORKLOADS["simulate"] = {"p": 10, "n": 20, "reps": 2}  # in this copy only
    for workload in workloads.EXPECTED_LAYERS:
        argv = workloads.command(workload, 1, inputs, tmp_path)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([a.replace("{op}", "0") for a in argv]) == 0
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals()
        idle = [layer for layer in workloads.EXPECTED_LAYERS[workload] if totals[layer]["calls"] == 0]
        assert not idle, f"{workload}: no calls recorded for {idle}"
