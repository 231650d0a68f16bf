import ast
import importlib
import re
from pathlib import Path

import diffcorr

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def test_every_public_name_resolves_and_is_documented():
    for name in diffcorr.__all__:
        doc = getattr(diffcorr, name).__doc__
        # a dataclass without a docstring gets its signature as __doc__
        assert doc and not doc.startswith(f"{name}("), name


def test_removed_names_are_not_exported():
    removed = {
        "sample_covariance", "covariance_noise", "correlation_noise",
        "ModelSpec", "generate_model1", "generate_model2", "BenchmarkRow",
        "ThresholdMatrix",
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
    tree = ast.parse(LAYERTRACE.read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    assert targets
    for module, attribute, _ in targets:
        obj = importlib.import_module(f"diffcorr.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"diffcorr.{module}.{attribute}"
