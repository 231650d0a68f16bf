import re
from pathlib import Path

import diffcorr

README = Path(__file__).resolve().parents[1] / "README.md"


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
