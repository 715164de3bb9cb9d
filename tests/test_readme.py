"""README examples run: every YAML block passes ``vmk check``, and the library quickstart executes."""

import contextlib
import io
import re
from pathlib import Path

import pytest
import yaml

from vmk.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
YAML_BLOCKS = re.findall(r"^```yaml\n(.*?)^```", README, re.M | re.S)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_readme_has_the_examples():
    assert len(YAML_BLOCKS) >= 3 and len(PYTHON_BLOCKS) >= 1


@pytest.mark.parametrize("block", YAML_BLOCKS, ids=[f"yaml-{i}" for i in range(len(YAML_BLOCKS))])
def test_yaml_example_passes_check(tmp_path, capsys, block):
    raw = yaml.safe_load(block)
    raw.setdefault("grid", {"T": 0.5, "n": 20})  # the preset block shows only its model section
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["check", "--config", str(path)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"python-{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_example_runs(block):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue()
