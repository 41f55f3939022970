"""Each demo script, and the README quick start, runs to completion (without --plot, so no matplotlib).

The quick start runs under ``python -W error``, so a warning fails it as the
pytest settings make warnings fail the in-process tests.
"""
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs():
    root = Path(__file__).resolve().parents[1]
    [block] = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(), re.M | re.S)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-W", "error", "-c", block], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
