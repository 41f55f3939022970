"""Each demo script, and the README quick start, runs to completion (without --plot, so no matplotlib).

Each demo's stdout is pinned by its SHA-256 digest, as the goldens pin the
artifacts: a change to any printed figure, such as a drawn count or a
probability from either optics route, fails here, and re-pinning a digest is
a deliberate, recorded act.  The quick start runs under ``python -W error``,
so a warning fails it as the pytest settings make warnings fail the
in-process tests.
"""
import hashlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))

STDOUT_SHA256 = {
    "01_circuit_basics": "455bd9226229c14d8e1d5406b150f511d7a0d2acf1a5c8167eeaff43f8579713",
    "02_entropy_duality_identities": "a08c86dbd24c8ca0f83b0b1926814e0490e38a61867171d7306ab76a465a6745",
    "03_montecarlo_fringes": "fae9d7465feaacbfec5f4dbe17268dca34cbcd1b757bd55897a391f858cfc1ae",
    "04_dynamic_switching": "38a6f88dc78449822529b5a706d088926273ac79102c35f41093f3e2c0b6eddd",
    "05_eur_verification": "cb067a050694e8aa735c1950880b28b3ebf0c760f6da90612a4cb45536d45906",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[script.stem]


def test_readme_quick_start_runs():
    root = Path(__file__).resolve().parents[1]
    [block] = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(), re.M | re.S)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-W", "error", "-c", block], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
