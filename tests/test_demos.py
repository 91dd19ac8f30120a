"""Smoke test: the demos run to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("prefix", ["01_", "02_", "03_", "04_"])
def test_demo_runs(prefix):
    (script,) = (ROOT / "demos").glob(f"{prefix}*.py")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_tour_runs_from_a_checkout():
    env = dict(os.environ, PYTHON=sys.executable)
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "05_cli_tour.sh")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "engine and oracle agree" in proc.stdout
    assert "x=[2,4)" in proc.stdout
