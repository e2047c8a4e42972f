"""Smoke test of the scripts in demos/: each runs to completion in a fresh
interpreter, exits 0 and prints no traceback."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diracsym

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(diracsym.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.strip()
