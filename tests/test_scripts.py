"""Smoke runs of the stand-alone scripts on a tiny corpus."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TINY = ["--sessions", "40", "--vocab", "12", "--dim", "8", "--max-epochs", "1"]


@pytest.mark.parametrize("encoder", ["MaxPool", "GRU"])
@pytest.mark.parametrize("script", ["run_overfit.py", "run_ablation.py"])
def test_script_runs_to_completion(script, encoder):
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *TINY, "--encoder", encoder],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert done.returncode == 0, done.stderr
    assert "recall@20" in done.stdout
