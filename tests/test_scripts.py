"""Smoke runs of the stand-alone scripts on a tiny corpus, and of the
benchmark's traced runs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TINY = ["--sessions", "40", "--vocab", "12", "--dim", "8", "--max-epochs", "1"]


@pytest.mark.parametrize("encoder", ["MaxPool", "GRU"])
@pytest.mark.parametrize("script", ["run_overfit.py"])
def test_script_runs_to_completion(script, encoder):
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *TINY, "--encoder", encoder],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert done.returncode == 0, done.stderr
    assert "recall@20" in done.stdout


def _strict_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("workload", ["desk", "sequence"])
def test_traced_benchmark_run_reports_every_layer(workload):
    # a traced run that counts no training calls prints fewer metrics than
    # the benchmark declares, yet still exits 0
    done = subprocess.run(
        [sys.executable, str(REPO / "smlbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1],
                        parse_constant=_strict_constant)
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
