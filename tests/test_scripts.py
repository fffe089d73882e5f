"""Smoke tests: the shelling experiment runs end to end, and its default grid is frozen."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_shelling_experiment_runs():
    proc = run_script("scripts/shelling_experiment.py", "--n-span", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 negative-defect certificates" in proc.stderr


def test_shelling_experiment_default_grid_frozen():
    # The 192 (cell, v) pairs of d 4..5, s 0..3, n-span 4, JSON on stdout.
    # Every pair certifies at the ladder's first rung, 12, with no
    # negative defect.
    proc = run_script("scripts/shelling_experiment.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "192/192 certified" in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["negative_defects"] == 0 and summary["max_closeness"] <= 12
    assert (
        hashlib.sha256(proc.stdout.encode()).hexdigest()
        == "0da7737856b7a5c5e8501693522c979e49ebae73ed011c77cf66cec547d99dba"
    )
