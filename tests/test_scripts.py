"""Smoke tests: both scripts run end to end on a tiny grid."""

import hashlib
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


def test_run_grid_rows_all_ok():
    proc = run_script("scripts/run_grid.py", "--d", "4", "--s", "0..1", "--n-span", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.strip().startswith("(")]
    # (4,5,0), (4,6,0), (4,6,1), (4,7,1)
    assert len(rows) == 4
    assert all(row.endswith(" ok") for row in rows), proc.stdout
    assert "0 check failures" in proc.stdout
    # Everything above the timing line, frozen.
    above_timing = "\n".join(proc.stdout.splitlines()[:-1])
    assert hashlib.sha256(above_timing.encode()).hexdigest()[:16] == "8d9f1c7282ecb371"


def test_shelling_experiment_runs():
    proc = run_script("scripts/shelling_experiment.py", "--n-span", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 negative-defect certificates" in proc.stderr


def test_shelling_experiment_default_grid_frozen():
    # The 192 (cell, v) pairs of d 4..5, s 0..3, n-span 4, JSON on stdout.
    proc = run_script("scripts/shelling_experiment.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "192/192 certified" in proc.stderr
    assert (
        hashlib.sha256(proc.stdout.encode()).hexdigest()
        == "ab736ebac621e9e2f8c2971440c1fa22b180bd4090be9c4f76759eb5d2afaddd"
    )
