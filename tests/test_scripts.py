"""Smoke tests: the shelling experiment runs end to end, and its default grid is frozen."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_shelling_experiment_runs(tmp_path):
    # From another directory: the script finds src/ from its own path.
    proc = run_script(str(ROOT / "scripts" / "shelling_experiment.py"), "--n-span", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 negative-defect certificates" in proc.stderr
    # An empty grid is refused, not reported as 0/0 certified.
    for flag, value, message in (
        ("--d", "5..3", "--d must be v or a..b with a <= b, got 5..3"),
        ("--d", "x", "--d must be v or a..b with a <= b, got x"),
        ("--n-span", "0", "--n-span must be at least 1, got 0"),
    ):
        proc = run_script(str(ROOT / "scripts" / "shelling_experiment.py"), flag, value)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.endswith(f"error: {message}\n")


def test_shelling_experiment_default_grid_frozen():
    # The 192 (cell, v) pairs of d 4..5, s 0..3, n-span 4, JSON on stdout.
    # Every pair certifies with no negative defect.  final_defects are the
    # defects of the whole of Q, which do not depend on the order.
    proc = run_script("scripts/shelling_experiment.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "192/192 certified" in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["negative_defects"] == 0
    assert (
        hashlib.sha256(proc.stdout.encode()).hexdigest()
        == "4b736e35bb1843285c651429cacfb7c2c39ebdb91ca2013066b41c25416bc45e"
    )
