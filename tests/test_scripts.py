"""Smoke tests for the example scripts: each runs as a subprocess against the
source tree, exits 0 and prints its table. They use the public API
(`betti_numbers`, `coresolution_homology(...).betti`, ...), so an API change
that breaks them fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["betti_atlas.py",
                                    "circle_cover_experiment.py",
                                    "stable_range_scan.py"])
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("points,code", [(4, 2), (5, 2), (6, 0)])
def test_circle_cover_points_guard(points, code):
    # below 6 points the three-arc cover has two-point arcs, on which the
    # cokernel fails the finite model's cosheaf axiom check
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "circle_cover_experiment.py"),
         "--points", str(points)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    if code:
        assert "--points must be at least 6" in proc.stderr
        assert "Traceback" not in proc.stderr
    else:
        assert "6-point circle" in proc.stdout
