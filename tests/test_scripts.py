"""Smoke test of the study scripts: each runs to exit 0 at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("dense_convergence.py", ["--N", "50,100"]),
    ("fg_convergence.py", ["--N", "12,24"]),
    ("sk_corrections.py", []),
    ("step_size_battery.py", []),
])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout
