"""Acceptance battery: every release-blocking criterion with its runtime cap.

Criteria 1-10 run in-process through the checks the `selftest` subcommand
uses; criterion 11 runs the CLI itself in a subprocess.  Runtime caps are
generous (laptop-class), the point is catching accidental blowups.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from central_approx import acceptance

# (check name, runtime cap in seconds)
CRITERIA = [
    ("sk-correction", 1.0),
    ("rs-determinant", 1.0),
    ("dense-constant-convergence", 30.0),
    ("matrix-identities", 5.0),
    ("sylvester-determinants", 1.0),
    ("local-multinomial-decay", 1.0),
    ("configuration-model-exactness", 1.0),
    ("fg-constant-convergence", 120.0),
    ("step-size-agreement", 30.0),
    ("fluctuation-covariances", 60.0),
]

CHECK_BY_NAME = dict(acceptance.CHECKS)


@pytest.mark.parametrize("name,cap", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, cap):
    start = time.perf_counter()
    passed, detail = CHECK_BY_NAME[name]()
    elapsed = time.perf_counter() - start
    assert passed, f"{name}: {detail}"
    assert elapsed < cap, f"{name} took {elapsed:.1f}s, cap {cap:.0f}s"


def test_selftest_cli():
    exe = shutil.which("central-approx")
    cmd = [exe] if exe else [sys.executable, "-m", "central_approx.cli"]
    # the child imports the package from this checkout's src, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run(
        cmd + ["selftest"], capture_output=True, text=True, timeout=30, env=env,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30.0
    out = proc.stdout
    for name, _ in CRITERIA:
        assert f"{name} " in out or f"{name}\t" in out or name in out
    assert "FAIL" not in out
