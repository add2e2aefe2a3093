"""Acceptance battery: every release-blocking criterion with its runtime cap.

Criteria 1-10 run in-process through the checks the `selftest` subcommand
uses; criterion 11 runs the CLI itself in a subprocess.  Runtime caps are
generous (laptop-class), the point is catching accidental blowups.  Each
check also has a memory cap, and the two random-matrix checks are pinned to
list-built references that draw the same numbers.
"""

import csv
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from central_approx import acceptance
from central_approx.replica_rs import build_pqr_matrix, rs_determinant

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
        cmd + ["selftest", "--format", "csv"], capture_output=True, text=True, timeout=30,
        env=env,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30.0
    rows = list(csv.reader(line for line in proc.stdout.splitlines()
                           if not line.startswith("#")))
    assert rows[0] == ["check", "status", "seconds", "detail"]
    assert [(row[0], row[1]) for row in rows[1:]] == [
        (name, "PASS") for name, _ in acceptance.CHECKS]


MEMORY_CAP = 1 << 20  # bytes a check may hold at once, once warmed up


@pytest.mark.parametrize("name,fn", acceptance.CHECKS, ids=[n for n, _ in acceptance.CHECKS])
def test_check_peak_memory(name, fn):
    fn()  # first calls fill caches and load modules; only the second is measured
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_CAP, f"{name} peaked at {peak / 2**20:.2f} MiB"


def list_built_rs_determinant():
    """check_rs_determinant as it stood with list-built (100, m, m) stacks."""
    rng = random.Random(20240816)
    worst = 0.0
    for n in (4, 5, 6, 7):
        draws = [[rng.uniform(-0.3, 0.3) for _ in range(5)] for _ in range(100)]
        closed = np.array([rs_determinant(n, *draw) for draw in draws])
        A_g = np.array([build_pqr_matrix(n, P, Q, R) for _, _, P, Q, R in draws])
        A_u = np.array([build_pqr_matrix(n, 1.0 - q * q, q * (1.0 - q), r - q * q)
                        for q, r, _, _, _ in draws])
        direct = np.linalg.det(np.eye(A_g.shape[1]) - A_g @ A_u)
        gaps = np.abs(closed - direct) / np.maximum(1.0, np.abs(direct))
        worst = max(worst, float(gaps.max()))
    return worst < 1e-9, f"worst relative gap {worst:.3e} over 400 draws"


def list_built_sylvester():
    """check_sylvester as it stood with nested-list matrices."""
    rng = random.Random(11)
    pairs_by_shape: dict[tuple[int, int], list] = {}
    for _ in range(1000):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.uniform(-0.7, 0.7) for _ in range(b)] for _ in range(a)]
        B = [[rng.uniform(-0.7, 0.7) for _ in range(a)] for _ in range(b)]
        pairs_by_shape.setdefault((a, b), []).append((A, B))
    worst = 0.0
    for (a, b), pairs in pairs_by_shape.items():
        A, B = (np.array(side) for side in zip(*pairs))
        d1 = np.linalg.det(np.eye(a) - A @ B)
        d2 = np.linalg.det(np.eye(b) - B @ A)
        worst = max(worst, float((np.abs(d1 - d2) / np.maximum(1.0, np.abs(d1))).max()))
    return worst <= 1e-9, f"worst relative defect {worst:.3e}"


@pytest.mark.parametrize("check,reference", [
    (acceptance.check_rs_determinant, list_built_rs_determinant),
    (acceptance.check_sylvester, list_built_sylvester),
], ids=["rs-determinant", "sylvester-determinants"])
def test_flat_checks_match_list_built_references(check, reference):
    # same streams, same draw order, same shapes: the detail strings agree digit for digit
    assert check() == reference()
