"""Process plumbing shared by the benchmark's scripts.

Every program the benchmark starts runs from the root of the checkout, with
the checkout's own `src/` on PYTHONPATH and every thread pool pinned to one
thread, so each workload is a plain single-threaded baseline.
"""

import os
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PINNED_THREADS = {
    "CENTRAL_APPROX_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def require_source() -> None:
    """Exit with status 2 unless the checkout holds the package source."""
    if not os.path.isfile(os.path.join(SRC, "central_approx", "cli.py")):
        print(f"error: no package source at {SRC}/central_approx; "
              "run from the root of a checkout", file=sys.stderr)
        sys.exit(2)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **PINNED_THREADS)


def run_child(argv: list[str], *, timeout: float, stdout_path: str = os.devnull,
              stderr_path: str = os.devnull) -> tuple[int, float, float, float]:
    """Run argv from the checkout root and reap it.

    Returns (exit code, wall s, user+system CPU s, max RSS in MB).  A child
    still running after `timeout` seconds is killed.
    """
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "central_approx.cli", *args]
