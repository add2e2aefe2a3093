"""The benchmark's own test: traced counts repeat exactly, and every layer is seen.

    python3 perfbench/check_counts.py [--seed N] [--workload NAME ...]

Runs the traced pass (traced.py, one round) twice per workload and requires
every count metric (see run.COUNT_SUFFIXES) to be identical across the two.
A later change may rest a claim on a count only if this passes.  With every
workload run, it also requires each per-layer metric that traced.py
measures to be nonzero on at least one workload, so a metric name in
BENCHMARK.json that no traced function produces is caught.  Every per-layer
metric must also have an entry in interactions.json.  Exits 1 on any
failure.
"""

import argparse
import json
import os
import shutil
import sys

import harness
from run import COUNT_SUFFIXES
from workloads import WORKLOADS, write_inputs

FROM_RUN = ("import.", "trace.")  # measured by run.py, not by traced.py


def traced_metrics(workload: str, seed: int, work: str) -> dict:
    out = os.path.join(work, "traced.json")
    code, *_ = harness.run_child(
        [sys.executable, os.path.join("perfbench", "traced.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--work", work,
         "--spans", os.path.join(work, "spans.json")],
        timeout=600, stdout_path=out, stderr_path=os.path.join(work, "traced.err"))
    if code != 0:
        raise SystemExit(f"{workload}: traced pass exited {code}")
    with open(out, encoding="utf-8") as fh:
        (round_,) = json.load(fh)["rounds"]
    if round_["traced"]["failed"]:
        raise SystemExit(f"{workload}: {round_['traced']['problems']}")
    return round_["traced"]["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    harness.require_source()
    os.chdir(harness.ROOT)
    names = args.workload or list(WORKLOADS)
    work = os.path.join(".bench_work", f"check-counts-{os.getpid()}")
    os.makedirs(work)
    failures = []
    seen = set()
    try:
        write_inputs(work, args.seed)
        for name in names:
            first, second = (traced_metrics(name, args.seed, work) for _ in range(2))
            counts = sorted(k for k in first if k.endswith(COUNT_SUFFIXES))
            moved = [k for k in counts if first[k] != second.get(k)]
            failures += [f"{name}: {k} = {first[k]} then {second.get(k)}" for k in moved]
            seen.update(k for k, v in first.items() if v)
            print(f"{name}: {len(counts) - len(moved)} of {len(counts)} counts repeat")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    with open(os.path.join("perfbench", "interactions.json"), encoding="utf-8") as fh:
        moves = json.load(fh)["moves"]
    failures += [f"{m}: no entry in interactions.json" for m in listed if m not in moves]
    if args.workload is None:
        failures += [f"{m}: zero on every workload" for m in listed
                     if m not in seen and not m.startswith(FROM_RUN)]
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
