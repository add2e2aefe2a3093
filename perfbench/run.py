"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in workloads.py and
named in BENCHMARK.json.

--trace 0 runs the workload's ops as a closed loop with one client: one
`python -m central_approx.cli` subprocess at a time, so import cost is
included.  Passes over the op list repeat while the next one fits in
--seconds (at least MIN_PASSES when they fit in the run's time limit).
Every op's output is checked (checks.py).  Reports the median over passes
of each end-to-end metric, and the per-op wall times.

--trace 1 measures the per-layer metrics: `python -X importtime` for the
import layer, and traced.py for the in-process traced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (per-op times, every pass,
failures, machine) is printed on the line before it and written to
.bench_out/.  Exits 2 without a result when the checkout holds no package
source.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from importlib import metadata

import harness
from checks import check_pass, load_reference
from workloads import WORKLOADS, write_inputs

SETUP_PER_PASS = 2  # fresh starts timed before each pass and after the last
MIN_PASSES = 2
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170.0  # children still running at this age of the run are killed
IMPORT_GROUPS = ("numpy", "scipy", "jsonschema")
COUNT_SUFFIXES = (".calls", ".rows", ".types", ".restarts", ".permutations",
                  ".solve_bethe_calls")


def median(values):
    return statistics.median(values) if values else 0.0


def last_line(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


class Run:
    """One benchmark run: its deadline, work directory and failure tally."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: int):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = os.path.join(".bench_work", f"{workload}-{seed}-{trace}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def child(self, argv, **paths):
        return harness.run_child(argv, timeout=self.remaining(), **paths)

    def tally(self, attempted: int, problems: list[str], failed: int | None = None) -> None:
        self.attempted += attempted
        self.failed += len(problems) if failed is None else failed
        self.problems += problems


# ------------------------------------------------------------- --trace 0

def measure_setup(run: Run, count: int) -> list[float]:
    """Wall times of `count` fresh `python -m central_approx.cli --help` starts."""
    out = os.path.join(run.work, "help.txt")
    times = []
    for _ in range(count):
        code, wall, _, _ = run.child(harness.cli_argv("--help"), stdout_path=out)
        with open(out, encoding="utf-8") as fh:
            ok = code == 0 and fh.read().startswith("usage:")
        run.tally(1, [] if ok else [f"setup: --help exit {code}"])
        times.append(wall)
    return times


def run_pass(run: Run, reference: dict) -> dict:
    ops = run.workload.ops
    results = []
    start = time.perf_counter()
    for op in ops:
        out = os.path.join(run.work, op.id + ".csv")
        if os.path.exists(out):
            os.remove(out)
        err = os.path.join(run.work, op.id + ".err")
        results.append(run.child(harness.cli_argv(*op.argv(run.work, run.seed)), stderr_path=err))
    wall = time.perf_counter() - start
    exits = [(code, last_line(os.path.join(run.work, op.id + ".err")) if code else "")
             for op, (code, *_) in zip(ops, results)]
    failed, problems = check_pass(ops, exits, run.work, reference)
    run.tally(len(ops), problems, failed)
    groups = dict.fromkeys(run.workload.groups, 0.0)
    for op, (_, op_wall, _, _) in zip(ops, results):
        groups[op.group] += op_wall
    return {
        "wall_s": wall,
        "cpu_s": sum(r[2] for r in results),
        "peak_rss_mb": max(r[3] for r in results),
        "ops_s": {op.id: r[1] for op, r in zip(ops, results)},
        **groups,
    }


def timed_run(run: Run) -> tuple[dict, dict]:
    reference = load_reference()
    measure_setup(run, 1)  # untimed: fills the bytecode cache
    setup = []
    passes = []
    start = time.perf_counter()
    while True:
        # set-up samples are spread over the run, so one slow moment cannot set the median
        setup += measure_setup(run, SETUP_PER_PASS)
        passes.append(run_pass(run, reference))
        last = passes[-1]["wall_s"]
        if run.remaining() < 1.5 * last:
            break
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + last > run.seconds:
            break
    setup += measure_setup(run, SETUP_PER_PASS)
    metrics = {
        "wall_s": median([p["wall_s"] for p in passes]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "setup_s": median(setup),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    detail = {
        "per_op": {g: median([p[g] for p in passes]) for g in run.workload.groups},
        "failed_share": run.failed / run.attempted,
        "setup_runs_s": setup,
        "passes": passes,
    }
    return metrics, detail


# ------------------------------------------------------------- --trace 1

def parse_importtime(text: str) -> dict:
    """Seconds spent importing numpy, scipy, jsonschema and central_approx.

    Each group is the cumulative time of its outermost imports; the
    central_approx figure excludes the three groups imported beneath it.
    """
    roots = []
    pending: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = field.lstrip(" ")
        depth = (len(field) - len(name) - 1) // 2
        node = (name, int(cumulative) * 1e-6, pending.pop(depth + 1, []))
        if depth == 0:
            roots.append(node)
        else:
            pending.setdefault(depth, []).append(node)

    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)

    def visit(node) -> float:
        name, cumulative, children = node
        top = name.split(".")[0]
        if top in totals:
            totals[top] += cumulative
            return cumulative
        return sum(visit(child) for child in children)

    package = 0.0
    for root in roots:
        nested = visit(root)
        if root[0].split(".")[0] == "central_approx":
            package += root[1] - nested
    out = {f"import.{g}_s": totals[g] for g in IMPORT_GROUPS}
    out["import.central_approx_s"] = package
    return out


def measure_imports(run: Run) -> dict:
    err = os.path.join(run.work, "importtime.txt")
    samples = []
    for _ in range(IMPORT_REPEATS):
        code, *_ = run.child([sys.executable, "-X", "importtime", "-c",
                              "import central_approx.cli"], stderr_path=err)
        run.tally(1, [] if code == 0 else [f"importtime: exit {code}"])
        with open(err, encoding="utf-8") as fh:
            samples.append(parse_importtime(fh.read()))
    return {k: median([s[k] for s in samples]) for k in samples[0]}


def traced_run(run: Run, per_layer: list[dict]) -> tuple[dict, dict]:
    imports = measure_imports(run)
    out = os.path.join(run.work, "traced.json")
    spans = os.path.join(".bench_out", f"spans-{run.name}-seed{run.seed}.json")
    code, *_ = run.child(
        [sys.executable, os.path.join("perfbench", "traced.py"), "--workload", run.name,
         "--seed", str(run.seed), "--seconds", str(run.seconds), "--work", run.work,
         "--spans", spans],
        stdout_path=out, stderr_path=os.path.join(run.work, "traced.err"))
    if code != 0:
        run.tally(1, [f"traced pass: exit {code} "
                      + last_line(os.path.join(run.work, "traced.err"))])
        return {m["name"]: 0.0 for m in per_layer}, {}
    with open(out, encoding="utf-8") as fh:
        rounds = json.load(fh)["rounds"]
    for r in rounds:
        for side in ("untraced", "traced"):
            run.tally(r[side]["attempted"], r[side]["problems"], r[side]["failed"])
    layers = [r["traced"]["metrics"] for r in rounds]
    counts = {k: v for k, v in layers[0].items() if k.endswith(COUNT_SUFFIXES)}
    for other in layers[1:]:
        moved = sorted(k for k in counts if other.get(k) != counts[k])
        if moved:
            run.tally(0, [f"counts differ between traced passes: {', '.join(moved)}"], 1)
    metrics = {}
    for m in per_layer:
        name = m["name"]
        if name == "trace.overhead_s":
            metrics[name] = (median([r["traced"]["wall_s"] for r in rounds])
                             - median([r["untraced"]["wall_s"] for r in rounds]))
        elif name in imports:
            metrics[name] = imports[name]
        else:
            metrics[name] = median([layer.get(name, 0) for layer in layers])
    detail = {
        "rounds": [{"untraced_s": r["untraced"]["wall_s"], "traced_s": r["traced"]["wall_s"]}
                   for r in rounds],
        "spans_file": spans,
        "unlisted": {k: v for k, v in layers[0].items() if k not in metrics},
    }
    return metrics, detail


# ------------------------------------------------------------- reporting

def machine_record(seed: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        **versions,
        "pinned_threads": harness.PINNED_THREADS,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    harness.require_source()
    os.chdir(harness.ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    run = Run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(run.work, exist_ok=True)
    os.makedirs(".bench_out", exist_ok=True)
    try:
        write_inputs(run.work, args.seed)
        if args.trace:
            metrics, detail = traced_run(run, spec["per_layer"])
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, detail = timed_run(run)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "notes": run.workload.notes,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(args.seed),
        "problems": run.problems,
        **detail,
        "result": result,
    }
    path = os.path.join(".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in run.problems:
        print("FAILED", problem)
    shown = dict(metrics)
    if not args.trace:
        shown.update(detail["per_op"], failed_share=detail["failed_share"])
        units = dict(units, failed_share="share")
    for name, value in shown.items():
        print(f"{name:56s} {value:14.6f} {units.get(name, 's')}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
