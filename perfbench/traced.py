"""In-process passes over one workload's ops, untraced and traced.

    python3 perfbench/traced.py --workload NAME --seed N --seconds S --work DIR --spans FILE

run.py and check_counts.py start this with the pinned thread environment.
Each round runs every op of the workload once untraced and once traced,
through `central_approx.cli.main(argv)`; rounds repeat while the next one
fits in `--seconds`.  A traced run wraps the package's public functions
(see SPANNED and COUNTED) wherever a module of the package holds them, so
calls made through imported names are seen too, and restores every
original afterwards.  No file of the package is changed.

Spans record name, start, end and parent.  They are kept in memory, and the
spans of every round are written to `--spans` at the end.  A span's self
time is its duration minus the time its child spans cover.  Counts come from the
returned objects: solver diagnostics, PermutationOracleResult.permutations,
and rows yielded by the type enumerators.  Prints one JSON object.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

import harness
from checks import check_pass, load_reference
from workloads import WORKLOADS

sys.path.insert(0, harness.SRC)

from central_approx import acceptance, cli  # noqa: E402  (needs the checkout's src on the path)
from central_approx.types_core import num_types  # noqa: E402


class Tracer:
    """Spans as [name, start, end, parent index] and named counts, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._open[-1] if self._open else None
        span = [name, 0.0, 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _exact_path(args, kwargs) -> str:
    # named from what a caller can see: alphabet size, and whether the table is exact
    ens = _arg(args, kwargs, 0, "ensemble")
    if len(ens.alphabet) != 2:
        return "factor_graph.exact_expected_Z.general"
    exact = ens.f_exact is not None
    return "factor_graph.exact_expected_Z." + ("binary_exact" if exact else "binary_float")


def _record_types(counts, name, args, kwargs, result) -> None:
    if name.endswith(".general"):
        ens, N = _arg(args, kwargs, 0, "ensemble"), _arg(args, kwargs, 1, "N")
        counts[name + ".types"] += num_types(ens.num_factors(N), len(ens.support))


def _record_solver(counts, name, args, kwargs, result) -> None:
    diag = result.diagnostics
    counts[name + ".restarts"] += diag["restarts"]
    counts[name + ".converged"] += diag["converged"]
    counts[name + ".iterations_best"] += diag["iterations_best"]


def _record_permutations(counts, name, args, kwargs, result) -> None:
    counts[name + ".permutations"] += result.permutations


# (module, function, span name from the arguments or None for "module.function",
#  recorder of counts from the result or None)
SPANNED = (
    ("cli", "main", None, None),
    ("cli", "render", None, None),
    ("config", "load_config", None, None),
    ("dense", "exact_type_sum", None, None),
    ("dense", "solve_variational", None, _record_solver),
    ("dense", "central_approx_constant", None, None),
    ("factor_graph", "exact_expected_Z", _exact_path, _record_types),
    ("factor_graph", "exact_expected_Z_exact", None, None),
    ("factor_graph", "solve_bethe", None, _record_solver),
    ("factor_graph", "ldpc_expected_codewords", None, None),
    ("factor_graph", "fg_constant_log", None, None),
    ("factor_graph", "lattice_step_s", None, None),
    ("factor_graph", "step_size_methods", None, None),
    ("factor_graph", "brute_force_permutation_oracle", None, _record_permutations),
    ("clt", "fg_type_covariances", None, None),
    ("clt", "dense_type_covariance", None, None),
    ("clt", "overlap_covariance", None, None),
    ("clt", "empirical_type_covariance_oracle", None, None),
)
# counted without a span, so their time stays in the caller's self time:
# (module, function, what to count)
COUNTED = (
    ("types_core", "det", "calls"),
    ("types_core", "type_array_blocks", "block_rows"),
    ("types_core", "enumerate_types", "items"),
)


class Instrumentation:
    """Wraps SPANNED and COUNTED functions in every package module; undoes it on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple] = []
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if n == "central_approx" or n.startswith("central_approx.")]

    def __enter__(self):
        for mod, fn_name, name_of, record in SPANNED:
            original = getattr(sys.modules[f"central_approx.{mod}"], fn_name)
            self._replace(original, self._spanned(f"{mod}.{fn_name}", original, name_of, record))
        for mod, fn_name, kind in COUNTED:
            original = getattr(sys.modules[f"central_approx.{mod}"], fn_name)
            self._replace(original, self._counted(f"{mod}.{fn_name}", original, kind))
        checks = tuple((name, self._spanned(f"acceptance.{name}", fn, None, None))
                       for name, fn in acceptance.CHECKS)
        self.saved.append((acceptance, "CHECKS", acceptance.CHECKS))
        acceptance.CHECKS = checks
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)
        self.saved.clear()

    def _replace(self, original, wrapper) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _spanned(self, name, fn, name_of, record):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            tracer.counts[span + ".calls"] += 1
            result = tracer.call(span, fn, args, kwargs)
            if record is not None:
                record(tracer.counts, span, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn, kind):
        counts = self.tracer.counts
        if kind == "calls":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
        elif kind == "block_rows":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for block in fn(*args, **kwargs):
                    counts[name + ".rows"] += len(block)
                    yield block
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name + ".rows"] += 1
                    yield item
        return wrapper


def layer_metrics(tracer: Tracer) -> dict:
    """Self times per span name, acceptance check times, and the counts."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    metrics: dict = defaultdict(float)
    for (name, start, end, _), child in zip(spans, covered):
        metrics[name + ".self_s"] += (end - start) - child
        if name.startswith("acceptance."):
            metrics[name + ".s"] += end - start
    metrics.update(tracer.counts)
    for solver in ("dense.solve_variational", "factor_graph.solve_bethe"):
        restarts = metrics.get(solver + ".restarts", 0)
        metrics[solver + ".converged_share"] = (
            metrics.get(solver + ".converged", 0) / restarts if restarts else 0.0)
    ldpc = "factor_graph.ldpc_expected_codewords"
    nested = 0
    for name, _, _, parent in spans:
        if name == "factor_graph.solve_bethe":
            while parent is not None and spans[parent][0] != ldpc:
                parent = spans[parent][3]
            nested += parent is not None
    metrics[ldpc + ".solve_bethe_calls"] = nested
    return dict(metrics)


def run_op(op, seed: int, work: str):
    """Run one op through cli.main; returns (exit code or error text, wall s)."""
    out = os.path.join(work, op.id + ".csv")
    if os.path.exists(out):
        os.remove(out)
    start = time.perf_counter()
    try:
        code = cli.main(op.argv(work, seed))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that crashes is counted as failed
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start


def run_round(ops, seed: int, work: str, reference: dict) -> dict:
    """Each op once untraced, then once traced, with both outputs checked.

    Pairing the two runs op by op keeps slow drift in machine speed out of
    trace.overhead_s.
    """
    tracer = Tracer()
    sides = {side: {"wall_s": 0.0, "attempted": 0, "failed": 0, "problems": []}
             for side in ("untraced", "traced")}
    for op in ops:
        for side, context in (("untraced", contextlib.nullcontext()),
                              ("traced", Instrumentation(tracer))):
            with context:
                code, wall = run_op(op, seed, work)
            failed, problems = check_pass([op], [(code, "")], work, reference)
            record = sides[side]
            record["wall_s"] += wall
            record["attempted"] += 1
            record["failed"] += failed
            record["problems"] += problems
    sides["traced"]["metrics"] = layer_metrics(tracer)
    sides["spans"] = tracer.spans
    return sides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    ops = WORKLOADS[args.workload].ops
    reference = load_reference()
    os.chdir(harness.ROOT)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + rounds[-1]["round_s"] <= args.seconds:
        t0 = time.perf_counter()
        rounds.append(run_round(ops, args.seed, args.work, reference))
        rounds[-1]["round_s"] = time.perf_counter() - t0
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "passes": [r.pop("spans") for r in rounds]}, fh)
    json.dump({"rounds": rounds}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
