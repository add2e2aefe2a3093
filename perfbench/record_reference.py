"""Record the reference outputs that checks.py compares every op against.

    python3 perfbench/record_reference.py [--seed N]
    python3 perfbench/record_reference.py --scan-seeds COUNT

The first form runs every op with `reference=True` once, from the root of
the checkout, and rewrites perfbench/reference.json.  Run it only at a commit
whose outputs are trusted; the committed file was recorded at the seed
commit of the benchmark.

The second form checks the seeded float table instead: for seeds
0..COUNT-1 the (3,6) Bethe maximizer must be unique and interior, and the
exact and asymptotic routes must pass check_agreement at the N the
workload uses.
"""

import argparse
import json
import math
import os
import sys
import tempfile

import harness
from checks import REFERENCE_PATH, check_agreement, parse_report
from workloads import FLOAT_TABLE_N, WORKLOADS, float_table


def record(seed: int) -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=harness.ROOT) as work:
        for workload in WORKLOADS.values():
            for op in workload.ops:
                if not op.reference or op.id in reference:
                    continue
                code, wall, _, _ = harness.run_child(
                    harness.cli_argv(*op.argv(work, seed)), timeout=600)
                if code != 0:
                    print(f"{op.id}: exit {code}", file=sys.stderr)
                    return 1
                with open(os.path.join(work, op.id + ".csv"), encoding="utf-8") as fh:
                    reference[op.id] = parse_report(fh.read())
                print(f"{op.id}: {wall:.2f} s")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in reference.items()) + "\n}\n")
    return 0


def scan_seeds(count: int) -> int:
    sys.path.insert(0, harness.SRC)
    from central_approx.config import build_ensemble
    from central_approx.factor_graph import exact_expected_Z, fg_asymptotic_estimate, solve_bethe

    bad = []
    for seed in range(count):
        ens = build_ensemble(float_table(seed))
        sol = solve_bethe(ens, seed=seed)
        if not sol.unique or sol.boundary:
            bad.append((seed, "maximizer not unique and interior"))
            continue
        rows = [[str(N), repr(math.exp(exact_expected_Z(ens, N)
                                       - fg_asymptotic_estimate(ens, N, sol)))]
                for N in FLOAT_TABLE_N]
        bad += [(seed, p) for p in check_agreement({"columns": ["N", "ratio"], "rows": rows})]
    print(f"{count} seeds scanned; failures: {bad}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scan-seeds", type=int, metavar="COUNT")
    args = parser.parse_args(argv)
    harness.require_source()
    if args.scan_seeds is not None:
        return scan_seeds(args.scan_seeds)
    return record(args.seed)


if __name__ == "__main__":
    sys.exit(main())
