"""The benchmark's workloads: fixed lists of `central-approx` CLI invocations.

Every op runs with the workload seed as its `--seed` and writes CSV to
`--out`.  The only seeded input is the float (3,6) factor table; every other
input is a fixed file under perfbench/inputs or configs/.  Paths are relative
to the root of the checkout, which is the working directory of every op.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass

INPUTS = "perfbench/inputs"
FLOAT_TABLE = "float36.json"  # written into the run's work directory
FLOAT_TABLE_N = (600, 1200, 2400)

# Odd-weight words of the float table draw from this interval; even words are
# 1.  The family keeps the Bethe maximizer unique and interior for every seed
# checked, and its ratios pass the agreement check (record_reference.py --scan-seeds).
ODD_WORD_RANGE = (0.25, 0.45)


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    `group` names the per-op wall-time metric the op counts towards.
    `reference` compares the CSV output to reference.json; `agreement`
    requires ratio -> 1 with |ratio - 1| shrinking as N grows.
    """

    id: str
    group: str
    args: tuple
    reference: bool = True
    agreement: bool = False

    def argv(self, work: str, seed: int) -> list[str]:
        args = [a.replace("{work}", work) for a in self.args]
        return args + ["--seed", str(seed), "--format", "csv",
                       "--out", os.path.join(work, self.id + ".csv")]


@dataclass(frozen=True)
class Workload:
    """An op list; why each workload was chosen is stated in BENCHMARK.json."""

    ops: tuple
    notes: str = ""

    @property
    def groups(self) -> list[str]:
        return list(dict.fromkeys(op.group for op in self.ops))


TERNARY = ("--l", "2", "--r", "2", "--alphabet", "0,1,2",
           "--factor", f"table:{INPUTS}/ternary22.txt")

WORKLOADS = {
    "exact-sums": Workload(
        ops=(
            Op("fg-parity36", "fg_binary_exact_s",
               ("fg-compare", "--l", "3", "--r", "6", "--factor", "parity",
                "--N", "60,120,240,480"), agreement=True),
            Op("fg-float36", "fg_binary_float_s",
               ("fg-compare", "--config", "{work}/" + FLOAT_TABLE,
                "--N", ",".join(map(str, FLOAT_TABLE_N))),
               reference=False, agreement=True),
            Op("fg-ternary22", "fg_general_s",
               ("fg-compare", *TERNARY, "--N", "6,8,10"), agreement=True),
            Op("dense-sk2", "dense_exact_s",
               ("dense-compare", "--config", f"{INPUTS}/sk2.json", "--N", "50,100,200"),
               agreement=True),
            Op("dense-sk3", "dense_exact_s",
               ("dense-compare", "--config", f"{INPUTS}/sk3.json", "--N", "10,16"),
               agreement=True),
        ),
    ),
    "solver": Workload(
        ops=(
            Op("ldpc-omega", "ldpc_omega_s",
               ("ldpc-codewords", "--l", "3", "--r", "6", "--N", "60,120", "--omega", "0.3")),
            Op("fg-asym-ternary22", "asymptotic_s",
               ("fg-asymptotic", *TERNARY, "--N", "10,100,1000")),
            Op("clt-factor", "asymptotic_s",
               ("clt-cov", "--config", "configs/parity36.json", "--kind", "factor")),
            Op("dense-asym-sk3", "asymptotic_s",
               ("dense-asymptotic", "--config", f"{INPUTS}/sk3.json", "--N", "10,100,1000")),
        ),
        notes=(
            "Low weight fractions are not timed. ldpc_expected_codewords(3, 6, 60, omega) "
            "for omega in {0.05, 0.1, 0.15} runs about 250 s each and then raises "
            "NonConvergenceError ('no Bethe restart converged'), so the CLI exits 3: the "
            "tilted marginal jumps from about 0.23 at theta=-1 to 1e-13 at theta=-2. "
            "The change that fixes this adds a low-omega op as a benchmark change of its own."
        ),
    ),
    "acceptance": Workload(
        ops=(
            Op("selftest", "selftest_s", ("selftest",)),
            Op("sk", "quick_s", ("sk", "--beta", "0.5", "--N", "1000")),
            Op("fg-s", "quick_s", ("fg-s", "--l", "3", "--r", "6", "--factor", "parity")),
            Op("rs-det", "quick_s", ("rs-det", "--config", "configs/sk_pqr.json")),
            Op("dense-cw", "quick_s",
               ("dense-compare", "--config", "configs/cw.json", "--N", "100,200,400,800"),
               agreement=True),
        ),
    ),
}


def float_table(seed: int) -> dict:
    """(3,6) factor-graph config: even-weight words 1, odd words seeded floats."""
    rng = random.Random(seed)
    values = [1 if sum(word) % 2 == 0 else rng.uniform(*ODD_WORD_RANGE)
              for word in itertools.product((0, 1), repeat=6)]
    return {"schema_version": 1, "model": "factor-graph", "l": 3, "r": 6,
            "alphabet": [0, 1], "factor": {"values": values}}


def write_inputs(work: str, seed: int) -> None:
    """Write the seeded inputs into the work directory."""
    with open(os.path.join(work, FLOAT_TABLE), "w", encoding="utf-8") as fh:
        json.dump(float_table(seed), fh)
