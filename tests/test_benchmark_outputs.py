"""The benchmark's ops, run in process, print the outputs it checks.

perfbench/run.py times each op as a CLI process and rejects a pass whose
outputs move from perfbench/reference.json or lose exact/asymptotic
agreement.  This runs the same ops once through cli.main with the same
checks, so an output move shows in the test suite and not first in a
benchmark run.
"""

from pathlib import Path

from central_approx.cli import main

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def test_benchmark_ops_pass_their_checks(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from checks import check_pass, load_reference
    from workloads import WORKLOADS, write_inputs

    monkeypatch.chdir(ROOT)  # op arguments are paths from the root of the checkout
    work = str(tmp_path)
    write_inputs(work, SEED)
    ops = [op for workload in WORKLOADS.values() for op in workload.ops]
    exits = []
    for op in ops:
        code = main(op.argv(work, SEED))
        exits.append((code, capsys.readouterr().err.strip()))
    assert check_pass(ops, exits, work, load_reference()) == (0, [])
