"""Command-line interface: formats, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from central_approx import acceptance, dense, factor_graph
from central_approx.cli import (
    COMMANDS,
    Report,
    _json_value,
    build_parser,
    fmt,
    main,
    parse_N_list,
    render,
)
from central_approx.config import load_config
from central_approx.errors import ValidationFailure

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def cw_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": "dense",
        "n": 1,
        "alphabet": [0, 1],
        "f": {"kind": "zero"},
        "g": {"kind": "poly", "terms": [{"coef": 0.5, "powers": {"0": 2}}]},
    }
    p = tmp_path / "cw.json"
    p.write_text(json.dumps(cfg))
    return str(p)


@pytest.fixture()
def fg_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": "factor-graph",
        "l": 3,
        "r": 6,
        "alphabet": [0, 1],
        "factor": "parity",
    }
    p = tmp_path / "fg.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_report(out: str) -> tuple[dict, list[dict]]:
    """A --format csv report's `# name = value` scalars and its table rows."""
    lines = out.splitlines()
    scalars = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    return scalars, list(csv.DictReader(line for line in lines if not line.startswith("#")))


def _src_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


_CONFIGS = ROOT / "configs"
_BAD_CONFIG = ROOT / "tests" / "missing.json"
_DENSE = {"dense", "types_core", "numpy"}
_FG = {"factor_graph", "types_core", "numpy"}


# The package modules beyond cli, config and errors that a run loads, plus
# numpy if it loads.  scipy and jsonschema are test oracles only and never
# load, not even in a run that validates a config.
@pytest.mark.parametrize("argv, code, loaded", [
    pytest.param([], 0, set(), id="import"),
    pytest.param(["--help"], 0, set(), id="help"),
    pytest.param(["sk", "--beta", "0.5", "--N", "1000"], 0, {"replica_rs"}, id="sk"),
    pytest.param(["rs-det", "--config", str(_CONFIGS / "sk_pqr.json")], 0, {"replica_rs"},
                 id="rs-det"),
    pytest.param(["rs-correction", "--config", str(_CONFIGS / "sk_pqr.json"), "--N", "100"],
                 0, {"replica_rs"}, id="rs-correction"),
    pytest.param(["dense-compare", "--config", str(_CONFIGS / "cw.json"), "--N", "10"],
                 0, _DENSE, id="dense-compare"),
    pytest.param(["dense-exact", "--config", str(_CONFIGS / "cw.json"), "--N", "10"],
                 0, _DENSE, id="dense-exact"),
    pytest.param(["dense-asymptotic", "--config", str(_CONFIGS / "cw.json"), "--N", "10"],
                 0, _DENSE, id="dense-asymptotic"),
    pytest.param(["fg-s", "--l", "3", "--r", "6", "--factor", "parity"], 0, _FG, id="fg-s"),
    pytest.param(["fg-compare", "--config", str(_CONFIGS / "parity36.json"), "--N", "12"],
                 0, _FG, id="fg-compare"),
    pytest.param(["fg-exact", "--l", "3", "--r", "6", "--factor", "parity", "--N", "12"],
                 0, _FG, id="fg-exact"),
    pytest.param(["fg-asymptotic", "--l", "3", "--r", "6", "--factor", "parity", "--N", "12"],
                 0, _FG, id="fg-asymptotic"),
    pytest.param(["ldpc-codewords", "--l", "3", "--r", "6", "--N", "60"], 0, _FG, id="ldpc"),
    pytest.param(["clt-cov", "--config", str(_CONFIGS / "cw.json")], 0,
                 {"clt", "dense", "types_core", "numpy"}, id="clt-cov"),
    pytest.param(["clt-cov", "--config", str(_CONFIGS / "parity36.json"), "--kind", "factor"],
                 0, _FG | {"clt"}, id="clt-cov-fg"),
    pytest.param(["selftest", "--only", "sk-correction"], 0,
                 {"acceptance", "clt", "dense", "factor_graph", "replica_rs", "types_core",
                  "numpy"}, id="selftest"),
    # input errors found before any model is built
    pytest.param(["dense-compare", "--config", str(_BAD_CONFIG), "--N", "10"], 2, set(),
                 id="unreadable-config"),
    pytest.param(["dense-exact", "--config", str(_CONFIGS / "parity36.json"), "--N", "10"],
                 2, set(), id="model-mismatch"),
    pytest.param(["fg-compare", "--N", "10"], 2, set(), id="missing-flags"),
    pytest.param(["clt-cov", "--config", str(_CONFIGS / "cw.json"), "--kind", "variable"], 2,
                 set(), id="clt-cov-bad-kind-dense"),
    pytest.param(["clt-cov", "--config", str(_CONFIGS / "parity36.json"), "--kind", "typo"], 2,
                 set(), id="clt-cov-bad-kind-fg"),
    pytest.param(["rs-det", "--n", "4"], 2, set(), id="missing-rs-flags"),
    pytest.param(["rs-det", "--n", "4", "--q", "0", "--r", "0", "--P", "nan", "--Q", "0",
                  "--R", "0"], 2, {"replica_rs"}, id="non-finite-rs"),
    pytest.param(["sk", "--beta", "0.5", "--N", "ten"], 2, {"replica_rs"}, id="bad-N-list"),
    # a bad --N list is read before the model is built, let alone solved; the
    # (2,2) all-equal ternary model would exit 3 at its solve
    pytest.param(["dense-compare", "--config", str(_CONFIGS / "cw.json"), "--N", "ten"], 2,
                 set(), id="bad-N-dense-compare"),
    pytest.param(["dense-asymptotic", "--config", str(_CONFIGS / "cw.json"), "--N", "0"], 2,
                 set(), id="bad-N-dense-asymptotic"),
    pytest.param(["fg-compare", "--l", "2", "--r", "2", "--alphabet", "0,1,2", "--factor",
                  "all-equal", "--N", "ten"], 2, set(), id="bad-N-fg-compare"),
    pytest.param(["fg-asymptotic", "--l", "2", "--r", "2", "--alphabet", "0,1,2", "--factor",
                  "all-equal", "--N", "0"], 2, set(), id="bad-N-fg-asymptotic"),
    pytest.param(["fg-exact", "--l", "3", "--r", "6", "--factor", "parity", "--N", "12,x"], 2,
                 set(), id="bad-N-fg-exact"),
    pytest.param(["ldpc-codewords", "--l", "3", "--r", "6", "--N", "0"], 2, set(),
                 id="ldpc-bad-N"),
    pytest.param(["dense-asymptotic", "--config", str(_CONFIGS / "cw.json"), "--N", "10",
                  "--seed", "-1"], 2, set(), id="negative-seed-dense-asymptotic"),
    pytest.param(["dense-compare", "--config", str(_CONFIGS / "cw.json"), "--N", "10",
                  "--seed", "-1"], 2, set(), id="negative-seed-dense-compare"),
    pytest.param(["fg-asymptotic", "--config", str(_CONFIGS / "parity36.json"), "--N", "12",
                  "--seed", "-1"], 2, set(), id="negative-seed-fg-asymptotic"),
    pytest.param(["fg-compare", "--config", str(_CONFIGS / "parity36.json"), "--N", "12",
                  "--seed", "-1"], 2, set(), id="negative-seed-fg-compare"),
    pytest.param(["clt-cov", "--config", str(_CONFIGS / "cw.json"), "--seed", "-1"], 2, set(),
                 id="negative-seed-clt-cov"),
    pytest.param(["sk", "--beta"], 2, set(), id="argparse-error"),
])
def test_command_loads_only_its_modules(argv, code, loaded):
    script = (
        "import json, sys, central_approx.cli as cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "names = {m.split('.')[1] for m in sys.modules if m.startswith('central_approx.')}\n"
        "names |= {m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy', 'jsonschema'}\n"
        "print(json.dumps([code, sorted(names - {'cli', 'config', 'errors'})]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=120, env=_src_env(), cwd=ROOT)
    assert proc.stdout, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [code, sorted(loaded)], proc.stderr


_NUMPY_FREE = {"numpy", "numpy.random", "dataclasses", "inspect"}
_RATIONALS = {"fractions", "decimal"}
_UNUSED_STDLIB = {"json", "csv"} | _RATIONALS
_MODEL = {"numpy.random", "dataclasses"}


# numpy.random costs a process about 6 MB and 15 ms; the solvers' restarts and
# the selftest draws come from the stdlib generator.  No command loads
# dataclasses: the records are plain classes and named tuples (the numpy-free
# commands skip inspect too, which numpy imports).  A run that reads no
# config and prints a table loads neither json nor csv, and fractions (with
# decimal) loads only where a rational is built: an exact sum over a rational
# table, a table file, the selftest's checks.  A dense model's symmetry check
# sums g's coefficients as integers, so no dense command loads it.
@pytest.mark.parametrize("argv, absent", [
    pytest.param(["fg-compare", "--config", str(_CONFIGS / "parity36.json"), "--N", "12"],
                 _MODEL, id="fg-compare"),
    pytest.param(["dense-compare", "--config", str(_CONFIGS / "cw.json"), "--N", "10"],
                 _MODEL | _RATIONALS, id="dense-compare"),
    pytest.param(["dense-exact", "--config", str(_CONFIGS / "cw.json"), "--N", "10"],
                 _MODEL | _RATIONALS, id="dense-exact"),
    pytest.param(["dense-asymptotic", "--config", str(_CONFIGS / "cw.json"), "--N", "10"],
                 _MODEL | _RATIONALS, id="dense-asymptotic"),
    pytest.param(["clt-cov", "--config", str(_CONFIGS / "cw.json")], _MODEL | _RATIONALS,
                 id="clt-cov-dense"),
    pytest.param(["clt-cov", "--config", str(_CONFIGS / "cw.json"), "--kind", "overlap"],
                 _MODEL | _RATIONALS, id="clt-cov-dense-overlap"),
    pytest.param(["clt-cov", "--config", str(_CONFIGS / "parity36.json"), "--kind", "factor"],
                 _MODEL | _RATIONALS, id="clt-cov-fg"),
    pytest.param(["clt-cov", "--config", str(_CONFIGS / "parity36.json")],
                 _MODEL | _RATIONALS, id="clt-cov-fg-variable"),
    pytest.param(["ldpc-codewords", "--l", "3", "--r", "6", "--N", "60", "--omega", "0.3"],
                 _MODEL | _RATIONALS, id="ldpc-omega"),
    pytest.param(["selftest"], _MODEL, id="selftest"),
    pytest.param(["--help"], _NUMPY_FREE | _UNUSED_STDLIB, id="help"),
    pytest.param(["sk", "--beta", "0.5", "--N", "1000"], _NUMPY_FREE | _UNUSED_STDLIB, id="sk"),
    pytest.param(["rs-det", "--config", str(_CONFIGS / "sk_pqr.json")], _NUMPY_FREE,
                 id="rs-det"),
    pytest.param(["rs-correction", "--config", str(_CONFIGS / "sk_pqr.json"), "--N", "100"],
                 _NUMPY_FREE, id="rs-correction"),
])
def test_command_leaves_heavy_modules_unloaded(argv, absent):
    # sys.modules is read before the script imports json to print
    script = (
        "import sys, central_approx.cli as cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"loaded = sorted(set(sys.modules).intersection({sorted(absent)!r}))\n"
        "import json\n"
        "print(json.dumps([code, loaded]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=120, env=_src_env(), cwd=ROOT)
    assert proc.stdout, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []], proc.stderr


def test_exact_sum_on_a_rational_table_loads_fractions():
    # the (3,6) parity table is rational, so fg-compare's exact sum builds one
    script = (
        "import sys, io, contextlib, central_approx.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, 'fractions' in sys.modules)\n"
    )
    argv = ["fg-compare", "--config", str(_CONFIGS / "parity36.json"), "--N", "12"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=120, env=_src_env(), cwd=ROOT)
    assert proc.stdout == "0 True\n", proc.stderr


def test_package_import_is_lazy():
    script = (
        "import sys, central_approx as ca\n"
        "assert 'numpy' not in sys.modules\n"
        "from central_approx import make_ensemble, exact_expected_Z, fg_asymptotic_estimate\n"
        "from central_approx.types_core import Alphabet\n"
        "ens = make_ensemble(3, 6, Alphabet((0.0, 1.0)), 'parity')\n"
        "print(exact_expected_Z(ens, 60), fg_asymptotic_estimate(ens, 60))\n"
        "from central_approx import factor_graph\n"
        "assert ca.make_ensemble is factor_graph.make_ensemble\n"
        "for name in ca.__all__:\n"
        "    getattr(ca, name)\n"
        "try:\n"
        "    ca.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    values, missing = proc.stdout.splitlines()
    exact, asymptotic = values.split()
    # the README's Python API example
    assert exact.startswith("20.795063") and asymptotic.startswith("20.794415")
    assert missing == "module 'central_approx' has no attribute 'no_such_name'"


def test_config_validation_after_lazy_schema_import(capsys, tmp_path):
    cfg = load_config(str(ROOT / "configs" / "cw.json"))
    assert cfg["model"] == "dense"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**cfg, "typo": 1}))
    code, out, err = run_cli(capsys, "dense-compare", "--config", str(bad), "--N", "10")
    assert code == 2 and out == ""
    assert err == f"error: {bad}: Additional properties are not allowed ('typo' was unexpected)\n"


@pytest.mark.parametrize("base, change, argv, message", [
    ("cw.json", {"model": ["dense"]}, ["dense-compare", "--N", "10"],
     "model: 'dense' was expected"),
    ("cw.json", {"model": {"name": "dense"}}, ["dense-compare", "--N", "10"],
     "model: 'dense' was expected"),
    ("cw.json", {"n": 14}, ["dense-compare", "--N", "10"],
     "symbol table |X|^n x pairs = 2^14 x 105 exceeds the guard (1048576)"),
    ("cw.json", {"g": {"kind": "poly", "terms": [{"coef": 1, "powers": {"1": 2}}]}},
     ["dense-compare", "--N", "10"], "pair position 1 out of range"),
    ("parity36.json", {"l": 2, "r": 21, "factor": "uniform"}, ["fg-exact", "--N", "2"],
     "word table |X|^r = 2^21 exceeds the guard (1048576)"),
    # json reads NaN, Infinity and integers of any size; none reaches a model
    ("sk_pqr.json", {"P": math.nan}, ["rs-det"], ": P: nan is not a finite number"),
    ("sk_pqr.json", {"P": 10**400}, ["rs-correction", "--N", "10"],
     ": P: integer out of float range"),
    ("cw.json", {"f": {"kind": "field", "h": -math.inf}}, ["dense-compare", "--N", "10"],
     ": f.h: -inf is not a finite number"),
    ("parity36.json", {"factor": {"values": [1, 10**400, 1, 1]}}, ["fg-exact", "--N", "2"],
     ": factor.values[1]: integer out of float range"),
    # numpy's seeding would reject a negative seed only after the model is built
    ("cw.json", {}, ["dense-asymptotic", "--N", "10", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    ("cw.json", {}, ["dense-compare", "--N", "10", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    ("parity36.json", {}, ["fg-asymptotic", "--N", "12", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    ("parity36.json", {}, ["fg-compare", "--N", "12", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    ("cw.json", {}, ["clt-cov", "--seed", "-1"], "--seed must be >= 0, got -1"),
    # each key of the retired guards block is refused by name, not ignored
    ("cw.json", {"guards": {"type_sum": 1}}, ["dense-exact", "--N", "10"],
     ": guards: Additional properties are not allowed ('type_sum' was unexpected)"),
    ("parity36.json", {"guards": {"type_pairs": 1}}, ["fg-exact", "--N", "12"],
     ": guards: Additional properties are not allowed ('type_pairs' was unexpected)"),
    ("cw.json", {"guards": {"allow_large": True}}, ["dense-compare", "--N", "10"],
     ": guards: Additional properties are not allowed ('allow_large' was unexpected)"),
])
def test_bad_config_exits_2(capsys, tmp_path, base, change, argv, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads((ROOT / "configs" / base).read_text()), **change}))
    code, out, err = run_cli(capsys, argv[0], "--config", str(bad), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv", [
    ["dense-exact", "--config", str(_CONFIGS / "cw.json"), "--N", "10"],
    ["rs-det", "--config", str(_CONFIGS / "sk_pqr.json")],
    ["rs-correction", "--config", str(_CONFIGS / "sk_pqr.json"), "--N", "100"],
    ["sk", "--beta", "0.5", "--N", "100"],
    ["fg-exact", "--config", str(_CONFIGS / "parity36.json"), "--N", "12"],
    ["fg-s", "--config", str(_CONFIGS / "parity36.json")],
    ["ldpc-codewords", "--l", "3", "--r", "6", "--N", "60", "--omega", "0.3"],
], ids=lambda argv: argv[0])
def test_seed_is_ignored_where_no_solver_restarts(capsys, argv):
    # README: only the commands with solver restarts read --seed; selftest is left
    # out here because its seconds column moves from run to run
    outputs = {run_cli(capsys, *argv, "--format", "csv", "--seed", seed) for seed in ("0", "9")}
    assert len(outputs) == 1 and next(iter(outputs))[0] == 0


@pytest.mark.parametrize("r, factor, message", [
    (21, "parity", "word table |X|^r = 2^21 exceeds the guard"),
    (21, "all-equal", "word table |X|^r = 2^21 exceeds the guard"),
    (21, "uniform", "word table |X|^r = 2^21 exceeds the guard"),
    (2, "table:{tmp}/absent.txt", "cannot read factor table"),
    (2, "table:{tmp}/binary.txt", "cannot read factor table"),
    (2, "table:{tmp}", "cannot read factor table"),
])
def test_bad_factor_flag_exits_2(capsys, tmp_path, r, factor, message):
    (tmp_path / "binary.txt").write_bytes(b"\x89PNG\xff\xfe")
    code, out, err = run_cli(capsys, "fg-exact", "--l", "2", "--r", str(r),
                             "--factor", factor.format(tmp=tmp_path), "--N", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_integer_valued_floats_run_as_integers(capsys, tmp_path):
    # JSON Schema counts 2.0 as an integer; the run must match the one with 2
    for name, change, argv in [
        ("perfbench/inputs/sk2.json", {"n": 2.0}, ["dense-compare", "--N", "10,20"]),
        ("configs/parity36.json", {"l": 3.0, "r": 6.0}, ["fg-exact", "--N", "12"]),
        ("configs/sk_pqr.json", {"n": 4.0}, ["rs-det"]),
    ]:
        floats = tmp_path / "floats.json"
        floats.write_text(json.dumps({**json.loads((ROOT / name).read_text()), **change}))
        runs = [run_cli(capsys, argv[0], "--config", str(path), *argv[1:])
                for path in (ROOT / name, floats)]
        assert runs[0][0] == 0 and runs[1] == runs[0]


def test_parse_N_list():
    assert parse_N_list("100,200,400") == [100, 200, 400]
    assert parse_N_list("7") == [7]
    with pytest.raises(ValidationFailure):
        parse_N_list("10,x")
    with pytest.raises(ValidationFailure):
        parse_N_list("0")
    with pytest.raises(ValidationFailure):
        parse_N_list("")


def test_fmt_twelve_digits():
    assert fmt(0.1 + 0.2) == "0.3"
    assert fmt(-7.192051811294522e-05) == "-7.19205181129e-05"
    assert fmt(3) == "3"
    assert fmt(True) == "true"
    assert fmt(float("-inf")) == "-inf"


def test_text_table_right_aligns_each_column():
    rep = Report("x")
    rep.scalar("N", 3)
    rep.table(["N", "value", "exact", "ok"],
              [(10, np.float64(-1.25), Fraction(1, 3), True), (200, 1e-20, None, False)])
    assert render(rep, "table") == ("N = 3\n\n"
                                    "  N  value  exact     ok\n"
                                    " 10  -1.25    1/3   true\n"
                                    "200  1e-20         false\n")
    rep.table(["a", "long name"], [])  # a header alone
    assert render(rep, "table") == "N = 3\n\na  long name\n"


@pytest.mark.parametrize("value, text, json_value", [
    (np.float64(0.1), "0.1", 0.1),
    (np.float64(1 / 3), "0.333333333333", 0.333333333333),
    (np.float32(0.1), "0.10000000149", 0.10000000149),
    (np.float64("nan"), "nan", "nan"),
    (np.float64("-inf"), "-inf", "-inf"),
    (np.int64(-7), "-7", -7),
    (np.bool_(True), "True", "True"),
    (Fraction(1, 3), "1/3", "1/3"),
    (Fraction(4, 2), "2", "2"),
    (False, "false", False),
    (3, "3", 3),
    (None, "", None),
    (math.nan, "nan", "nan"),
    (math.inf, "inf", "inf"),
    (-math.inf, "-inf", "-inf"),
    ("0|1", "0|1", "0|1"),
])
def test_formatting_needs_no_numpy(value, text, json_value):
    # the strings numpy-aware formatting gave; the CLI module imports no numpy
    assert fmt(value) == text
    got = _json_value(value)
    assert got == json_value and type(got) is type(json_value)


def test_sk_example(capsys):
    code, out, _ = run_cli(capsys, "sk", "--beta", "0.5", "--N", "1000")
    assert code == 0
    assert "correction = -7.19205" in out


def test_sk_sweep(capsys):
    code, out, _ = run_cli(capsys, "sk", "--beta", "0.5", "--N", "100,200", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["N", "correction"]  # row 0 is the beta comment
    assert [r[0] for r in rows[2:]] == ["100", "200"]


def test_sk_out_of_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "sk", "--beta", "1.5", "--N", "100")
    assert code == 2
    assert out == ""
    assert "outside (0, 1)" in err


def test_dense_compare_csv(capsys, cw_config):
    code, out, _ = run_cli(
        capsys, "dense-compare", "--config", cw_config,
        "--N", "100,200,400,800", "--format", "csv",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0] == ["N", "log_exact", "log_asymptotic", "ratio"]
    ratios = [abs(float(r[3]) - 1.0) for r in rows[1:]]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 1e-4


def test_csv_round_trip_at_printed_precision(capsys, cw_config):
    code, out, _ = run_cli(
        capsys, "dense-compare", "--config", cw_config, "--N", "100,400", "--format", "csv",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    for row in list(csv.reader(lines))[1:]:
        for cell in row:
            # parsing and re-printing at 12 significant digits is lossless
            assert format(float(cell), ".12g") == cell


def test_byte_identical_reruns(capsys, fg_config):
    argv = ["fg-compare", "--config", fg_config, "--N", "20,40", "--seed", "7"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_out_flag_writes_file(capsys, cw_config, tmp_path):
    dest = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "dense-exact", "--config", cw_config,
        "--N", "10", "--format", "csv", "--out", str(dest),
    )
    assert code == 0
    assert out == ""
    body = dest.read_text()
    assert body.startswith("N,log_exact")


def test_json_format(capsys, fg_config):
    code, out, _ = run_cli(
        capsys, "fg-asymptotic", "--config", fg_config, "--N", "20", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "fg-asymptotic"
    assert doc["scalars"]["s"] == 3
    assert doc["columns"] == ["N", "log_asymptotic"]


def test_fg_s_method_breakdown(capsys):
    code, out, _ = run_cli(capsys, "fg-s", "--l", "3", "--r", "6", "--factor", "parity")
    assert code == 0
    assert "s = 3" in out
    for method in ("snf", "residue_count", "prime_rank", "binary_gcd", "box_density"):
        assert method in out
    assert "1/3" in out  # box density is the reciprocal of s


def test_fg_s_past_the_residue_guard_exits_2(capsys):
    # 7 columns x 801 x 801 steps took about 6 s per route before the guard
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fg-s", "--l", "801", "--r", "4", "--factor", "parity")
    assert (code, out) == (2, "") and "exceeds the guard" in err
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("h", [1e-308, 5e-324, -1e-308])
def test_dense_exact_with_a_tiny_field(capsys, tmp_path, h):
    # a log-weight span below about 1.8e-306 once overflowed the block power
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "schema_version": 1, "model": "dense", "n": 1, "alphabet": [0, 1, 2],
        "f": {"kind": "field", "h": h}, "g": {"kind": "zero"}}))
    code, out, err = run_cli(capsys, "dense-exact", "--config", str(path), "--N", "6")
    assert (code, err) == (0, "") and "6.59167373201" in out


_OVERFLOW_COMMANDS = [["dense-exact", "--N", "10"], ["dense-compare", "--N", "10"],
                      ["dense-asymptotic", "--N", "10"], ["clt-cov"]]


# exit codes of valid dense models past the float range: with alphabet
# [1e200, 0] the pair product 1e200 * 1e200 overflows, and with [1e100, 0]
# N g(q) does; the solver drops every start at its first non-finite map value
@pytest.mark.parametrize("argv", _OVERFLOW_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("top", [1e200, 1e100])
def test_overflowing_dense_model_exits_3_at_once(capsys, tmp_path, top, argv):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "schema_version": 1, "model": "dense", "n": 1, "alphabet": [top, 0],
        "g": {"kind": "quadratic", "lam": 0.5}}))
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv[0], "--config", str(path), *argv[1:])
    assert (code, out, len(err.splitlines())) == (3, "", 1), err
    assert err.startswith("numerical failure: ") and "finite" in err
    assert not caught, [str(w.message) for w in caught]
    assert time.perf_counter() - start < 2.0


def test_overflowing_pair_products_stay_exact_without_coupling(capsys, tmp_path):
    # with g = 0 the infinite pair product never enters a weight: N log 2
    path = tmp_path / "free.json"
    path.write_text(json.dumps({
        "schema_version": 1, "model": "dense", "n": 1, "alphabet": [1e200, 0],
        "g": {"kind": "zero"}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "dense-exact", "--config", str(path), "--N", "10")
    assert (code, out, err) == (0, " N     log_exact\n10  6.9314718056\n", "")
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("g", [
    {"kind": "zero"}, {"kind": "quadratic", "lam": 0},
    # +1 and -1 on one monomial sum to exactly 0, so g has no terms
    {"kind": "poly", "terms": [{"coef": 1, "powers": {"0": 2}}, {"coef": -1, "powers": {"0": 2}}]},
], ids=["zero", "lam-0", "cancelling"])
@pytest.mark.parametrize("n", [1, 2])
def test_uncoupled_model_past_the_float_range_has_constant_zero(capsys, tmp_path, n, g):
    # with g = 0 the Gaussian factor is exactly 1 and needs no pair covariance,
    # which the overflowed pair product leaves infinite: the route commands
    # print N n log 2 and ratio 1, the type covariance is the multinomial one,
    # and only the overlap covariance, which is that pair covariance, exits 3
    path = tmp_path / "free.json"
    path.write_text(json.dumps({
        "schema_version": 1, "model": "dense", "n": n, "alphabet": [1e200, 0], "g": g}))
    cfg = ["--config", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compare = run_cli(capsys, "dense-compare", *cfg, "--N", "10,20", "--format", "csv")
        asymptotic = run_cli(capsys, "dense-asymptotic", *cfg, "--N", "10", "--format", "csv")
        types = run_cli(capsys, "clt-cov", *cfg, "--format", "csv")
        overlaps = run_cli(capsys, "clt-cov", *cfg, "--kind", "overlap")
    assert not caught, [str(w.message) for w in caught]
    code, out, err = compare
    assert (code, err) == (0, "")
    scalars, rows = _csv_report(out)
    assert scalars["log_constant"] == "0" and float(scalars["F"]) == pytest.approx(n * math.log(2))
    assert [row["ratio"] for row in rows] == ["1", "1"]
    assert [float(row["log_exact"]) for row in rows] == pytest.approx(
        [10 * n * math.log(2), 20 * n * math.log(2)], rel=1e-12)
    code, out, err = asymptotic
    assert (code, err) == (0, "")
    scalars, _ = _csv_report(out)
    assert (scalars["log_constant"], scalars["det"]) == ("0", "1")
    code, out, err = types
    assert (code, err) == (0, "")
    scalars, rows = _csv_report(out)
    K = 2**n  # the multinomial covariance diag(w) - w w^T at the uniform w
    assert (scalars["dim"], scalars["rank"]) == (str(K), str(K - 1))
    assert [float(row["value"]) for row in rows] == pytest.approx(
        [(1 / K if row["row"] == row["col"] else 0) - 1 / K**2 for row in rows], abs=1e-12)
    code, out, err = overlaps
    assert (code, out, len(err.splitlines())) == (3, "", 1), err
    assert err.startswith("numerical failure: pair covariance U' - U is not finite")


def test_fg_flags_equal_config(capsys, fg_config):
    by_flags = run_cli(capsys, "fg-compare", "--l", "3", "--r", "6",
                       "--factor", "parity", "--N", "20")
    by_config = run_cli(capsys, "fg-compare", "--config", fg_config, "--N", "20")
    assert by_flags == by_config


def test_fg_needs_model(capsys):
    code, _, err = run_cli(capsys, "fg-exact", "--N", "20")
    assert code == 2
    assert "--config" in err


_NOT_ADMITTED = "error: N=61 is not admissible for (l,r)=(3,6): r must divide N*l\n"


def test_fg_asymptotic_refuses_an_N_the_ensemble_does_not_admit(capsys):
    # no (3,6) graph has 61 variables, so there is no E[Z] to approximate
    assert run_cli(capsys, "fg-asymptotic", "--l", "3", "--r", "6", "--factor", "parity",
                   "--N", "61") == (2, "", _NOT_ADMITTED)


def test_fg_compare_refuses_an_N_the_ensemble_does_not_admit_before_it_solves(
        capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_bethe ran")

    monkeypatch.setattr(factor_graph, "solve_bethe", no_solve)
    assert run_cli(capsys, "fg-compare", "--l", "3", "--r", "6", "--factor", "parity",
                   "--N", "60,61") == (2, "", _NOT_ADMITTED)


# the (3,6) parity run's output, which counting the step-size calls must not move
_PARITY_ASYMPTOTIC = """\
# F = 0.34657359028
# log_constant = -1.22124532709e-15
# s = 3
N,log_asymptotic
12,4.15888308336
60,20.7944154168
"""


def test_fg_asymptotic_computes_the_step_size_once(capsys, monkeypatch):
    # the constant and the printed s share one Smith-form step size
    calls = []
    step = factor_graph.lattice_step_s

    def counted(ensemble):
        calls.append(ensemble)
        return step(ensemble)

    monkeypatch.setattr(factor_graph, "lattice_step_s", counted)
    argv = ["--l", "3", "--r", "6", "--factor", "parity", "--N", "12,60", "--format", "csv"]
    assert run_cli(capsys, "fg-asymptotic", *argv) == (0, _PARITY_ASYMPTOTIC, "")
    assert len(calls) == 1
    assert run_cli(capsys, "fg-compare", *argv)[0] == 0
    assert len(calls) == 2


_DENSE_ARGV = ["--config", str(_CONFIGS / "cw.json"), "--N", "10"]
_FG_ARGV = ["--l", "3", "--r", "6", "--factor", "parity", "--N", "12"]


# --allow-large lifts only an exact sum's guard, so only the four commands that
# sum take it; the dense commands take their model from --config alone
@pytest.mark.parametrize("argv, parses", [
    (["fg-exact", *_FG_ARGV, "--allow-large"], True),
    (["fg-compare", *_FG_ARGV, "--allow-large"], True),
    (["fg-asymptotic", *_FG_ARGV, "--allow-large"], False),
    (["dense-asymptotic", *_DENSE_ARGV, "--allow-large"], False),
    (["dense-exact", *_DENSE_ARGV, "--l", "3"], False),
    (["dense-asymptotic", *_DENSE_ARGV, "--l", "3"], False),
    (["dense-compare", *_DENSE_ARGV, "--l", "3"], False),
    (["dense-exact", *_DENSE_ARGV, "--factor", "parity"], False),
    (["dense-compare", *_DENSE_ARGV, "--factor", "parity"], False),
    (["dense-exact", *_DENSE_ARGV, "--allow-large"], True),
    (["dense-compare", *_DENSE_ARGV, "--allow-large"], True),
])
def test_route_commands_take_only_their_flags(capsys, argv, parses):
    if parses:
        assert build_parser().parse_args(argv).allow_large is True
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


_CW_TWO_SIZES = ["--config", str(_CONFIGS / "cw.json"), "--N", "10,20"]
_PARITY_TWO_SIZES = ["--l", "3", "--r", "6", "--factor", "parity", "--N", "12,24"]


@pytest.mark.parametrize("command", ["dense-compare", "dense-asymptotic",
                                     "fg-compare", "fg-asymptotic"])
def test_route_commands_solve_once_and_build_one_record(capsys, monkeypatch, command):
    # the route solves once and builds one record, which every N and scalar reads
    if command.startswith("dense-"):
        argv, module = _CW_TWO_SIZES, dense
        solver, constant = "solve_variational", "central_approx_constant"
    else:
        argv, module = _PARITY_TWO_SIZES, factor_graph
        solver, constant = "solve_bethe", "fg_constant_log"
    calls = {solver: 0, constant: 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert run_cli(capsys, command, *argv)[0] == 0
    assert calls == {solver: 1, constant: 1}


def _parser_exit(capsys, parse, argv) -> tuple:
    """(exit code, stdout, stderr) of an argv that argparse ends itself."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


# main builds the flags of the named command alone; what argparse prints must
# be what a parser with every command's flags prints
@pytest.mark.parametrize("argv", [
    ["--help"], ["-h", "sk"], [], ["nope"], ["nope", "sk"], ["--bogus", "sk", "--N", "2"],
    *([name, "--help"] for name in COMMANDS),
    ["fg-compare", "--l", "3"], ["dense-exact", "--config", "cw.json"], ["ldpc-codewords"],
    ["sk", "--beta", "x", "--N", "3"], ["sk", "--beta", "1", "--N", "2", "--format", "xml"],
    ["fg-asymptotic", *_FG_ARGV, "--allow-large"],
], ids=" ".join)
def test_parser_prints_what_a_full_build_prints(capsys, argv):
    full = _parser_exit(capsys, build_parser().parse_args, argv)
    assert _parser_exit(capsys, main, argv) == full
    code, out, err = full
    if "--help" in argv or "-h" in argv:
        assert (code, err) == (0, "") and out.startswith("usage: central-approx")
    else:
        assert (code, out) == (2, "") and "central-approx" in err


def test_parser_errors_keep_their_messages(capsys):
    code, _, err = _parser_exit(capsys, main, ["nope"])
    assert code == 2 and err.endswith(
        "error: argument command: invalid choice: 'nope' (choose from "
        + ", ".join(map(repr, COMMANDS)) + ")\n")
    code, _, err = _parser_exit(capsys, main, ["fg-compare", "--l", "3"])
    assert code == 2 and err.endswith(
        "central-approx fg-compare: error: the following arguments are required: --N\n")


def test_main_builds_only_the_named_commands_flags(monkeypatch):
    # each add_argument call builds a HelpFormatter: -h for the top level and
    # for each command, then sk's two flags and the three output flags
    import argparse

    calls = []
    add_argument = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *a, **kw: calls.append(a) or add_argument(self, *a, **kw))
    assert main(["sk", "--beta", "0.5", "--N", "10", "--out", os.devnull]) == 0
    flags = [a for a in calls if a != ("-h", "--help")]
    assert len(calls) - len(flags) == 1 + len(COMMANDS)
    assert flags == [("--beta",), ("--N",), ("--format",), ("--out",), ("--seed",)]


def test_fg_table_factor(capsys, tmp_path):
    table = tmp_path / "factor.txt"
    table.write_text("0 0 1\n0 1 2\n1 0 2\n1 1 1/3\n")
    code, out, _ = run_cli(
        capsys, "fg-exact", "--l", "2", "--r", "2",
        "--factor", f"table:{table}", "--N", "2",
    )
    assert code == 0
    assert "log_exact" in out


def test_fg_table_value_below_the_float_range_exits_2(capsys, tmp_path):
    # 1e-400 reads as an exact rational whose float is 0.0
    table = tmp_path / "factor.txt"
    table.write_text("0 0 1\n0 1 0\n1 0 0\n1 1 1e-400\n")
    code, out, err = run_cli(capsys, "fg-exact", "--l", "2", "--r", "2",
                             "--factor", f"table:{table}", "--N", "2")
    assert (code, out) == (2, "")
    assert err == "error: positive factor values must not round to 0.0 as floats\n"


def test_rs_det_flags_and_config(capsys, tmp_path):
    argv = ["rs-det", "--n", "4", "--q", "0.1", "--r", "0.05",
            "--P", "0.2", "--Q", "0.1", "--R", "0.05"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "determinant =" in out

    cfg = {"schema_version": 1, "model": "rs", "n": 4,
           "q": 0.1, "r": 0.05, "P": 0.2, "Q": 0.1, "R": 0.05}
    p = tmp_path / "rs.json"
    p.write_text(json.dumps(cfg))
    code2, out2, _ = run_cli(capsys, "rs-det", "--config", str(p))
    assert (code2, out2) == (code, out)


def test_rs_det_missing_flags(capsys):
    code, _, err = run_cli(capsys, "rs-det", "--n", "4", "--q", "0.1")
    assert code == 2
    assert "--config" in err


def test_rs_correction(capsys):
    code, out, _ = run_cli(
        capsys, "rs-correction", "--n", "4", "--q", "0.1", "--r", "0.05",
        "--P", "0.2", "--Q", "0.1", "--R", "0.05", "--N", "500",
    )
    assert code == 0
    assert "correction =" in out


@pytest.mark.parametrize("argv, message", [
    (["rs-det", "--n", "1"], "need at least two replicas, got n=1"),
    (["rs-det", "--n", "0"], "need at least two replicas, got n=0"),
    (["rs-correction", "--n", "1", "--N", "10"], "need at least two replicas, got n=1"),
    (["rs-correction", "--n", "0", "--N", "10"], "need at least two replicas, got n=0"),
    (["rs-correction", "--n", "4", "--N", "0"], "need N >= 1, got N=0"),
    (["rs-correction", "--n", "4", "--N", "-5"], "need N >= 1, got N=-5"),
])
def test_bad_rs_input_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--q", "0", "--r", "0", "--P", "0.1",
                             "--Q", "0", "--R", "0")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_ldpc_codewords(capsys):
    code, out, _ = run_cli(
        capsys, "ldpc-codewords", "--l", "3", "--r", "6",
        "--N", "60", "--omega", "0.3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    growth = row[doc["columns"].index("growth_rate")]
    assert growth == pytest.approx(0.26621528497226573, rel=1e-10)


def test_ldpc_omega_rows_solve_the_tilt_once(capsys, monkeypatch):
    calls = []
    original = factor_graph.solve_bethe

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(factor_graph, "solve_bethe", counting)
    code, out, _ = run_cli(capsys, "ldpc-codewords", "--l", "3", "--r", "6",
                           "--N", "60,120", "--omega", "0.3", "--format", "csv")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows == [
        "N,log_expected_count,growth_rate,log_constant,theta",
        "60,16.0846075241,0.266215284972,0.111690425777,-0.791633073277",
        "120,32.0575246224,0.266215284972,0.111690425777,-0.791633073277",
    ]
    assert calls == []  # the weight fraction fixes the letter marginal: no Bethe solve


def test_ldpc_low_weight_exits_3_at_once(capsys):
    # at omega <= 0.15 on (3,6), det(I - C(V'-V)) <= 0: the tilted-total
    # constant does not exist there
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "ldpc-codewords", "--l", "3", "--r", "6",
                             "--N", "60", "--omega", "0.1")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: fluctuation determinant -1.128513e-01: "
                          "not a maximum ")
    assert err.count("\n") == 1
    code, out, err = run_cli(capsys, "ldpc-codewords", "--l", "3", "--r", "6",
                             "--N", "60", "--omega", "5e-324")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: maximizer touches the simplex boundary "
                          "(min weight 4.94e-324)")
    assert err.count("\n") == 1
    # the upper edge refuses as the lower one does: a boundary marginal (at
    # 5e-324 above it is checked before the tilt, which overflows there), and
    # just inside the boundary a point that is not a maximum
    code, out, err = run_cli(capsys, "ldpc-codewords", "--l", "3", "--r", "6",
                             "--N", "60", "--omega", "0.9999999999999999")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: maximizer touches the simplex boundary "
                          "(min weight 1.11e-16)")
    assert err.count("\n") == 1
    code, out, err = run_cli(capsys, "ldpc-codewords", "--l", "3", "--r", "6",
                             "--N", "60", "--omega", "0.999999")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: fluctuation determinant -3.333312e-01: "
                          "not a maximum ")
    assert err.count("\n") == 1


BOUNDARY_CONFIGS = {
    # nu(1) = e^-30 / (1 + e^-30) ~ 9.4e-14, which the solver resolves only to
    # about FIXED_POINT_TOL: no trustworthy covariance exists there
    "dense-h30": {"model": "dense", "n": 1, "alphabet": [0, 1],
                  "f": {"kind": "field", "h": -30},
                  "g": {"kind": "quadratic", "lam": 0.5}},
    # the Bethe maximizer of the binary (3,4) all-equal graph concentrates on
    # one letter
    "all-equal34": {"model": "factor-graph", "l": 3, "r": 4, "alphabet": [0, 1],
                    "factor": "all-equal"},
}


@pytest.mark.parametrize("config,kind", [
    ("dense-h30", "type"), ("dense-h30", "overlap"),
    ("all-equal34", "variable"), ("all-equal34", "factor"),
])
def test_clt_cov_boundary_maximizer_exits_3(capsys, tmp_path, config, kind):
    # the covariances follow the constants' boundary rule
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({"schema_version": 1, **BOUNDARY_CONFIGS[config]}))
    code, out, err = run_cli(capsys, "clt-cov", "--config", str(path), "--kind", kind)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: maximizer touches the simplex boundary ")
    assert err.count("\n") == 1


def test_ldpc_infeasible_weight_is_minus_inf(capsys):
    code, out, _ = run_cli(
        capsys, "ldpc-codewords", "--l", "2", "--r", "3",
        "--N", "30", "--omega", "0.9", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0][1] == "-inf"


def test_ldpc_bad_weight_exits_2(capsys):
    code, _, err = run_cli(capsys, "ldpc-codewords", "--l", "2", "--r", "3",
                           "--N", "30", "--omega", "1.1")
    assert code == 2
    assert "[0, 1]" in err


def test_numerical_failure_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "fg-asymptotic", "--l", "3", "--r", "3",
        "--alphabet", "0,1,2", "--factor", "all-equal", "--N", "9",
    )
    assert code == 3
    assert "boundary" in err


@pytest.mark.parametrize("alphabet", ["0,1", "0,1,2"])
def test_flat_maximum_exits_3_as_singular(capsys, alphabet):
    # (2,2) all-equal: F is flat on the whole simplex, so I - R B R is 0 on
    # every letter direction but the normalization
    code, out, err = run_cli(capsys, "fg-asymptotic", "--l", "2", "--r", "2",
                             "--alphabet", alphabet, "--factor", "all-equal", "--N", "10")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: fluctuation determinant is singular ")


def test_failure_reason_reaches_out_file(capsys, tmp_path):
    dest = tmp_path / "report.txt"
    code, _, _ = run_cli(
        capsys, "fg-asymptotic", "--l", "3", "--r", "3",
        "--alphabet", "0,1,2", "--factor", "all-equal", "--N", "9",
        "--out", str(dest),
    )
    assert code == 3
    assert "boundary" in dest.read_text()


@pytest.mark.parametrize("argv, before", [
    pytest.param(["sk", "--beta", "0.5", "--N", "1000"], [], id="report"),
    pytest.param(["selftest", "--only", "bogus"], ["error: unknown checks: bogus;"],
                 id="input-error"),
    pytest.param(["fg-asymptotic", "--l", "3", "--r", "3", "--alphabet", "0,1,2",
                  "--factor", "all-equal", "--N", "9"], ["numerical failure:"],
                 id="numerical-failure"),
])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_exits_2(capsys, tmp_path, argv, before, where):
    dest = tmp_path if where == "directory" else tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(dest))
    lines = err.splitlines()
    assert (code, out, len(lines)) == (2, "", len(before) + 1), err
    for line, start in zip(lines, before + [f"error: cannot write {dest}: "]):
        assert line.startswith(start)


_PARITY36 = str(_CONFIGS / "parity36.json")
_SK_PQR = str(_CONFIGS / "sk_pqr.json")


@pytest.mark.parametrize("argv, flags", [
    pytest.param(["fg-exact", "--config", _PARITY36, "--l", "4", "--r", "8", "--N", "12"],
                 "--l, --r", id="fg-exact"),
    pytest.param(["fg-asymptotic", "--config", _PARITY36, "--alphabet", "0,1", "--N", "12"],
                 "--alphabet", id="fg-asymptotic"),
    pytest.param(["fg-s", "--config", _PARITY36, "--factor", "all-equal"], "--factor",
                 id="fg-s"),
    pytest.param(["rs-det", "--config", _SK_PQR, "--n", "7"], "--n", id="rs-det"),
    pytest.param(["rs-correction", "--config", _SK_PQR, "--q", "0.1", "--R", "0", "--N", "100"],
                 "--q, --R", id="rs-correction"),
])
def test_config_with_model_flags_exits_2(capsys, argv, flags):
    assert run_cli(capsys, *argv) == (2, "", f"error: --config sets the model; drop {flags}\n")


def test_model_mismatch_exits_2(capsys, fg_config):
    code, _, err = run_cli(capsys, "dense-exact", "--config", fg_config, "--N", "10")
    assert code == 2
    assert "need dense" in err


def test_clt_cov_dense(capsys, cw_config):
    code, out, _ = run_cli(capsys, "clt-cov", "--config", cw_config, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scalars"]["kind"] == "type"
    assert doc["scalars"]["dim"] == 2
    assert doc["scalars"]["rank"] == 1
    # symmetric 2x2 has three stored entries (upper triangle)
    assert len(doc["rows"]) == 3


@pytest.mark.parametrize("config,kind", [
    ("configs/parity36.json", "factor"),
    ("configs/parity36.json", "variable"),
    ("perfbench/inputs/sk3.json", "type"),
    ("configs/cw.json", "type"),
])
def test_clt_cov_singular_min_eigenvalue_is_zero(capsys, config, kind):
    # a singular covariance prints 0, not the LU rounding noise (about 1e-17)
    # of its smallest eigenvalue
    code, out, _ = run_cli(capsys, "clt-cov", "--config", str(ROOT / config),
                           "--kind", kind, "--format", "csv")
    assert code == 0
    scalars = dict(line[2:].split(" = ") for line in out.splitlines() if line.startswith("# "))
    assert int(scalars["rank"]) < int(scalars["dim"])
    assert scalars["min_eigenvalue"] == "0"


def test_clt_cov_entries_zero_up_to_rounding_print_zero(capsys):
    # the sk3 type covariance of each antipodal pair of spin words is 0; its
    # rounding noise (below 1e-17) is stored as exactly 0
    code, out, _ = run_cli(capsys, "clt-cov", "--config", str(ROOT / "perfbench/inputs/sk3.json"),
                           "--kind", "type", "--format", "csv")
    assert code == 0
    values = {(row, col): value for row, col, value in
              (line.split(",") for line in out.splitlines()[5:])}
    antipodal = [("1|1|1", "-1|-1|-1"), ("1|1|-1", "-1|-1|1"),
                 ("1|-1|1", "-1|1|-1"), ("1|-1|-1", "-1|1|1")]
    assert [values[pair] for pair in antipodal] == ["0"] * 4


def test_clt_cov_fg_variable(capsys, tmp_path):
    cfg = {"schema_version": 1, "model": "factor-graph", "l": 2, "r": 3,
           "alphabet": [0, 1], "factor": "parity"}
    p = tmp_path / "fg23.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "clt-cov", "--config", str(p),
                           "--kind", "variable", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    diag = next(v for a, b, v in doc["rows"] if a == b == "0")
    # l/(4r) for binary parity at the uniform maximizer
    assert diag == pytest.approx(2 / 12, rel=1e-9)


def test_clt_cov_bad_kind_exits_2(capsys, cw_config):
    code, _, err = run_cli(capsys, "clt-cov", "--config", cw_config, "--kind", "factor")
    assert code == 2
    assert "type, overlap" in err


def test_selftest_subset(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only",
                           "sk-correction,matrix-identities")
    assert code == 0
    assert out.count("PASS") == 2
    assert "FAIL" not in out


def test_selftest_unknown_check_exits_2(capsys):
    code, _, err = run_cli(capsys, "selftest", "--only", "bogus")
    assert code == 2
    assert "unknown checks" in err


def test_selftest_failure_exits_nonzero(capsys, monkeypatch):
    def broken():
        return False, "synthetic failure"

    monkeypatch.setattr(acceptance, "CHECKS", (("broken-check", broken),))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL" in out and "synthetic failure" in out


def test_selftest_crash_is_failure(capsys, monkeypatch):
    def crashing():
        raise RuntimeError("exploded")

    monkeypatch.setattr(acceptance, "CHECKS", (("crashing-check", crashing),))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "RuntimeError: exploded" in out
