"""The package's option surface: knobs that were folded into constants or
into the guard argument must not come back."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import central_approx

ROOT = Path(__file__).resolve().parents[1]

# allow_large: guard=None lifts a guard; max_rows: types_core.TYPE_BLOCK_ROWS;
# batch: BRUTE_FORCE_BATCH in tests/oracles.py; density_box_L:
# step_size_methods adds the box density itself whenever l is odd; ref_word,
# ref_symbol: the step size does not depend on the reference; f_exact: an
# ensemble derives it from its table; mu_star: the Bethe word measure is a
# function of its letter marginal (factor_graph._bethe_mu)
RETIRED = {"allow_large", "max_rows", "batch", "density_box_L", "ref_word", "ref_symbol",
           "f_exact", "mu_star"}


def _functions():
    """(qualified name, function) for every function and method defined in
    a module of the package."""
    for info in pkgutil.iter_modules(central_approx.__path__):
        module = importlib.import_module(f"central_approx.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_every_module_is_seen():
    names = {qualified.rsplit(".", 1)[0] for qualified, _ in _functions()}
    assert {"central_approx.types_core", "central_approx.dense", "central_approx.clt",
            "central_approx.factor_graph", "central_approx.cli",
            "central_approx.acceptance"} <= names


def test_no_signature_has_a_retired_option():
    found = {qualified: sorted(RETIRED & set(inspect.signature(fn).parameters))
             for qualified, fn in _functions()}
    assert {k: v for k, v in found.items() if v} == {}


def test_solvers_take_only_a_seed():
    # the restart count is the constant types_core.RESTARTS, and both solvers
    # return the one record type, no subclass
    from central_approx.dense import DenseModelSpec, PolyOverlap, solve_variational, zero_local
    from central_approx.factor_graph import make_ensemble, solve_bethe
    from central_approx.types_core import Alphabet, MaximizerRecord

    binary = Alphabet((0.0, 1.0))
    for solver, model in (
            (solve_variational, DenseModelSpec(1, binary, zero_local(),
                                               PolyOverlap.quadratic(1, 0.5))),
            (solve_bethe, make_ensemble(3, 6, binary, "parity"))):
        params = inspect.signature(solver).parameters
        assert "restarts" not in params
        assert [p.name for p in params.values() if p.kind is p.KEYWORD_ONLY] == ["seed"]
        assert type(solver(model)) is MaximizerRecord


def test_every_name_in_a_modules_all_resolves():
    # a name dropped from a module must leave its __all__ too
    missing = []
    for module in (central_approx, *(importlib.import_module(f"central_approx.{info.name}")
                                     for info in pkgutil.iter_modules(central_approx.__path__))):
        missing += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert len(central_approx.__all__) > 10
    assert missing == []


def _traced_names() -> tuple[list, list]:
    """perfbench/traced.py's wrapped (module, function) pairs in SPANNED and
    COUNTED, and its imports from the package.  Read with ast, since
    importing the file needs perfbench's own modules on the path."""
    tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8"))
    wrapped, imports = [], []
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets in (["SPANNED"], ["COUNTED"]):
            wrapped += [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("central_approx"):
            imports.append(node)
    return wrapped, imports


def test_traced_benchmark_names_resolve():
    # traced.py wraps the functions in SPANNED and COUNTED by name
    wrapped, imports = _traced_names()
    for node in imports:
        exec(compile(ast.Module([node], []), "traced.py", "exec"), {})  # ImportError if gone
    assert len(wrapped) > 20
    missing = [f"{module}.{name}" for module, name in wrapped
               if not callable(getattr(importlib.import_module(f"central_approx.{module}"),
                                       name, None))]
    assert missing == []


def test_record_reference_names_resolve():
    # perfbench/record_reference.py imports from the package inside its
    # functions (read with ast, since the script needs perfbench's modules on
    # the path), and --scan-seeds reads a solution's unique and boundary
    tree = ast.parse((ROOT / "perfbench" / "record_reference.py").read_text(encoding="utf-8"))
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("central_approx")
             for alias in node.names]
    assert ("central_approx.factor_graph", "fg_asymptotic_estimate") in names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    from central_approx.factor_graph import make_ensemble, solve_bethe
    from central_approx.types_core import Alphabet

    solution = solve_bethe(make_ensemble(3, 6, Alphabet((0.0, 1.0)), "parity"))
    assert (solution.unique, solution.boundary) == (True, False)


def test_traced_imports_load_every_wrapped_module():
    # traced.py reads each wrapped module from sys.modules after only its own
    # imports, so those imports must load every module it wraps; a module the
    # package imported lazily instead would fail --trace 1 with a KeyError
    wrapped, imports = _traced_names()
    modules = sorted({f"central_approx.{module}" for module, _ in wrapped})
    script = "\n".join([*map(ast.unparse, imports), "import sys",
                        f"print(sorted(set({modules!r}) - set(sys.modules)))"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert len(modules) > 5
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_no_module_imports_dataclasses():
    # every record is a plain class or a named tuple: dataclasses (about 5 ms
    # per process, with its generated classes) would load in every command
    # that builds one.  Imports inside functions count too.
    found = []
    for path in sorted((ROOT / "src" / "central_approx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for module in modules
                      if module.partition(".")[0] == "dataclasses"]
    assert len(list((ROOT / "src" / "central_approx").glob("*.py"))) > 5
    assert found == []
