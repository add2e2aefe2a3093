"""The package's option surface: knobs that were folded into constants or
into the guard argument must not come back."""

import importlib
import inspect
import pkgutil

import central_approx

# allow_large: guard=None lifts a guard; max_rows: types_core.TYPE_BLOCK_ROWS;
# batch: dense.BRUTE_FORCE_BATCH; density_box_L: step_size_methods adds the
# box density itself whenever l is odd
RETIRED = {"allow_large", "max_rows", "batch", "density_box_L"}


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
    # the restart count is the constant types_core.RESTARTS
    from central_approx.dense import solve_variational
    from central_approx.factor_graph import solve_bethe

    for solver in (solve_variational, solve_bethe):
        params = inspect.signature(solver).parameters
        assert "restarts" not in params
        assert [p.name for p in params.values() if p.kind is p.KEYWORD_ONLY] == ["seed"]
