"""Command-line front end.

Every subcommand builds one report: named scalars plus an optional table.
Reports render as an aligned text table, CSV (scalars as # comments), or
JSON, always through the same 12-significant-digit float formatting so a
rerun with the same config and seed is byte-identical.  Exit codes: 0 on
success, 2 for anything wrong with the input, 3 when the math itself
fails (instability, non-convergence), with the reason on stderr.

One table, COMMANDS, names each subcommand with its help, the function that
runs it and its flags.  main registers every name and help but builds the
flags of the command that argv names alone, so a process pays for one
command's argparse actions, and the printed help and errors are those of a
parser with every command's flags.  Each subcommand imports the model
modules it runs once its input is read, so --help, the closed forms (sk,
rs-det, rs-correction) and input errors start without numpy, and a dense
command never loads the factor-graph code.  The json and csv modules load
only for the format that uses them.  The verbs cmd_exact, cmd_asymptotic
and cmd_compare serve both models: each reads --N, then ``_route`` builds
the dense or factor-graph model the command names, so a bad size list exits
2 before any model is built.  Both models' asymptotics come as one record,
types_core.CentralApprox, which the verbs read alike.
The four that run an exact sum (``*-exact``, ``*-compare``) take one switch,
--allow-large, which lifts the sum's guard; a config sets that guard with
its one ``guard`` key.
"""

import argparse
import io
import math
import numbers
import sys

from .config import build_dense, build_ensemble, build_rs, load_config, parse_alphabet
from .errors import NumericalFailure, ValidationFailure


class Report:
    """Scalars and one rectangular table, format-agnostic."""

    def __init__(self, command: str):
        self.command = command
        self.scalars: list[tuple[str, object]] = []
        self.columns: list[str] = []
        self.rows: list[tuple] = []

    def scalar(self, name: str, value) -> None:
        self.scalars.append((name, value))

    def table(self, columns, rows) -> None:
        """``rows``: any iterable of tuples, kept as given."""
        self.columns = list(columns)
        self.rows = list(rows)


def _is_float(value) -> bool:
    # float and numpy's floating types, which register as numbers.Real;
    # rationals (Fraction) print as text and integers as integers
    return isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational)


def fmt(value) -> str:
    # the common cases first: float and np.float64 values, and text labels
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):  # int and numpy's integer types
        return str(int(value))
    if _is_float(value):
        return format(float(value), ".12g")
    return str(value)


def _json_value(value):
    """fmt's value as JSON: None, bools, text and integers as they are, a
    finite real as the float its text reads, anything else as its text."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if _is_float(value) and math.isfinite(value):
        return float(fmt(value))
    return fmt(value)


def render(report: Report, fmt_name: str) -> str:
    if fmt_name == "json":
        import json

        doc = {
            "command": report.command,
            "scalars": {k: _json_value(v) for k, v in report.scalars},
        }
        if report.columns:
            doc["columns"] = report.columns
            doc["rows"] = [[_json_value(v) for v in row] for row in report.rows]
        return json.dumps(doc, indent=2) + "\n"
    if fmt_name == "csv":
        import csv

        buf = io.StringIO()
        for k, v in report.scalars:
            buf.write(f"# {k} = {fmt(v)}\n")
        if report.columns:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(report.columns)
            for row in report.rows:
                writer.writerow([fmt(v) for v in row])
        return buf.getvalue()
    # plain text
    lines = []
    for k, v in report.scalars:
        lines.append(f"{k} = {fmt(v)}")
    if report.columns:
        if lines:
            lines.append("")
        cells = [report.columns] + [[fmt(v) for v in row] for row in report.rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(report.columns))]
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def parse_N_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationFailure(f"bad N list {text!r}; expected comma-separated integers")
    if not values or any(v < 1 for v in values):
        raise ValidationFailure(f"bad N list {text!r}; every N must be >= 1")
    return values


# ------------------------------------------------------------- model setup

def _model_config(path: str, *models: str, error: str | None = None) -> dict:
    """Load a config and reject one whose model is not among ``models``."""
    cfg = load_config(path)
    if cfg["model"] not in models:
        raise ValidationFailure(
            error or f"{path} is a {cfg['model']!r} config; need {models[0]}")
    return cfg


def _reject_model_flags(args, names) -> None:
    """A config sets the whole model, so no model flag may come with it."""
    given = [name for name in names if getattr(args, name) is not None]
    if given:
        raise ValidationFailure("--config sets the model; drop --" + ", --".join(given))


def _ensemble_from_args(args):
    if args.config:
        _reject_model_flags(args, ("l", "r", "alphabet", "factor"))
        cfg = _model_config(args.config, "factor-graph")
        return build_ensemble(cfg), cfg
    if args.l is None or args.r is None or args.factor is None:
        raise ValidationFailure("need either --config or all of --l, --r, --factor")
    alphabet = parse_alphabet((args.alphabet or "0,1").split(","))
    from .factor_graph import make_ensemble

    return make_ensemble(args.l, args.r, alphabet, args.factor), {}


_RS_FLAGS = ("n", "q", "r", "P", "Q", "R")


def _rs_params(args):
    if args.config:
        _reject_model_flags(args, _RS_FLAGS)
        return build_rs(_model_config(args.config, "rs"))
    missing = [k for k in _RS_FLAGS if getattr(args, k) is None]
    if missing:
        raise ValidationFailure("need either --config or all of --" + ", --".join(missing))
    from .replica_rs import RSParams

    return RSParams(args.n, args.q, args.r, args.P, args.Q, args.R)


# ------------------------------------------------------------- subcommands

def _route(args, Ns):
    """``(exact, solve)`` of the model a ``dense-*`` or ``fg-*`` command names:
    ``exact(N)`` is the exact log sum under the config's ``guard``, or none
    under --allow-large; ``solve()`` solves the model once and gives its
    central-approximation record (types_core.CentralApprox) and the ``(name,
    value)`` scalar that ``*-asymptotic`` adds (``det``, or the step size
    ``s``).  An fg route first refuses every N not admitted."""
    dense = args.command.startswith("dense-")
    if dense:
        cfg = _model_config(args.config, "dense")
        model = build_dense(cfg)
        from .dense import central_approx_constant as constant
        from .dense import exact_type_sum as exact, solve_variational as solver
    else:
        model, cfg = _ensemble_from_args(args)
        for N in Ns:
            model.require_admissible(N)
        from .factor_graph import exact_expected_Z as exact, fg_constant_log as constant
        from .factor_graph import solve_bethe as solver
    if getattr(args, "allow_large", False):
        kw = {"guard": None}
    else:
        kw = {"guard": int(cfg["guard"])} if "guard" in cfg else {}

    def solve():
        approx = constant(model, solver(model, seed=args.seed))
        return approx, ("det", approx.det_value) if dense else ("s", model.step_s)

    return lambda N: exact(model, N, **kw), solve


def cmd_exact(args) -> Report:
    Ns = parse_N_list(args.N)
    exact, _ = _route(args, Ns)
    rep = Report(args.command)
    rep.table(["N", "log_exact"], [(N, exact(N)) for N in Ns])
    return rep


def cmd_asymptotic(args) -> Report:
    Ns = parse_N_list(args.N)
    approx, scalar = _route(args, Ns)[1]()
    rep = Report(args.command)
    rep.scalar("F", approx.F)
    rep.scalar("log_constant", approx.log_constant)
    rep.scalar(*scalar)
    rep.table(["N", "log_asymptotic"], [(N, approx.at(N)) for N in Ns])
    return rep


def cmd_compare(args) -> Report:
    """Scalars F and log_constant; per N the exact and asymptotic logs and their ratio."""
    Ns = parse_N_list(args.N)
    exact, solve = _route(args, Ns)
    approx, _ = solve()
    rep = Report(args.command)
    rep.scalar("F", approx.F)
    rep.scalar("log_constant", approx.log_constant)
    rows = []
    for N in Ns:
        log_exact, est = exact(N), approx.at(N)
        rows.append((N, log_exact, est, math.exp(log_exact - est)))
    rep.table(["N", "log_exact", "log_asymptotic", "ratio"], rows)
    return rep


def cmd_rs_det(args) -> Report:
    params = _rs_params(args)
    from .replica_rs import pqr_eigenvalues, rs_moment_patterns

    rep = Report("rs-det")
    rep.scalar("n", params.n)
    rep.scalar("determinant", params.determinant())
    Pu, Qu, Ru = rs_moment_patterns(params.q, params.r)
    gram = pqr_eigenvalues(params.n, params.P, params.Q, params.R)
    moment = pqr_eigenvalues(params.n, Pu, Qu, Ru)
    rows = [
        (mult, lg, lu, (1.0 - lg * lu) ** mult)
        for (lg, mult), (lu, _) in zip(gram, moment)
    ]
    rep.table(["multiplicity", "lambda_coupling", "lambda_moment", "factor"], rows)
    return rep


def cmd_rs_correction(args) -> Report:
    params = _rs_params(args)
    rep = Report("rs-correction")
    rep.scalar("N", args.N)
    rep.scalar("correction", params.correction_n0(args.N))
    return rep


def cmd_sk(args) -> Report:
    from .replica_rs import sk_paramagnetic_correction

    rep = Report("sk")
    rep.scalar("beta", args.beta)
    rows = [(N, sk_paramagnetic_correction(args.beta, N)) for N in parse_N_list(args.N)]
    if len(rows) == 1:
        rep.scalar("N", rows[0][0])
        rep.scalar("correction", rows[0][1])
    else:
        rep.table(["N", "correction"], rows)
    return rep


def cmd_fg_s(args) -> Report:
    ens, _ = _ensemble_from_args(args)
    from .factor_graph import step_size_methods

    methods = step_size_methods(ens)
    rep = Report("fg-s")
    rep.scalar("s", methods["snf"])
    rep.table(["method", "value"], [(k, str(v)) for k, v in methods.items()])
    return rep


def cmd_ldpc(args) -> Report:
    rep = Report("ldpc-codewords")
    rep.scalar("l", args.l)
    rep.scalar("r", args.r)
    if args.omega is not None:
        rep.scalar("omega", args.omega)
    Ns = parse_N_list(args.N)
    from .factor_graph import ldpc_expected_codewords, make_ensemble
    from .types_core import Alphabet, CentralApprox

    ens = make_ensemble(args.l, args.r, Alphabet((0.0, 1.0)), "parity")
    for N in Ns:
        ens.require_admissible(N)
    # growth rate, constant and tilt do not depend on N: solve once
    res = ldpc_expected_codewords(args.l, args.r, Ns[0], omega=args.omega)
    approx = CentralApprox(res.growth_rate, res.log_constant, None)
    rows = [(N, approx.at(N), res.growth_rate, res.log_constant, res.theta) for N in Ns]
    rep.table(["N", "log_expected_count", "growth_rate", "log_constant", "theta"], rows)
    return rep


def cmd_clt_cov(args) -> Report:
    cfg = _model_config(args.config, "dense", "factor-graph",
                        error="clt-cov needs a dense or factor-graph config")
    dense = cfg["model"] == "dense"
    kinds = ("type", "overlap") if dense else ("factor", "variable")
    kind = args.kind or ("type" if dense else "variable")
    if kind not in kinds:
        raise ValidationFailure(
            f"{cfg['model']} models have kinds: {', '.join(kinds)}; got {kind!r}")
    from .clt import dense_type_covariance, fg_type_covariances, overlap_covariance

    rep = Report("clt-cov")
    if dense:
        from .dense import solve_variational

        spec = build_dense(cfg)
        sol = solve_variational(spec, seed=args.seed)
        covariance = dense_type_covariance if kind == "type" else overlap_covariance
        cov = covariance(spec, sol.nu_star)
    else:
        from .factor_graph import solve_bethe

        ens = build_ensemble(cfg)
        sol = solve_bethe(ens, seed=args.seed)
        cov = fg_type_covariances(ens, sol.mu_star, sol.nu_star, kind)
    rep.scalar("kind", kind)
    rep.scalar("dim", cov.dim)
    rep.scalar("rank", cov.rank)
    rep.scalar("min_eigenvalue", cov.min_eigenvalue)

    def label(x) -> str:
        if isinstance(x, tuple):
            return "|".join(format(v, "g") for v in x)
        return format(x, "g") if isinstance(x, float) else str(x)

    # the upper triangle, one row per entry, each label formatted once
    labels = [label(x) for x in cov.labels]
    rep.table(["row", "col", "value"],
              ((labels[i], labels[j], cov.matrix[i, j])
               for i in range(cov.dim) for j in range(i, cov.dim)))
    return rep


def cmd_selftest(args) -> Report:
    from . import acceptance

    names = args.only.split(",") if args.only else None
    if names:
        known = {name for name, _ in acceptance.CHECKS}
        unknown = sorted(set(names) - known)
        if unknown:
            raise ValidationFailure(
                f"unknown checks: {', '.join(unknown)}; "
                f"available: {', '.join(name for name, _ in acceptance.CHECKS)}"
            )
    results = acceptance.run_all(names)
    rep = Report("selftest")
    failures = sum(1 for _, ok, _, _ in results if not ok)
    rep.scalar("checks", len(results))
    rep.scalar("failures", failures)
    rep.table(
        ["check", "status", "seconds", "detail"],
        [(name, "PASS" if ok else "FAIL", f"{secs:.2f}", detail)
         for name, ok, detail, secs in results],
    )
    return rep


# --------------------------------------------------------------- plumbing

# Flags as (name, add_argument keywords).  Every command ends with the output
# flags; a route command runs an exact sum unless it is ``*-asymptotic``, and
# only those that do take --allow-large.
_OUTPUT_FLAGS = (
    ("--format", {"choices": ("table", "csv", "json"), "default": "table"}),
    ("--out", {"help": "write the report here instead of stdout"}),
    ("--seed", {"type": int, "default": 0}),
)
_DENSE_MODEL_FLAGS = (("--config", {"required": True}),)
_FG_MODEL_FLAGS = (
    ("--config", {"help": "factor-graph config JSON"}),
    ("--l", {"type": int}),
    ("--r", {"type": int}),
    ("--alphabet", {"help": "comma-separated symbol values (default 0,1)"}),
    ("--factor", {"help": "parity | all-equal | uniform | table:<path>"}),
)
_RS_MODEL_FLAGS = (
    ("--config", {"help": "rs config JSON"}),
    ("--n", {"type": int}),
    *((f"--{name}", {"type": float}) for name in ("q", "r", "P", "Q", "R")),
)
_SIZES = ("--N", {"required": True})
_ALLOW_LARGE = ("--allow-large", {"action": "store_true"})

# command -> (help, the function that runs it, its flags before the output
# flags), in the order --help lists them
COMMANDS = {
    "dense-exact": ("exact log type sum at each N", cmd_exact,
                    (*_DENSE_MODEL_FLAGS,
                     ("--N", {"required": True, "help": "comma-separated sizes"}),
                     _ALLOW_LARGE)),
    "dense-asymptotic": ("N F + log constant at each N", cmd_asymptotic,
                         (*_DENSE_MODEL_FLAGS, _SIZES)),
    "dense-compare": ("exact vs asymptotic, with ratios", cmd_compare,
                      (*_DENSE_MODEL_FLAGS, _SIZES, _ALLOW_LARGE)),
    "rs-det": ("replica-symmetric fluctuation determinant", cmd_rs_det, _RS_MODEL_FLAGS),
    "rs-correction": ("n->0 free-energy correction", cmd_rs_correction,
                      (*_RS_MODEL_FLAGS, ("--N", {"type": int, "required": True}))),
    "sk": ("SK paramagnetic finite-size correction", cmd_sk,
           (("--beta", {"type": float, "required": True}),
            ("--N", {"required": True, "help": "size, or comma-separated sizes"}))),
    "fg-exact": ("exact log E[Z] of an (l,r) ensemble", cmd_exact,
                 (*_FG_MODEL_FLAGS, _SIZES, _ALLOW_LARGE)),
    "fg-asymptotic": ("N F + log constant for an ensemble", cmd_asymptotic,
                      (*_FG_MODEL_FLAGS, _SIZES)),
    "fg-compare": ("exact vs asymptotic for an ensemble", cmd_compare,
                   (*_FG_MODEL_FLAGS, _SIZES, _ALLOW_LARGE)),
    "fg-s": ("lattice step size with method breakdown", cmd_fg_s, _FG_MODEL_FLAGS),
    "ldpc-codewords": ("expected LDPC codeword counts", cmd_ldpc,
                       (("--l", {"type": int, "required": True}),
                        ("--r", {"type": int, "required": True}),
                        _SIZES,
                        ("--omega", {"type": float,
                                     "help": "weight fraction; omit for the total"}))),
    "clt-cov": ("fluctuation covariance matrices", cmd_clt_cov,
                (("--config", {"required": True}),
                 ("--kind", {"help": "dense: type|overlap; factor-graph: factor|variable"}))),
    "selftest": ("run the acceptance battery", cmd_selftest,
                 (("--only", {"help": "comma-separated subset of check names"}),)),
}


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The parser: every command's name and help, and the flags of the
    commands in ``commands`` alone (all of them by default)."""
    parser = argparse.ArgumentParser(
        prog="central-approx",
        description="Partition-function asymptotics, exact up to the constant factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name in commands:
            for flag, kwargs in (*flags, *_OUTPUT_FLAGS):
                p.add_argument(flag, **kwargs)
            p.set_defaults(run=run)
    return parser


def _write_out(path: str, text: str) -> bool:
    """Write the --out file; if it cannot be written, say so on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _emit_failure(args, text: str, code: int) -> int:
    """Report a failure on stderr and in the --out file; exit 2 if that cannot be written."""
    print(text, file=sys.stderr)
    out = getattr(args, "out", None)
    return code if not out or _write_out(out, text + "\n") else 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes the first positional token as the command, and no
    # top-level option takes a value, so that is the first token naming one;
    # only that command's flags are built
    command = next((token for token in argv if token in COMMANDS), None)
    args = build_parser((command,)).parse_args(argv)
    try:
        if args.seed < 0:  # dirichlet_starts rejects it too, but only once a model is built
            raise ValidationFailure(f"--seed must be >= 0, got {args.seed}")
        report = args.run(args)
    except ValidationFailure as exc:
        return _emit_failure(args, f"error: {exc}", 2)
    except NumericalFailure as exc:
        return _emit_failure(args, f"numerical failure: {exc}", 3)
    text = render(report, args.format)
    if args.out:
        if not _write_out(args.out, text):
            return 2
    else:
        sys.stdout.write(text)
    if report.command == "selftest":
        failures = dict(report.scalars).get("failures", 0)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
