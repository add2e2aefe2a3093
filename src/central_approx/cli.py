"""Command-line front end.

Every subcommand builds one report: named scalars plus an optional table.
Reports render as an aligned text table, CSV (scalars as # comments), or
JSON, always through the same 12-significant-digit float formatting so a
rerun with the same config and seed is byte-identical.  Exit codes: 0 on
success, 2 for anything wrong with the input, 3 when the math itself
fails (instability, non-convergence), with the reason on stderr.

Each subcommand imports the model modules it runs once its input is read,
so --help, the closed forms (sk, rs-det, rs-correction) and input errors
start without numpy, and a dense command never loads the factor-graph code.
The json and csv modules load only for the format that uses them.  The
verbs cmd_exact, cmd_asymptotic and cmd_compare serve both models: each
reads --N, then ``_route`` builds the dense or factor-graph model the
command names, so a bad size list exits 2 before any model is built.
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
    if isinstance(value, float) and math.isfinite(value):  # as fmt's fast path
        return float(format(value, ".12g"))
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if _is_float(value):
        x = float(value)
        if math.isfinite(x):
            return float(format(x, ".12g"))
        return fmt(x)
    return str(value)


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

def _compare_report(command: str, F: float, log_constant: float, Ns, log_exact) -> Report:
    """Scalars F and log_constant; per N the exact and asymptotic logs and their ratio."""
    rep = Report(command)
    rep.scalar("F", F)
    rep.scalar("log_constant", log_constant)
    rows = []
    for N in Ns:
        exact = log_exact(N)
        est = N * F + log_constant
        rows.append((N, exact, est, math.exp(exact - est)))
    rep.table(["N", "log_exact", "log_asymptotic", "ratio"], rows)
    return rep


def _route(args, Ns):
    """``(exact, solve)`` of the model a ``dense-*`` or ``fg-*`` command names:
    ``exact(N)`` is the exact log sum under the config's ``guard``, or none
    under --allow-large; ``solve()`` gives F, log_constant and the ``(name,
    value)`` scalar that ``*-asymptotic`` adds (``det``, or the step size
    ``s``), each computed once.  An fg route first refuses every N not admitted."""
    if args.command.startswith("dense-"):
        cfg = _model_config(args.config, "dense")
        model = build_dense(cfg)
        from .dense import central_approx_constant, exact_type_sum as exact, solve_variational

        def solve():
            result = central_approx_constant(model, solve_variational(model, seed=args.seed))
            return result.F, result.log_constant, ("det", result.det_value)
    else:
        model, cfg = _ensemble_from_args(args)
        for N in Ns:
            model.require_admissible(N)
        from .factor_graph import exact_expected_Z as exact, fg_constant_log, solve_bethe

        def solve():
            sol = solve_bethe(model, seed=args.seed)
            return sol.F, fg_constant_log(model, sol), ("s", model.step_s)
    if getattr(args, "allow_large", False):
        kw = {"guard": None}
    else:
        kw = {"guard": int(cfg["guard"])} if "guard" in cfg else {}
    return lambda N: exact(model, N, **kw), solve


def cmd_exact(args) -> Report:
    Ns = parse_N_list(args.N)
    exact, _ = _route(args, Ns)
    rep = Report(args.command)
    rep.table(["N", "log_exact"], [(N, exact(N)) for N in Ns])
    return rep


def cmd_asymptotic(args) -> Report:
    Ns = parse_N_list(args.N)
    F, log_constant, scalar = _route(args, Ns)[1]()
    rep = Report(args.command)
    rep.scalar("F", F)
    rep.scalar("log_constant", log_constant)
    rep.scalar(*scalar)
    rep.table(["N", "log_asymptotic"], [(N, N * F + log_constant) for N in Ns])
    return rep


def cmd_compare(args) -> Report:
    Ns = parse_N_list(args.N)
    exact, solve = _route(args, Ns)
    F, log_constant, _ = solve()
    return _compare_report(args.command, F, log_constant, Ns, exact)


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
    from .types_core import Alphabet

    ens = make_ensemble(args.l, args.r, Alphabet((0.0, 1.0)), "parity")
    for N in Ns:
        ens.require_admissible(N)
    # growth rate, constant and tilt do not depend on N: solve once
    res = ldpc_expected_codewords(args.l, args.r, Ns[0], omega=args.omega)
    rows = [(N, N * res.growth_rate + res.log_constant, res.growth_rate,
             res.log_constant, res.theta) for N in Ns]
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

def _add_output_flags(p) -> None:
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--seed", type=int, default=0)


def _add_fg_model_flags(p) -> None:
    p.add_argument("--config", help="factor-graph config JSON")
    p.add_argument("--l", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--alphabet", help="comma-separated symbol values (default 0,1)")
    p.add_argument("--factor", help="parity | all-equal | uniform | table:<path>")


def _add_rs_flags(p) -> None:
    p.add_argument("--config", help="rs config JSON")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--P", type=float)
    p.add_argument("--Q", type=float)
    p.add_argument("--R", type=float)


def _add_route_commands(sub, route: str, add_model_flags, *helps: str) -> None:
    """Register ``{route}-exact``, ``-asymptotic`` and ``-compare``, in that order."""
    for verb, run, help_text in zip(("exact", "asymptotic", "compare"),
                                    (cmd_exact, cmd_asymptotic, cmd_compare), helps):
        name = f"{route}-{verb}"
        p = sub.add_parser(name, help=help_text)
        add_model_flags(p)
        p.add_argument("--N", required=True,
                       help="comma-separated sizes" if name == "dense-exact" else None)
        if verb != "asymptotic":
            p.add_argument("--allow-large", action="store_true")
        _add_output_flags(p)
        p.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="central-approx",
        description="Partition-function asymptotics, exact up to the constant factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_route_commands(sub, "dense", lambda p: p.add_argument("--config", required=True),
                        "exact log type sum at each N", "N F + log constant at each N",
                        "exact vs asymptotic, with ratios")

    p = sub.add_parser("rs-det", help="replica-symmetric fluctuation determinant")
    _add_rs_flags(p)
    _add_output_flags(p)
    p.set_defaults(run=cmd_rs_det)

    p = sub.add_parser("rs-correction", help="n->0 free-energy correction")
    _add_rs_flags(p)
    p.add_argument("--N", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(run=cmd_rs_correction)

    p = sub.add_parser("sk", help="SK paramagnetic finite-size correction")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--N", required=True, help="size, or comma-separated sizes")
    _add_output_flags(p)
    p.set_defaults(run=cmd_sk)

    _add_route_commands(sub, "fg", _add_fg_model_flags,
                        "exact log E[Z] of an (l,r) ensemble",
                        "N F + log constant for an ensemble",
                        "exact vs asymptotic for an ensemble")

    p = sub.add_parser("fg-s", help="lattice step size with method breakdown")
    _add_fg_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(run=cmd_fg_s)

    p = sub.add_parser("ldpc-codewords", help="expected LDPC codeword counts")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--omega", type=float, help="weight fraction; omit for the total")
    _add_output_flags(p)
    p.set_defaults(run=cmd_ldpc)

    p = sub.add_parser("clt-cov", help="fluctuation covariance matrices")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", help="dense: type|overlap; factor-graph: factor|variable")
    _add_output_flags(p)
    p.set_defaults(run=cmd_clt_cov)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--only", help="comma-separated subset of check names")
    _add_output_flags(p)
    p.set_defaults(run=cmd_selftest)

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
    parser = build_parser()
    args = parser.parse_args(argv)
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
