"""JSON run configurations: schema validation and model construction.

A config names one model and its parameters; everything else (N sweeps,
output format, seeds) comes from the command line.  Unknown keys are
rejected up front so a typo cannot silently fall back to a default.

Reading and validating a config needs no numpy: the builders import the
model modules when they are called, and only load_config imports json.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import TYPE_CHECKING

from .errors import ValidationFailure

if TYPE_CHECKING:
    from .dense import DenseModelSpec
    from .factor_graph import EnsembleSpec
    from .replica_rs import RSParams
    from .types_core import Alphabet

_NUMBER_LIST = {"type": "array", "items": {"type": "number"}, "minItems": 1}

_DENSE_F = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "zero"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "field"}, "h": {"type": "number"}},
            "required": ["kind", "h"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "table"}, "values": _NUMBER_LIST},
            "required": ["kind", "values"],
            "additionalProperties": False,
        },
    ]
}

_DENSE_G = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "zero"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "quadratic"},
                "lam": {"type": "number"},
                "pairs": {"enum": ["all", "distinct", "diagonal"]},
            },
            "required": ["kind", "lam"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "sk"}, "beta": {"type": "number"}},
            "required": ["kind", "beta"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "poly"},
                "terms": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "coef": {"type": "number"},
                            "powers": {
                                "type": "object",
                                "patternProperties": {
                                    "^[0-9]+$": {"type": "integer", "minimum": 0}
                                },
                                "additionalProperties": False,
                            },
                        },
                        "required": ["coef", "powers"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["kind", "terms"],
            "additionalProperties": False,
        },
    ]
}


def _guards(key: str) -> dict:
    """A model's guards block: its own size guard ``key`` and allow_large."""
    return {
        "type": "object",
        "properties": {
            key: {"type": "integer", "minimum": 1},
            "allow_large": {"type": "boolean"},
        },
        "additionalProperties": False,
    }


CONFIG_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "schema_version": {"const": 1},
                "model": {"const": "dense"},
                "n": {"type": "integer", "minimum": 1},
                "alphabet": _NUMBER_LIST,
                "f": _DENSE_F,
                "g": _DENSE_G,
                "guards": _guards("type_sum"),
            },
            "required": ["schema_version", "model", "n", "alphabet", "g"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "schema_version": {"const": 1},
                "model": {"const": "factor-graph"},
                "l": {"type": "integer", "minimum": 2},
                "r": {"type": "integer", "minimum": 2},
                "alphabet": _NUMBER_LIST,
                "factor": {
                    "oneOf": [
                        {"type": "string"},
                        {
                            "type": "object",
                            "properties": {"values": _NUMBER_LIST},
                            "required": ["values"],
                            "additionalProperties": False,
                        },
                    ]
                },
                "guards": _guards("type_pairs"),
            },
            "required": ["schema_version", "model", "l", "r", "alphabet", "factor"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "schema_version": {"const": 1},
                "model": {"const": "rs"},
                "n": {"type": "integer", "minimum": 2},
                "q": {"type": "number"},
                "r": {"type": "number"},
                "P": {"type": "number"},
                "Q": {"type": "number"},
                "R": {"type": "number"},
            },
            "required": ["schema_version", "model", "n", "q", "r", "P", "Q", "R"],
            "additionalProperties": False,
        },
    ]
}


def load_config(path: str) -> dict:
    """Read a config file, require finite numbers and schema-validate it."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationFailure(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ValidationFailure(f"config {path} is not valid JSON: {exc}") from exc
    bad = _non_finite(raw, ())
    if bad is not None:
        where, value = bad
        message = (f"{value!r} is not a finite number" if isinstance(value, float)
                   else "integer out of float range")
        raise ValidationFailure(_located(path, where, message))
    return validate_config(raw, source=path)


def _non_finite(x, path: tuple):
    """(path, value) of the first number in ``x`` that is not a finite float, or None.

    Python's json reads NaN, Infinity and 1e400 as non-finite floats and
    takes integers of any size, none of which a model can use.  This sits
    outside the schema checker, which keeps JSON Schema's unbounded numbers.
    """
    if isinstance(x, (dict, list)):
        for key, value in x.items() if isinstance(x, dict) else enumerate(x):
            bad = _non_finite(value, path + (key,))
            if bad is not None:
                return bad
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            if not math.isfinite(x):
                return path, x
        except OverflowError:  # an int beyond the float range
            return path, x
    return None


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _same(a, b) -> bool:
    """JSON equality of scalars: 1 equals 1.0, but true is not 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _violations(x, schema: dict, path: tuple):
    """Yield (path, keyword, message) for each way ``x`` breaks ``schema``.

    Implements the keywords CONFIG_SCHEMA uses, with JSON Schema semantics
    and jsonschema's wording; any other keyword raises, so a schema edit
    cannot go unchecked.
    """
    obj = x if isinstance(x, dict) else {}
    for key, want in schema.items():
        if key == "oneOf":
            found = [list(_violations(x, branch, path)) for branch in want]
            valid = sum(not errs for errs in found)
            if valid > 1:
                yield path, key, f"{x!r} is valid under more than one of the given schemas"
            elif not valid:
                # report from the branches the instance declares: those whose
                # type and const members (model, kind) it misses least
                misses = [sum(k == "type" and len(p) == len(path)
                              or k == "const" and len(p) == len(path) + 1 for p, k, _ in errs)
                          for errs in found]
                for errs, miss in zip(found, misses):
                    if miss == min(misses):
                        yield from errs
        elif key == "type":
            if not _TYPES[want](x):
                yield path, key, f"{x!r} is not of type {want!r}"
        elif key == "const":
            if not _same(x, want):
                yield path, key, f"{want!r} was expected"
        elif key == "enum":
            if not any(_same(x, v) for v in want):
                yield path, key, f"{x!r} is not one of {want!r}"
        elif key == "minimum":
            if _TYPES["number"](x) and x < want:
                yield path, key, f"{x!r} is less than the minimum of {want!r}"
        elif key == "minItems":
            if isinstance(x, list) and len(x) < want:
                yield path, key, f"{x!r} " + ("should be non-empty" if want == 1 else "is too short")
        elif key == "items":
            for i, item in enumerate(x if isinstance(x, list) else ()):
                yield from _violations(item, want, path + (i,))
        elif key == "properties":
            for name, sub in want.items():
                if name in obj:
                    yield from _violations(obj[name], sub, path + (name,))
        elif key == "patternProperties":
            for pattern, sub in want.items():
                for name in obj:
                    if re.search(pattern, name):
                        yield from _violations(obj[name], sub, path + (name,))
        elif key == "required":
            for name in want:
                if isinstance(x, dict) and name not in x:
                    yield path, key, f"{name!r} is a required property"
        elif key == "additionalProperties" and want is False:
            patterns = sorted(schema.get("patternProperties", {}))
            extras = sorted(name for name in obj if name not in schema.get("properties", {})
                            and not any(re.search(p, name) for p in patterns))
            names = ", ".join(map(repr, extras))
            if extras and patterns:
                verb = "does" if len(extras) == 1 else "do"
                yield path, key, (f"{names} {verb} not match any of the regexes: "
                                  + ", ".join(map(repr, patterns)))
            elif extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, key, f"Additional properties are not allowed ({names} {verb} unexpected)"
        else:
            raise NotImplementedError(f"schema keyword {key!r}: {want!r} is not implemented")


def validate_config(raw: dict, *, source: str = "<config>") -> dict:
    """Check ``raw`` against CONFIG_SCHEMA and return it.

    ValidationFailure reports the deepest violation, prefixed with its key
    path (``g.terms[0]``) when it is below the top level.
    """
    errors = list(_violations(raw, CONFIG_SCHEMA, ()))
    if errors:
        path, _, message = max(errors, key=lambda e: len(e[0]))
        raise ValidationFailure(_located(source, path, message))
    return raw


def _located(source: str, path: tuple, message: str) -> str:
    """``source: key.path[i]: message``, without the path at the top level."""
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")
    return f"{source}: {where}: {message}" if where else f"{source}: {message}"


def parse_alphabet(values) -> Alphabet:
    from .types_core import Alphabet

    try:
        return Alphabet(tuple(float(x) for x in values))
    except ValueError as exc:
        raise ValidationFailure(f"bad alphabet: {exc}") from exc


def build_dense(cfg: dict) -> DenseModelSpec:
    from .dense import DenseModelSpec, PolyOverlap, check_symbol_table, field_local, zero_local

    alphabet = parse_alphabet(cfg["alphabet"])
    n = int(cfg["n"])
    check_symbol_table(len(alphabet), n)  # before f and g are sized by n
    fblock = cfg.get("f", {"kind": "zero"})
    if fblock["kind"] == "zero":
        f = zero_local()
    elif fblock["kind"] == "field":
        f = field_local(fblock["h"])
    else:
        values = [float(x) for x in fblock["values"]]
        if len(values) != len(alphabet) ** n:
            raise ValidationFailure(
                f"f table needs {len(alphabet)**n} values "
                f"(|alphabet|^n), got {len(values)}"
            )
        table = dict(zip(itertools.product(alphabet.values, repeat=n), values))

        def f(xs, _table=table):
            return _table[tuple(xs)]
    gblock = cfg["g"]
    try:
        if gblock["kind"] == "zero":
            g = PolyOverlap.zero(n)
        elif gblock["kind"] == "quadratic":
            g = PolyOverlap.quadratic(n, gblock["lam"], gblock.get("pairs", "all"))
        elif gblock["kind"] == "sk":
            g = PolyOverlap.pairwise_square(n, gblock["beta"])
        else:
            terms = [(t["coef"], {int(k): v for k, v in t["powers"].items()})
                     for t in gblock["terms"]]
            g = PolyOverlap(n, terms)
        return DenseModelSpec(n, alphabet, f, g)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def build_ensemble(cfg: dict) -> EnsembleSpec:
    from .factor_graph import make_ensemble

    factor = cfg["factor"]
    if isinstance(factor, dict):
        # integer values keep the exact-arithmetic path available
        factor = [int(x) if float(x).is_integer() else float(x) for x in factor["values"]]
    return make_ensemble(int(cfg["l"]), int(cfg["r"]), parse_alphabet(cfg["alphabet"]), factor)


def build_rs(cfg: dict) -> RSParams:
    from .replica_rs import RSParams

    return RSParams(int(cfg["n"]), cfg["q"], cfg["r"], cfg["P"], cfg["Q"], cfg["R"])
