"""JSON run configurations: schema validation and model construction.

A config names one model and its parameters; everything else (N sweeps,
output format, seeds) comes from the command line.  Unknown keys are
rejected up front so a typo cannot silently fall back to a default.
"""

import itertools
import json

from .dense import DenseModelSpec, PolyOverlap, field_local, zero_local
from .errors import ValidationFailure
from .factor_graph import EnsembleSpec, make_ensemble
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

_GUARDS = {
    "type": "object",
    "properties": {
        "type_sum": {"type": "integer", "minimum": 1},
        "type_pairs": {"type": "integer", "minimum": 1},
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
                "guards": _GUARDS,
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
                "guards": _GUARDS,
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
    """Read and schema-validate a config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationFailure(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw, source=path)


_MODEL_BRANCH = {"dense": 0, "factor-graph": 1, "rs": 2}


def validate_config(raw: dict, *, source: str = "<config>") -> dict:
    import jsonschema  # imported here: a run that reads no config never loads it

    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        # the oneOf error alone is unreadable; report from the branch the
        # declared model selects, falling back to the deepest sub-error
        detail = exc.message
        if exc.context:
            candidates = list(exc.context)
            branch = _MODEL_BRANCH.get(raw.get("model")) if isinstance(raw, dict) else None
            if branch is not None:
                own = [e for e in candidates if next(iter(e.schema_path), None) == branch]
                candidates = own or candidates
            detail = max(candidates, key=lambda e: len(e.absolute_path)).message
        raise ValidationFailure(f"{source}: {detail}") from exc
    return raw


def parse_alphabet(values) -> Alphabet:
    try:
        return Alphabet(tuple(float(x) for x in values))
    except ValueError as exc:
        raise ValidationFailure(f"bad alphabet: {exc}") from exc


def build_dense(cfg: dict) -> DenseModelSpec:
    alphabet = parse_alphabet(cfg["alphabet"])
    n = cfg["n"]
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
    try:
        return DenseModelSpec(n, alphabet, f, g)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def build_ensemble(cfg: dict) -> EnsembleSpec:
    alphabet = parse_alphabet(cfg["alphabet"])
    factor = cfg["factor"]
    if isinstance(factor, dict):
        values = factor["values"]
        if len(values) != len(alphabet) ** cfg["r"]:
            raise ValidationFailure(
                f"factor table needs {len(alphabet)**cfg['r']} values "
                f"(|alphabet|^r), got {len(values)}"
            )
        ints = [int(x) if float(x).is_integer() else float(x) for x in values]
        return make_ensemble(cfg["l"], cfg["r"], alphabet, ints)
    return make_ensemble(cfg["l"], cfg["r"], alphabet, factor)


def build_rs(cfg: dict) -> RSParams:
    return RSParams(cfg["n"], cfg["q"], cfg["r"], cfg["P"], cfg["Q"], cfg["R"])
