"""Config schema validation and model construction."""

import copy
import json
import math
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from central_approx import config
from central_approx.config import (
    CONFIG_SCHEMA,
    build_dense,
    build_ensemble,
    build_rs,
    load_config,
    parse_alphabet,
    validate_config,
)
from central_approx.dense import DenseModelSpec, PolyOverlap, exact_type_sum, zero_local
from central_approx.errors import GuardError, ValidationFailure
from central_approx.factor_graph import exact_expected_Z_exact, make_ensemble
from central_approx.types_core import Alphabet

ROOT = Path(__file__).resolve().parents[1]

def dense_cfg(**overrides):
    cfg = {
        "schema_version": 1,
        "model": "dense",
        "n": 1,
        "alphabet": [0, 1],
        "f": {"kind": "zero"},
        "g": {"kind": "poly", "terms": [{"coef": 0.5, "powers": {"0": 2}}]},
    }
    cfg.update(overrides)
    return cfg


def fg_cfg(**overrides):
    cfg = {
        "schema_version": 1,
        "model": "factor-graph",
        "l": 3,
        "r": 6,
        "alphabet": [0, 1],
        "factor": "parity",
    }
    cfg.update(overrides)
    return cfg


RS_CFG = {
    "schema_version": 1,
    "model": "rs",
    "n": 4,
    "q": 0.1,
    "r": 0.05,
    "P": 0.2,
    "Q": 0.1,
    "R": 0.05,
}


def test_valid_configs_pass():
    validate_config(dense_cfg())
    validate_config(fg_cfg())
    validate_config(RS_CFG)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationFailure, match="extra"):
        validate_config(dense_cfg(extra=1))


def test_unknown_nested_key_rejected():
    bad = dense_cfg(g={"kind": "sk", "beta": 0.5, "typo": True})
    with pytest.raises(ValidationFailure):
        validate_config(bad)
    bad = dense_cfg(f={"kind": "field", "h": 0.3, "nope": 1})
    with pytest.raises(ValidationFailure):
        validate_config(bad)


def test_wrong_schema_version_rejected():
    with pytest.raises(ValidationFailure):
        validate_config(dense_cfg(schema_version=2))


def test_missing_required_field_rejected():
    cfg = fg_cfg()
    del cfg["factor"]
    with pytest.raises(ValidationFailure, match="factor"):
        validate_config(cfg)


def test_unknown_model_rejected():
    with pytest.raises(ValidationFailure):
        validate_config({"schema_version": 1, "model": "ising"})


def test_bad_g_kind_rejected():
    with pytest.raises(ValidationFailure):
        validate_config(dense_cfg(g={"kind": "cubic", "lam": 1.0}))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValidationFailure, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValidationFailure, match="not valid JSON"):
        load_config(str(p))


def test_load_config_needs_finite_numbers(tmp_path):
    p = tmp_path / "c.json"
    h_nan = dense_cfg(f={"kind": "field", "h": math.nan})
    # JSON Schema puts no bound on a number: the schema checker takes nan
    assert validate_config(h_nan) is h_nan
    p.write_text(json.dumps(h_nan))
    with pytest.raises(ValidationFailure, match=r"c\.json: f\.h: nan is not a finite number$"):
        load_config(str(p))
    p.write_text(json.dumps(dense_cfg(alphabet=[0, 1e400, 10**400])))
    with pytest.raises(ValidationFailure, match=r"alphabet\[1\]: inf is not a finite number$"):
        load_config(str(p))
    p.write_text(json.dumps(dense_cfg(alphabet=[0, 10**400])))
    with pytest.raises(ValidationFailure, match=r"alphabet\[1\]: integer out of float range$"):
        load_config(str(p))
    # Python's json refuses an integer of more than 4300 digits with a ValueError
    p.write_text(json.dumps(dense_cfg()).replace('"n": 1', '"n": 1' + "0" * 5000))
    with pytest.raises(ValidationFailure, match="not valid JSON"):
        load_config(str(p))


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "cw.json"
    p.write_text(json.dumps(dense_cfg()))
    cfg = load_config(str(p))
    spec = build_dense(cfg)
    assert spec.n == 1
    assert exact_type_sum(spec, 10) > 0


def test_build_dense_field_and_table():
    spec = build_dense(dense_cfg(f={"kind": "field", "h": 0.3}))
    assert spec.f_values[spec.alphabet.index(1.0)] == pytest.approx(0.3)

    spec = build_dense(dense_cfg(f={"kind": "table", "values": [0.1, 0.7]}))
    assert spec.f_values[spec.alphabet.index(0.0)] == pytest.approx(0.1)
    assert spec.f_values[spec.alphabet.index(1.0)] == pytest.approx(0.7)


def test_build_dense_table_length_checked():
    with pytest.raises(ValidationFailure, match="2 values"):
        build_dense(dense_cfg(f={"kind": "table", "values": [0.1, 0.2, 0.3]}))


def test_build_dense_g_variants():
    for g in (
        {"kind": "zero"},
        {"kind": "quadratic", "lam": 0.5},
        {"kind": "quadratic", "lam": 0.5, "pairs": "diagonal"},
        {"kind": "sk", "beta": 0.5},
    ):
        cfg = dense_cfg(n=2, g=g)
        spec = build_dense(cfg)
        assert spec.n == 2


def test_build_ensemble_named_and_table():
    ens = build_ensemble(fg_cfg())
    assert ens.l == 3 and ens.r == 6

    cfg = fg_cfg(l=2, r=2, factor={"values": [1, 2, 2, 1]})
    ens = build_ensemble(cfg)
    # integer values keep the exact-arithmetic path available
    assert exact_expected_Z_exact(ens, 2) > 0


def test_build_ensemble_table_length_checked():
    with pytest.raises(ValidationFailure, match="4 values"):
        build_ensemble(fg_cfg(l=2, r=2, factor={"values": [1, 2, 3]}))


def test_build_rs():
    params = build_rs(RS_CFG)
    assert params.n == 4
    assert 0 < params.determinant() < 1


def test_parse_alphabet_rejects_duplicates():
    with pytest.raises(ValidationFailure, match="distinct"):
        parse_alphabet([0, 0])


# ------------------------------------------- the checker against jsonschema

def test_schema_is_valid_draft_2020_12():
    # the metaschema check that validate_config no longer repeats per call
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


SEED_CONFIGS = [json.loads(p.read_text()) for p in sorted(ROOT.glob("configs/*.json"))
                + sorted(ROOT.glob("perfbench/inputs/*.json"))]
# plus one config per branch of the nested oneOfs that the files do not reach
SEED_CONFIGS += [
    dense_cfg(f={"kind": "field", "h": 0.3}, g={"kind": "quadratic", "lam": 0.5, "pairs": "all"},
              guard=10),
    dense_cfg(n=2, f={"kind": "table", "values": [0.1, 0.2, 0.3, 0.4]}, g={"kind": "zero"}),
    fg_cfg(l=2, r=2, factor={"values": [1, 2, 2, 1]}, guard=100, guards={}),
    RS_CFG,
]


def _nodes(value, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


DELETE = object()


def _edits(cfg):
    """Every single edit of ``cfg`` as (path, new value or DELETE): drop a
    key, add one, replace a node, or nudge a leaf just across a keyword's
    boundary (2.0 is an integer, true is not 1, a step down crosses a
    minimum, a changed string misses a const or enum)."""
    for path, node in _nodes(cfg):
        if isinstance(node, dict):
            yield from ((path + (key,), 1) for key in ("typo", "0", "a") if key not in node)
        if not path:
            continue
        if isinstance(path[-1], str):
            yield path, DELETE
        yield from ((path, v) for v in (None, True, [], {}, "x", -1, 0.5))
        if isinstance(node, str):
            yield path, node + "x"
        elif isinstance(node, (int, float)) and math.isfinite(node):
            yield from ((path, v) for v in (float(node), int(node), bool(node), node - 1))


def _apply(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


def _agrees_with_jsonschema(cfg):
    want = jsonschema.Draft202012Validator(CONFIG_SCHEMA).is_valid(cfg)
    try:
        validate_config(cfg)
        got = True
    except ValidationFailure:
        got = False
    return got == want


def test_checker_agrees_with_jsonschema_on_every_single_edit():
    edited = [_apply(cfg, *edit) for cfg in SEED_CONFIGS for edit in _edits(cfg)]
    assert len(edited) > 1000
    assert [cfg for cfg in edited if not _agrees_with_jsonschema(cfg)] == []


def _object_schemas(schema):
    """Every node of ``schema`` that declares ``"type": "object"``."""
    if isinstance(schema, dict):
        if schema.get("type") == "object":
            yield schema
        for child in schema.values():
            yield from _object_schemas(child)
    elif isinstance(schema, list):
        for child in schema:
            yield from _object_schemas(child)


def _object_matches(value, schema, path=()):
    """(path, schema node) for each object in the valid config ``value``, with
    the node of ``schema`` it validates under (its oneOf branch resolved)."""
    if "oneOf" in schema:
        [schema] = [b for b in schema["oneOf"] if not list(config._violations(value, b, ()))]
    if isinstance(value, dict):
        yield path, schema
        for key, child in value.items():
            if key in schema.get("properties", {}):
                yield from _object_matches(child, schema["properties"][key], path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _object_matches(child, schema["items"], path + (i,))


def test_every_object_in_the_schema_is_closed():
    # jsonschema agrees with an open schema too, so the agreement tests above
    # cannot see an object that lets unknown keys through
    objects = {id(node): node for node in _object_schemas(CONFIG_SCHEMA)}
    assert len(objects) == 14
    for node in objects.values():
        assert node["additionalProperties"] is False
        assert set(node.get("required", [])) <= set(node.get("properties", {}))
    reached = set()
    for cfg in SEED_CONFIGS:
        for path, node in _object_matches(cfg, CONFIG_SCHEMA):
            reached.add(id(node))
            with pytest.raises(ValidationFailure, match="'unknown_key'"):
                validate_config(_apply(cfg, path + ("unknown_key",), 1))
    assert reached == set(objects)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=3)
    | st.sampled_from([2.0, 1.0, 0.0, 1e300, math.nan, "dense", "rs", "zero", "sk", "0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
SUBTREES = [v for cfg in SEED_CONFIGS for _, v in _nodes(cfg)]


@st.composite
def mutated_configs(draw):
    """One to three edits, each a single edit or a node replaced by a random
    JSON value or by a subtree of any seed config."""
    cfg = draw(st.sampled_from(SEED_CONFIGS))
    for _ in range(draw(st.integers(1, 3))):
        paths = [path for path, _ in _nodes(cfg) if path]
        cfg = _apply(cfg, *draw(
            st.sampled_from(list(_edits(cfg)))
            | st.tuples(st.sampled_from(paths), st.sampled_from(SUBTREES) | JSON_VALUES)))
    return cfg


@settings(max_examples=600, deadline=None)
@given(mutated_configs())
def test_checker_agrees_with_jsonschema(cfg):
    assert _agrees_with_jsonschema(cfg), cfg


def test_json_schema_number_semantics():
    validate_config(dense_cfg(n=2.0, schema_version=1.0))  # 2.0 is an integer, 1.0 == const 1
    for bad in (dense_cfg(n=2.5), dense_cfg(n=True), dense_cfg(schema_version=True),
                dense_cfg(alphabet=[0, False]), fg_cfg(factor=None)):
        with pytest.raises(ValidationFailure):
            validate_config(bad)


@pytest.mark.parametrize("cfg, message", [
    (dense_cfg(typo=1), "Additional properties are not allowed ('typo' was unexpected)"),
    (dense_cfg(model=["dense"]), "model: 'dense' was expected"),
    (dense_cfg(g={"kind": "sk", "beta": 0.5, "typo": True}),
     "g: Additional properties are not allowed ('typo' was unexpected)"),
    (dense_cfg(g={"kind": "poly", "terms": [{"coef": 1, "powers": {"0": -1}}]}),
     "g.terms[0].powers.0: -1 is less than the minimum of 0"),
    (dense_cfg(g={"kind": "poly", "terms": [{"coef": 1, "powers": {"a": 1}}]}),
     "g.terms[0].powers: 'a' does not match any of the regexes: '^[0-9]+$'"),
    (dense_cfg(alphabet=[]), "alphabet: [] should be non-empty"),
    (fg_cfg(factor={"values": [1], "x": 1}),
     "factor: Additional properties are not allowed ('x' was unexpected)"),
    (dense_cfg(guard=0), "guard: 0 is less than the minimum of 1"),
    (fg_cfg(guard=0), "guard: 0 is less than the minimum of 1"),
    # the retired guards block may stay only empty: each key it held is named
    (fg_cfg(guards={"type_pairs": 1}),
     "guards: Additional properties are not allowed ('type_pairs' was unexpected)"),
    (dense_cfg(guards={"allow_large": True}),
     "guards: Additional properties are not allowed ('allow_large' was unexpected)"),
])
def test_error_names_the_deepest_violation(cfg, message):
    # from the oneOf branch the declared model (or kind) selects
    with pytest.raises(ValidationFailure) as exc:
        validate_config(cfg, source="c.json")
    assert str(exc.value) == f"c.json: {message}"


def test_one_of_rejects_a_value_that_two_branches_accept(monkeypatch):
    # CONFIG_SCHEMA's branches exclude each other, so only a stand-in shows this
    monkeypatch.setattr(config, "CONFIG_SCHEMA", {"oneOf": [{"type": "number"},
                                                            {"type": "integer"}]})
    validate_config(0.5)
    with pytest.raises(ValidationFailure, match="more than one"):
        validate_config(2)


def test_unimplemented_schema_keyword_raises(monkeypatch):
    monkeypatch.setattr(config, "CONFIG_SCHEMA", {"type": "object", "maxProperties": 3})
    with pytest.raises(NotImplementedError, match="maxProperties"):
        validate_config({})


def test_integer_fields_built_from_floats():
    # JSON Schema counts 2.0 as an integer, so the builders must accept it
    built = [build_dense(dense_cfg(n=2.0, g={"kind": "sk", "beta": 0.5})).n,
             *(lambda ens: (ens.l, ens.r))(build_ensemble(fg_cfg(l=3.0, r=6.0))),
             build_rs({**RS_CFG, "n": 4.0}).n]
    assert built == [2, 3, 6, 4] and all(type(v) is int for v in built)


def test_size_guards_fire_before_allocating(tmp_path):
    # each input is the smallest one past its guard, so a guard that runs too
    # late costs a few MB here rather than the machine's memory
    binary = Alphabet((0.0, 1.0))
    cases = [lambda f=f: make_ensemble(2, 21, binary, f)
             for f in ("parity", "all-equal", "uniform", f"table:{tmp_path}/absent.txt")]
    cases.append(lambda: DenseModelSpec(14, binary, zero_local(), PolyOverlap.zero(14)))
    # build_dense sizes f and g by n, so it checks before building them
    cases.append(lambda: build_dense(dense_cfg(n=300, g={"kind": "sk", "beta": 0.5})))
    for build in cases:
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="exceeds the guard"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
