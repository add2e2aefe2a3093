"""Size guards: one ``guard`` argument per check, where None lifts it."""

import json
from pathlib import Path

import numpy as np
import pytest

from central_approx import factor_graph
from central_approx.cli import main
from central_approx.clt import empirical_type_covariance_oracle
from central_approx.dense import (
    DenseModelSpec,
    PolyOverlap,
    exact_type_sum,
    zero_local,
)
from central_approx.errors import GuardError
from central_approx.factor_graph import (
    brute_force_permutation_oracle,
    exact_expected_Z,
    exact_expected_Z_exact,
    expected_codewords_at_weight,
    make_ensemble,
)
from central_approx.types_core import Alphabet, enumerate_types, power_terms, type_array_blocks
from oracles import brute_force_expectation, windowed_type_sum

ROOT = Path(__file__).resolve().parents[1]
BINARY = Alphabet((0.0, 1.0))
# n = 2 over {0, 1} at N = 6: 4 symbols, 84 types, 4^6 = 4096 configurations
DENSE = DenseModelSpec(2, BINARY, zero_local(), PolyOverlap.quadratic(2, 0.3))
PARITY24 = make_ensemble(2, 4, BINARY, "parity")
PARITY22 = make_ensemble(2, 2, BINARY, "parity")


def _terms(blocks) -> list:
    return [(rows.tolist(), list(coefs)) for rows, coefs in blocks]


# entry point -> (call taking the guard keyword, a guard below the call's size)
GUARDED = {
    "type_array_blocks": (
        lambda **kw: np.vstack(list(type_array_blocks(5, 3, **kw))).tolist(), 20),
    "enumerate_types": (
        lambda **kw: [t.tolist() for t in enumerate_types(5, 3, **kw)], 20),
    # 7 packed slots and 10 types; power_terms has no default guard
    "power_terms": (
        lambda guard=10**8: _terms(power_terms(np.array([[0], [1], [2]]), [1, 1, 1], 3,
                                               guard=guard)), 6),
    "oracles.brute_force_expectation": (
        lambda **kw: brute_force_expectation(DENSE, 6, **kw), 4000),
    "dense.exact_type_sum": (lambda **kw: exact_type_sum(DENSE, 6, **kw), 80),
    "oracles.windowed_type_sum": (
        lambda **kw: windowed_type_sum(DENSE, 6, 0.6, np.full(4, 0.25), **kw), 80),
    "clt.empirical_type_covariance_oracle": (
        lambda **kw: empirical_type_covariance_oracle(DENSE, 6, **kw).matrix.tolist(), 80),
    "brute_force_permutation_oracle": (
        lambda **kw: brute_force_permutation_oracle(PARITY22, 3, **kw).expected_Z, 5),
    "exact_expected_Z": (lambda **kw: exact_expected_Z(PARITY24, 4, **kw), 3),
    "exact_expected_Z_exact": (lambda **kw: exact_expected_Z_exact(PARITY24, 4, **kw), 3),
    "expected_codewords_at_weight": (
        lambda **kw: expected_codewords_at_weight(2, 4, 4, 2, **kw), 3),
}


@pytest.mark.parametrize("name", GUARDED)
def test_small_guard_raises_and_none_lifts_it(name):
    call, small = GUARDED[name]
    with pytest.raises(GuardError) as exc:
        call(guard=small)
    # the message keeps the guard, and names no override keyword
    assert str(small) in str(exc.value) and "allow_large" not in str(exc.value)
    assert call(guard=None) == call()


@pytest.mark.parametrize("guard", [14, None])
def test_permutation_oracle_cap_holds_at_any_guard(monkeypatch, guard):
    # (2,2) parity at N = 7 has 14 stubs, 14!/2^7 = 6.8e8 socket maps: past
    # PERMUTATION_MAX_STUBS = 12 whatever the guard, refused before any walk
    def no_enumeration(*args):
        raise AssertionError("the socket-map walk started")

    monkeypatch.setattr(factor_graph, "_socket_maps", no_enumeration)
    with pytest.raises(GuardError, match="N\\*l=14 exceeds 12"):
        brute_force_permutation_oracle(PARITY22, 7, guard=guard)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("base, key, argv", [
    ("cw.json", "type_sum", ["dense-exact", "--N", "40"]),
    ("parity36.json", "type_pairs", ["fg-exact", "--N", "12"]),
])
def test_config_allow_large_lifts_the_model_guard(capsys, tmp_path, base, key, argv):
    cfg = json.loads((ROOT / "configs" / base).read_text())
    path = tmp_path / "cfg.json"

    def run(guards):
        path.write_text(json.dumps({**cfg, "guards": guards}))
        return _run(capsys, argv[0], "--config", str(path), *argv[1:])

    unguarded = run({})
    assert unguarded[0] == 0
    code, out, err = run({key: 1})
    assert (code, out) == (2, "") and err.startswith("error: exact sum needs")
    assert err.endswith("(guard 1)\n")
    assert run({key: 1, "allow_large": True}) == unguarded


def test_allow_large_flag_lifts_the_factor_graph_guard(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    cfg = json.loads((ROOT / "configs" / "parity36.json").read_text())
    path.write_text(json.dumps({**cfg, "guards": {"type_pairs": 1}}))
    code, _, _ = _run(capsys, "fg-exact", "--config", str(path), "--N", "12")
    assert code == 2
    lifted = _run(capsys, "fg-exact", "--config", str(path), "--N", "12", "--allow-large")
    assert lifted == _run(capsys, "fg-exact", "--config", str(ROOT / "configs" / "parity36.json"),
                          "--N", "12")
