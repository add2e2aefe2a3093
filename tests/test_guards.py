"""Size guards: one ``guard`` argument per check, where None lifts it; on the
command line one config key, ``guard``, sets it and one flag, --allow-large, lifts it."""

import json
import time
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


@pytest.mark.parametrize("base, argv", [
    ("cw.json", ["dense-exact", "--N", "40"]),
    ("parity36.json", ["fg-exact", "--N", "12"]),
    ("cw.json", ["dense-compare", "--N", "40"]),
    ("parity36.json", ["fg-compare", "--N", "12"]),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_allow_large_lifts_the_config_guard(capsys, tmp_path, base, argv):
    # one config key sets the guard of every exact-sum command, and one flag lifts it
    committed = ROOT / "configs" / base
    guarded = tmp_path / "cfg.json"
    guarded.write_text(json.dumps({**json.loads(committed.read_text()), "guard": 1}))

    def run(path, *flags):
        return _run(capsys, argv[0], "--config", str(path), *argv[1:], *flags)

    unguarded = run(committed)
    assert unguarded[0] == 0
    code, out, err = run(guarded)
    assert (code, out) == (2, "") and err.startswith("error: exact sum needs")
    assert err.count("\n") == 1 and err.endswith("(guard 1)\n")
    assert run(guarded, "--allow-large") == unguarded
    assert run(committed, "--allow-large") == unguarded


def test_allow_large_flag_lifts_the_factor_graph_guard(capsys, tmp_path):
    # the flag lifts the guard of its own run only: the next run without it is refused
    committed = ROOT / "configs" / "parity36.json"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**json.loads(committed.read_text()), "guard": 1}))
    for command in ("fg-exact", "fg-compare"):
        lifted = _run(capsys, command, "--config", str(path), "--N", "12", "--allow-large")
        assert lifted == _run(capsys, command, "--config", str(committed), "--N", "12")
        assert _run(capsys, command, "--config", str(path), "--N", "12")[0] == 2


# each box has 2^63 slots or more, and as many types: counted in int64, the
# slots wrapped (often to a negative number, which the guard let through) or
# raised OverflowError
PAST_INT64 = {
    "wide-alphabet": ["dense-exact", "--config", "{wide}", "--N", "4296000000"],
    "cw-int64-max": ["dense-exact", "--config", str(ROOT / "configs" / "cw.json"),
                     "--N", str(2**63 - 1)],
    "cw-2^63": ["dense-exact", "--config", str(ROOT / "configs" / "cw.json"),
                "--N", str(2**63)],
    "parity36-2^63": ["fg-exact", "--l", "3", "--r", "6", "--factor", "parity",
                      "--N", str(2**63)],
}


@pytest.mark.parametrize("name", PAST_INT64)
def test_an_exact_sum_past_int64_exits_2_at_any_guard(capsys, tmp_path, name):
    # 46340^2 = 2147395600 is a pair product: its box at N = 4296000000 has
    # just over 2^63 slots, and its types are just over 2^63 too
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"schema_version": 1, "model": "dense", "n": 1,
                                "alphabet": [0, 1, 46340],
                                "g": {"kind": "quadratic", "lam": 1e-9}}))
    argv = [arg.replace("{wide}", str(wide)) for arg in PAST_INT64[name]]
    for flags in ((), ("--allow-large",)):
        start = time.perf_counter()
        code, out, err = _run(capsys, *argv, *flags)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: exact sum needs")
        assert err.count("\n") == 1 and err.endswith("(past int64, at any guard)\n")


@pytest.mark.parametrize("exponents, M", [
    ([[0], [1], [2147395600]], 4296000000),  # the box and the types pass 2^63
    ([[0], [1]], 2**63 - 1),  # 2^63 slots and 2^63 types
    ([[1]], 2**63),  # one slot and one type, whose row holds M
    ([[0], [2**31]], 2**32),  # 2^32 + 1 types, whose rows reach 2^63
])
def test_power_terms_refuses_int64_overflow_with_no_guard(exponents, M):
    with pytest.raises(GuardError, match="past int64"):
        next(power_terms(np.array(exponents), [1] * len(exponents), M, guard=None))
    with pytest.raises(GuardError, match="past int64"):
        next(power_terms(np.array(exponents), np.zeros(len(exponents)), M, guard=None))
