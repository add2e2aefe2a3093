"""Random regular factor-graph ensembles against exact enumeration oracles.

The ground truth throughout is exact arithmetic: the (Nl)! permutation
average at tiny N, big-rational type sums, and a dual grid sweep for the
Bethe maximum.  Asymptotic claims are checked by ratios at growing N.
"""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from central_approx import factor_graph, types_core
from central_approx.errors import (
    ATInstabilityError,
    BoundaryMaximizerError,
    GuardError,
    InstabilityError,
    NonConvergenceError,
    NumericalFailure,
    ValidationFailure,
)
from central_approx.factor_graph import (
    brute_force_permutation_oracle,
    exact_expected_Z,
    exact_expected_Z_exact,
    expected_codewords_at_weight,
    fg_asymptotic_estimate,
    fg_constant_log,
    fg_fluctuation,
    lattice_step_s,
    ldpc_expected_codewords,
    load_factor_table,
    make_ensemble,
    smith_normal_form_divisors,
    solve_bethe,
    step_size_methods,
)
from central_approx.factor_graph import (
    _bethe_marginal,
    _bethe_mu,
    _bethe_objective,
    _socket_maps,
    _weight_tilt,
)
from central_approx.types_core import (
    Alphabet,
    MaximizerRecord,
    dirichlet_starts,
    require_interior,
)
from oracles import expected_type_count_exact, log_expected_type_count

ROOT = Path(__file__).resolve().parents[1]
BINARY = Alphabet((0.0, 1.0))
TERNARY = Alphabet((0.0, 1.0, 2.0))


def compositions(total, cells):
    if cells == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, cells - 1):
            yield (head,) + rest


# ------------------------------------------------------------ construction

def test_ensemble_rejects_bad_degrees():
    with pytest.raises(ValidationFailure):
        make_ensemble(1, 2, BINARY, "uniform")
    with pytest.raises(ValidationFailure):
        make_ensemble(2, 1, BINARY, "uniform")


def test_parity_needs_two_symbols():
    with pytest.raises(ValidationFailure):
        make_ensemble(2, 3, TERNARY, "parity")


def test_factor_table_validation():
    with pytest.raises(ValidationFailure):
        make_ensemble(2, 2, BINARY, [1.0, -0.5, 1.0, 1.0])
    with pytest.raises(ValidationFailure):
        make_ensemble(2, 2, BINARY, [0, 0, 0, 0])
    with pytest.raises(ValidationFailure):
        make_ensemble(2, 2, BINARY, "no-such-family")
    # a factor is a name or a sequence of numbers, each within the float range
    for factor in (lambda w: 1.0, 2.0, [1, 1, "x", 1], [[1, 1], [1, 1]],
                   [1, Fraction(10**400), 1, 1]):
        with pytest.raises(ValidationFailure):
            make_ensemble(2, 2, BINARY, factor)


def test_a_positive_rational_below_the_float_range_is_refused():
    # float(10^-400) is 0.0: kept, the word would leave the support, and the
    # exact E[Z] at N = 2 would be 1 rather than about 1 + 6.7e-401
    with pytest.raises(ValidationFailure, match="must not round to 0.0"):
        factor_graph.EnsembleSpec(2, 2, BINARY, [1, 0, 0, Fraction(1, 10**400)])
    # zeros of every kind, and the least subnormal, still load
    ens = factor_graph.EnsembleSpec(2, 2, BINARY, [1, Fraction(0), 0.0, 5e-324])
    assert ens.support.tolist() == [0, 3]


@pytest.mark.parametrize("alphabet, tokens", [
    ((0.0, 1.0), ("0.0", "1")),  # 0.0 names the symbol 0
    ((1e-7, 1.0), ("1e-7", "1.0")),  # 1e-7, not only the 1e-07 of format(value, "g")
    ((0.1, 0.1000001), ("0.1", "0.1000001")),  # equal at 6 digits, distinct values
], ids=["zero-point-zero", "exponent", "seven-digits"])
def test_factor_table_reads_symbols_by_value(tmp_path, alphabet, tokens):
    # the four words of r = 2, listed out of order; value k + 1 for word k
    path = tmp_path / "table.txt"
    a, b = tokens
    path.write_text(f"# word value\n{b} {a} 3\n{a} {a} 1\n{b} {b} 4\n{a} {b} 2\n")
    assert load_factor_table(str(path), Alphabet(alphabet), 2) == [1, 2, 3, 4]


@pytest.mark.parametrize("token", ["x", "nan"])
def test_factor_table_rejects_a_token_that_is_no_symbol(tmp_path, token):
    path = tmp_path / "table.txt"
    path.write_text(f"0 0 1\n0 {token} 1\n")
    with pytest.raises(ValidationFailure) as exc:
        load_factor_table(str(path), BINARY, 2)
    assert str(exc.value) == f"{path}:2: unknown symbol {token!r}"


def test_admissibility():
    ens = make_ensemble(3, 6, BINARY, "parity")
    assert ens.is_admissible(20) and not ens.is_admissible(3)
    with pytest.raises(ValidationFailure):
        exact_expected_Z(ens, 3)


def test_parity_support_is_even_weight_words():
    ens = make_ensemble(2, 4, BINARY, "parity")
    weights = ens.letter_counts[ens.support, 1]
    assert sorted(weights) == [0, 2, 2, 2, 2, 2, 2, 4]


def _eager_f_exact(table):
    """f_exact as the ensemble built it at construction before it became lazy."""
    vals = list(table)
    if all(isinstance(x, (int, np.integer, Fraction)) for x in vals):
        return tuple(x if isinstance(x, Fraction) else Fraction(int(x)) for x in vals)
    return None


@pytest.mark.parametrize("table", [
    [1, 0, 2, 3],
    [True, False, True, True],
    np.array([1, 0, 2, 3], dtype=np.int64),
    np.array([1, 0, 2, 3], dtype=np.int32),
    [Fraction(1, 3), 0, Fraction(5, 2), 2],
    [1, 0, 2.0, 3],
    [1, 0, np.float64(2), 3],
    [Fraction(1, 3), 0, 0.5, 2],
], ids=["int", "bool", "int64", "int32", "fraction", "float", "np-float", "fraction-float"])
def test_lazy_f_exact_equals_the_eager_tuple(table):
    ens = make_ensemble(2, 2, BINARY, table)
    want = _eager_f_exact(table)
    assert ens.f_exact == want
    assert (want is None) == any(isinstance(x, float) for x in table)
    if want is not None:
        assert all(type(x) is Fraction and type(x.numerator) is int for x in ens.f_exact)
    assert ens.f_exact is ens.f_exact  # built once


def test_lazy_f_exact_on_a_table_file_and_a_named_factor(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("0 0 2\n0 1 1/3\n1 0 0.25\n1 1 0\n")
    ens = make_ensemble(2, 2, BINARY, f"table:{path}")
    assert ens.f_exact == _eager_f_exact(load_factor_table(str(path), BINARY, 2)) == (
        Fraction(2), Fraction(1, 3), Fraction(1, 4), Fraction(0))
    parity = make_ensemble(3, 6, BINARY, "parity")
    assert parity.f_exact == _eager_f_exact(parity.f_values.astype(np.int64))


def test_log_f_is_the_log_of_the_table():
    ens = make_ensemble(2, 2, TERNARY, [0.5, 0, 2, 1, 3, 0, 0.25, 1, 7])
    with np.errstate(divide="ignore"):
        assert np.array_equal(ens.log_f, np.log(ens.f_values))
    assert not ens.log_f.flags.writeable


# -------------------------------------------------- expected type counts

def test_single_symbol_type_count_is_one():
    ens = make_ensemble(2, 2, Alphabet((3.0,)), [1.0])
    assert expected_type_count_exact(ens, [2], [2], 2) == 1
    assert log_expected_type_count(ens, [2], [2], 2) == pytest.approx(0.0, abs=1e-12)


def test_inconsistent_pair_rejected():
    ens = make_ensemble(3, 6, BINARY, "parity")
    u = [0] * 64
    u[-1] = 3
    with pytest.raises(ValidationFailure):
        log_expected_type_count(ens, [3, 3], u, 6)


@pytest.mark.parametrize("fn", [log_expected_type_count, expected_type_count_exact])
def test_non_integral_type_rejected(fn):
    # v = [1.5, 1.5] used to be read as [1, 1], which gives 2/3
    ens = make_ensemble(2, 2, BINARY, "uniform")
    with pytest.raises(ValidationFailure, match="integer"):
        fn(ens, [1.5, 1.5], [1, 0, 0, 1], 2)


def test_exact_count_guard():
    ens = make_ensemble(3, 6, BINARY, "parity")
    v = [30, 30]
    u = [0] * 64
    u[0] = 30
    with pytest.raises(GuardError):
        expected_type_count_exact(ens, v, u, 60)


def test_type_counts_match_permutation_average():
    # every tallied (v, u) must equal the formula as an exact rational, and
    # the weights must sum to K^N: each permutation x assignment counts once
    for l, r, alphabet, factor, N, nperm in (
        (2, 2, BINARY, "uniform", 2, 24),
        (2, 2, TERNARY, "uniform", 3, 720),
        (2, 2, TERNARY, "all-equal", 3, 720),
        (2, 4, BINARY, "parity", 4, 40320),
    ):
        ens = make_ensemble(l, r, alphabet, factor)
        oracle = brute_force_permutation_oracle(ens, N)
        assert oracle.permutations == nperm
        for (v_key, u_key), weight in oracle.type_counts.items():
            assert expected_type_count_exact(ens, v_key, u_key, N) == weight
        assert sum(oracle.type_counts.values()) == len(alphabet) ** N
        assert len(oracle.type_counts) >= 4


@pytest.mark.parametrize("l,r,N", [(2, 2, 3), (2, 4, 4)])
def test_type_count_sum_is_multinomial(l, r, N):
    # summing E[N(v,u)] over consistent u recovers the number of
    # assignments with letter type v, exactly
    ens = make_ensemble(l, r, BINARY, "uniform")
    M = ens.num_factors(N)
    cells = len(ens.words)
    for ones in range(N + 1):
        v = (N - ones, ones)
        total = Fraction(0)
        for u in compositions(M, cells):
            stub = ens.letter_counts.T @ np.array(u)
            if np.any(stub % l) or tuple(stub // l) != v:
                continue
            total += expected_type_count_exact(ens, v, u, N)
        assert total == math.comb(N, ones)


# ----------------------------------------------------- exact E[Z] oracles

PERMUTATION_CASES = [
    ("parity", 2, 2, 2, Fraction(8, 3)),
    ("parity", 2, 2, 3, Fraction(16, 5)),
    ("parity", 2, 2, 4, Fraction(128, 35)),
    ("uniform", 2, 2, 2, Fraction(4)),
    ("uniform", 2, 2, 3, Fraction(8)),
    ("parity", 2, 4, 2, Fraction(4)),
    ("parity", 2, 4, 4, Fraction(304, 35)),
    ("uniform", 2, 4, 2, Fraction(4)),
    ("uniform", 2, 4, 4, Fraction(16)),
]


@pytest.mark.parametrize("factor,l,r,N,expected", PERMUTATION_CASES)
def test_exact_Z_equals_permutation_oracle(factor, l, r, N, expected):
    ens = make_ensemble(l, r, BINARY, factor)
    oracle = brute_force_permutation_oracle(ens, N)
    assert oracle.expected_Z == expected
    assert exact_expected_Z_exact(ens, N) == expected
    assert exact_expected_Z(ens, N) == pytest.approx(float(math.log(expected)), abs=1e-12)


def test_general_alphabet_path_matches_oracle():
    ens = make_ensemble(2, 2, TERNARY, "uniform")
    oracle = brute_force_permutation_oracle(ens, 2)
    assert exact_expected_Z_exact(ens, 2) == oracle.expected_Z == 9


@pytest.mark.parametrize("alphabet,l,r,factor,N,expected", [
    (BINARY, 2, 4, "parity", 4, Fraction(304, 35)),
    (TERNARY, 2, 2, "uniform", 4, Fraction(81)),
], ids=["binary-parity", "ternary-uniform"])
def test_contraction_guard(alphabet, l, r, factor, N, expected):
    # the guard bounds the coefficient array in both arithmetics
    ens = make_ensemble(l, r, alphabet, factor)
    as_float = make_ensemble(l, r, alphabet, ens.f_values.tolist())
    assert as_float.f_exact is None
    for fn, e in ((exact_expected_Z_exact, ens), (exact_expected_Z, ens),
                  (exact_expected_Z, as_float)):
        with pytest.raises(GuardError):
            fn(e, N, guard=3)
    assert exact_expected_Z_exact(ens, N, guard=None) == expected
    for e in (ens, as_float):
        assert exact_expected_Z(e, N, guard=None) == pytest.approx(
            math.log(expected), abs=1e-12)


@pytest.mark.parametrize("K,N", [(3, 500), (4, 100), (6, 20)])
def test_sparse_support_under_the_default_guard(K, N):
    # all-equal (2,2): Z = K^(cycles of the random 2-regular graph), and
    # E[Z] = prod_j (2j-1+K-1)/(2j-1).  Its K support words leave far fewer
    # factor types than packed coefficient words, so the power is expanded.
    alphabet = Alphabet(tuple(float(z) for z in range(K)))
    ens = make_ensemble(2, 2, alphabet, "all-equal")
    expected = math.prod(Fraction(2 * j + K - 2, 2 * j - 1) for j in range(1, N + 1))
    assert exact_expected_Z_exact(ens, N) == expected
    as_float = make_ensemble(2, 2, alphabet, ens.f_values.tolist())
    assert exact_expected_Z(as_float, N) == pytest.approx(math.log(expected), rel=1e-12)


def test_packed_exact_sums_finish_within_a_second():
    # the packed power by Miller's recurrence: about 0.1 s for both (the
    # big-integer power took about 2 s), with the same value as the log route
    ternary = make_ensemble(2, 2, TERNARY, f"table:{ROOT}/perfbench/inputs/ternary22.txt")
    cases = [(ternary, 80), (make_ensemble(3, 6, BINARY, "parity"), 960)]
    start = time.perf_counter()
    exact = [exact_expected_Z_exact(ens, N) for ens, N in cases]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    for (ens, N), value in zip(cases, exact):
        log_value = math.log(value.numerator) - math.log(value.denominator)
        as_float = make_ensemble(ens.l, ens.r, ens.alphabet, ens.f_values.tolist())
        assert log_value == pytest.approx(exact_expected_Z(ens, N), rel=1e-12)
        assert log_value == pytest.approx(exact_expected_Z(as_float, N), rel=1e-12)


def _float_table_36(seed):
    """(3,6) table: even-weight words 1, odd words uniform on [0.25, 0.45]
    from random.Random(seed), as the benchmark's float (3,6) input."""
    rng = random.Random(seed)
    return [1 if sum(word) % 2 == 0 else rng.uniform(0.25, 0.45)
            for word in itertools.product((0, 1), repeat=6)]


def test_float_log_power_is_as_accurate_as_the_slot_loop():
    # the float sum against the exact sum of the same (dyadic) table: no
    # further off than the per-slot log loop was (-2.96e-12 and -9.09e-12)
    values = _float_table_36(41)
    floats = make_ensemble(3, 6, BINARY, values)
    dyadic = make_ensemble(3, 6, BINARY, [Fraction(v) for v in values])
    for N, loop_error in ((600, 2.96e-12), (1200, 9.1e-12)):
        exact = exact_expected_Z_exact(dyadic, N)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert abs(exact_expected_Z(floats, N) - log_exact) <= loop_error


def test_float_ladder_finishes_within_its_cap():
    # N = 600, 1200, 2400 took about 0.05 s with the block power and 0.25 s
    # with the per-slot loop, on 2 shared Xeon cores
    floats = make_ensemble(3, 6, BINARY, _float_table_36(41))
    start = time.perf_counter()
    for N in (600, 1200, 2400):
        exact_expected_Z(floats, N)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.15, f"took {elapsed:.3f}s"


def test_codewords_at_weight_split_the_exact_sum():
    # one term per weight, under the same guard; (2,2) parity is expanded
    for l, r, N in ((2, 4, 4), (2, 2, 6)):
        ens = make_ensemble(l, r, BINARY, "parity")
        with pytest.raises(GuardError):
            expected_codewords_at_weight(l, r, N, N // 2, guard=3)
        per_weight = [expected_codewords_at_weight(l, r, N, w, guard=None)
                      for w in range(N + 1)]
        assert sum(per_weight) == exact_expected_Z_exact(ens, N)


def test_expansion_builds_only_the_kept_coefficients(monkeypatch):
    # (3,2) ternary all-equal at N=8 is expanded over the 91 factor types of
    # M=12; only the 15 whose letter counts are divisible by l=3 reach E[Z],
    # and only their exact coefficients are built
    ens = make_ensemble(3, 2, TERNARY, "all-equal")
    expected = exact_expected_Z_exact(ens, 8)
    calls = []
    real = types_core.multinomial
    monkeypatch.setattr(types_core, "multinomial", lambda u: calls.append(u) or real(u))
    assert exact_expected_Z_exact(ens, 8) == expected
    assert len(calls) == 15


def test_permutation_oracle_guard():
    ens = make_ensemble(2, 2, BINARY, "uniform")
    with pytest.raises(GuardError):
        brute_force_permutation_oracle(ens, 5)


def test_permutation_oracle_key_guard(monkeypatch):
    # 64 letters, (6,2) at N=2: 12 stubs are admitted with guard=None, but
    # the packed key needs (64^2)^6 = 2^72 values per variable type; the
    # guard refuses before any socket map is drawn
    ens = make_ensemble(6, 2, Alphabet(range(64)), "uniform")
    assert ens.is_admissible(2) and ens.num_factors(2) == 6

    def no_enumeration(*args):
        raise AssertionError("the socket-map walk started")

    monkeypatch.setattr(factor_graph, "_socket_maps", no_enumeration)
    with pytest.raises(GuardError, match="int64"):
        brute_force_permutation_oracle(ens, 2, guard=None)


@pytest.mark.parametrize("N,l", [(1, 1), (4, 1), (1, 3), (2, 2), (3, 2), (2, 3), (4, 2),
                                 (2, 4), (3, 3)])
def test_socket_maps_are_the_distinct_permutation_maps(N, l):
    # the walk the oracle replaced: every stub permutation, read through the
    # variable that owns each stub
    var_of_stub = np.arange(N * l) // l
    walked = {tuple(var_of_stub[list(p)].tolist())
              for p in itertools.permutations(range(N * l))}
    maps = list(_socket_maps(N, l))
    assert len(maps) == len(set(maps)) == math.factorial(N * l) // math.factorial(l) ** N
    assert set(maps) == walked
    assert maps == sorted(maps)


def test_exact_rational_needs_exact_table():
    ens = make_ensemble(2, 2, BINARY, [math.exp(-abs(x[0] - x[1]))
                                       for x in itertools.product(BINARY.values, repeat=2)])
    with pytest.raises(ValidationFailure):
        exact_expected_Z_exact(ens, 2)
    # the float path still runs
    assert np.isfinite(exact_expected_Z(ens, 4))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([BINARY, TERNARY]), st.sampled_from([2, 3]), st.data())
def test_generating_function_matches_permutations(alphabet, N, data):
    K = len(alphabet)
    table = data.draw(st.lists(st.integers(0, 4), min_size=K * K, max_size=K * K))
    assume(any(table))
    ens = make_ensemble(2, 2, alphabet, table)
    oracle = brute_force_permutation_oracle(ens, N)
    exact = exact_expected_Z_exact(ens, N)
    assert exact == oracle.expected_Z
    # the same table as floats has no exact values: the log arithmetic runs
    as_float = make_ensemble(2, 2, alphabet, [float(x) for x in table])
    assert as_float.f_exact is None
    expected = math.log(exact) if exact else -math.inf
    assert exact_expected_Z(as_float, N) == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------- Bethe maximum

def bethe_dual_grid(ens, points=801):
    """Sweep the letter marginal; solve the inner maximization exactly.

    At a fixed marginal t the entropy-maximizing factor measure is the
    exponential family mu ~ f(x) e^{theta n1(x)} with theta matching the
    marginal, so a fine 1-D sweep brackets the Bethe maximum from below.
    """
    n1 = ens.letter_counts[:, 1].astype(float)
    logf = np.full(len(ens.words), -np.inf)
    sup = ens.support
    logf[sup] = np.log(ens.f_values[sup])
    best = -np.inf
    for t in np.linspace(1e-9, 1.0 - 1e-9, points):
        lo, hi = -60.0, 60.0
        for _ in range(90):
            theta = 0.5 * (lo + hi)
            lw = logf + theta * n1
            lw -= lw.max()
            mu = np.exp(lw)
            mu /= mu.sum()
            if float(mu @ n1) / ens.r < t:
                lo = theta
            else:
                hi = theta
        if abs(float(mu @ n1) / ens.r - t) > 1e-6:
            continue
        pos = mu > 0
        h_mu = -float(mu[pos] @ np.log(mu[pos]))
        mean_logf = float(mu[sup] @ np.log(ens.f_values[sup]))
        nu = np.array([1.0 - t, t])
        h_nu = -float(nu @ np.log(nu))
        best = max(best, ens.l / ens.r * (h_mu + mean_logf) - (ens.l - 1) * h_nu)
    return best


@pytest.mark.parametrize("l,r", [(3, 6), (2, 4)])
def test_bethe_parity_growth_rate(l, r):
    ens = make_ensemble(l, r, BINARY, "parity")
    sol = solve_bethe(ens)
    assert sol.F == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert sol.residual < 1e-10
    require_interior(sol.co_maximizers)
    grid = bethe_dual_grid(ens)
    assert grid <= sol.F + 5e-9
    assert sol.F - grid < 1e-6


def test_bethe_uniform_factor():
    ens = make_ensemble(2, 2, BINARY, "uniform")
    sol = solve_bethe(ens)
    assert sol.F == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.allclose(_bethe_mu(ens, sol.nu_star), 0.25, atol=1e-10)


def test_bethe_single_symbol():
    ens = make_ensemble(2, 2, Alphabet((1.0,)), [2.5])
    sol = solve_bethe(ens)
    assert sol.F == pytest.approx(math.log(2.5), abs=1e-12)


def test_bethe_concentrating_maximizer_is_boundary():
    ens = make_ensemble(3, 3, TERNARY, "all-equal")
    sol = solve_bethe(ens)
    with pytest.raises(BoundaryMaximizerError):
        require_interior(sol.co_maximizers)
    assert abs(sol.F) < 1e-4
    with pytest.raises(BoundaryMaximizerError):
        fg_constant_log(ens, sol)


def test_bethe_marginal_consistency():
    ens = make_ensemble(3, 6, BINARY, "parity")
    sol = solve_bethe(ens)
    marg = np.zeros(2)
    for w, m in zip(ens.letter_counts, _bethe_mu(ens, sol.nu_star)):
        marg += m * w / ens.r
    assert np.abs(marg - sol.nu_star).max() < 1e-10


def test_bethe_nonconvergence_reports_the_best_residual(monkeypatch):
    monkeypatch.setattr(types_core, "MAX_ITER", 3)
    with pytest.raises(NonConvergenceError) as info:
        solve_bethe(make_ensemble(3, 3, BINARY, [1, 2, 3, 4, 5, 6, 7, 8]))
    assert 0.0 < info.value.residual < 1.0


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]),
       st.lists(st.floats(0.2, 5.0), min_size=8, max_size=8))
def test_bethe_multistart_reaches_the_best_fixed_point(d, values):
    # strictly positive (d,d) tables: every start converges to a stationary
    # point, F is the Bethe objective there, and more starts never lose
    ens = make_ensemble(d, d, BINARY, values[:2**d])
    sol = solve_bethe(ens)
    assert sol.residual <= 1e-10
    nu = sol.nu_star
    assert sol.F == pytest.approx(_bethe_objective(ens, nu, _bethe_mu(ens, nu)), abs=1e-12)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factor_graph, "RESTARTS", 0)
        assert sol.F >= solve_bethe(ens).F - 1e-12


@pytest.mark.parametrize("seed", [0, 1, 7, 21])
def test_bethe_finds_the_higher_of_two_maxima_at_every_seed(seed):
    # this (4,4) table has two Bethe local maxima, F = 1.1034621 (reached by
    # few starts) and F = 1.0994998; every seed must find the higher one
    table = [1, 1, 0.5, 2, 3, 1, 0.5, 0, 3, 0, 3, 0.5, 3, 2, 0.5, 3]
    sol = solve_bethe(make_ensemble(4, 4, BINARY, table), seed=seed)
    assert sol.F == pytest.approx(1.1034621, abs=1e-7)


def test_bethe_maps_round_each_row_on_its_own():
    # a row's word measure and marginal are bitwise the same in a batch of 33
    # starts as alone, so the solution cannot depend on how many starts share
    # a batch; a (3,6) table with seeded odd-word values (random.Random(50)),
    # tilted by -0.3 per odd letter
    rng = random.Random(50)
    table = [(1.0 if sum(w) % 2 == 0 else rng.uniform(0.25, 0.45)) * math.exp(-0.3 * sum(w))
             for w in itertools.product((0, 1), repeat=6)]
    ens = make_ensemble(3, 6, BINARY, table)
    nus = dirichlet_starts(2, 32, 50)
    mus = _bethe_mu(ens, nus)
    marginals = _bethe_marginal(ens, mus)
    for i, nu in enumerate(nus):
        assert np.array_equal(_bethe_mu(ens, nus[i:i + 1])[0], mus[i])
        assert np.array_equal(_bethe_mu(ens, nu), mus[i])
        assert np.array_equal(_bethe_marginal(ens, mus[i:i + 1])[0], marginals[i])
        assert np.array_equal(_bethe_marginal(ens, mus[i]), marginals[i])


# ------------------------------------------------- fluctuation matrices

def test_assembled_matrices_shapes_and_identities():
    ens = make_ensemble(2, 3, BINARY, "uniform")
    sol = solve_bethe(ens)
    nu = sol.nu_star
    variable_bare, curvature = fg_fluctuation(ens, nu)
    assert variable_bare.shape == curvature.shape == (2, 2)
    assert np.allclose(variable_bare, variable_bare.T, rtol=0, atol=1e-15)
    # letter frequencies sum to one per word, so the rows of V' - V sum to the
    # gap between nu and the marginal of its word measure, zero up to the
    # solver residual
    assert np.allclose(variable_bare.sum(axis=1), 0.0, rtol=0, atol=1e-10)
    assert np.array_equal(curvature, np.diag(ens.r * (ens.l - 1) / (ens.l * nu)))
    # the same pair from nu as a plain list
    plain = fg_fluctuation(ens, nu.tolist())
    for got, want in zip(plain, (variable_bare, curvature)):
        assert np.array_equal(got, want)
    # product-measure maximizer: V' - V collapses to the multinomial
    # covariance of one word, scaled by 1/r
    expect = (np.diag(nu) - np.outer(nu, nu)) / ens.r
    assert np.abs(variable_bare - expect).max() < 1e-10


def test_assemble_rejects_a_nu_that_is_not_a_fixed_point():
    # the uniform (2,3) Bethe map sends (0.7, 0.3) to its square roots,
    # normalized, about (0.60, 0.40); its fixed point (1/2, 1/2) passes
    ens = make_ensemble(2, 3, BINARY, "uniform")
    skew = np.array([0.7, 0.3])
    with pytest.raises(ValidationFailure, match="not a fixed point of the Bethe map"):
        fg_fluctuation(ens, skew)
    fg_fluctuation(ens, solve_bethe(ens).nu_star)


def test_assemble_rejects_boundary_marginal():
    # every weight below BOUNDARY_TOL (1e-10); at a subnormal one the curvature
    # r(l-1)/(l nu) would overflow
    ens = make_ensemble(2, 2, BINARY, "uniform")
    for weight in (0.0, 5e-324, 1e-11):
        nu = np.array([1.0 - weight, weight])
        with pytest.raises(BoundaryMaximizerError, match="touches the simplex boundary"):
            fg_fluctuation(ens, nu)


# ------------------------------------------------------- lattice step s

def test_smith_normal_form_known_cases():
    assert smith_normal_form_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form_divisors([[2, 4], [4, 8]]) == [2, 0]
    assert smith_normal_form_divisors([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form_divisors([[6], [4]]) == [2]
    divisors = smith_normal_form_divisors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for a, b in zip(divisors, divisors[1:]):
        assert b == 0 or (a != 0 and b % a == 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=3),
                min_size=2, max_size=3).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_chain_and_determinant(rows):
    A = np.array(rows)
    d = smith_normal_form_divisors(A)
    for a, b in zip(d, d[1:]):
        assert b == 0 or (a != 0 and b % a == 0)
    if A.shape[0] == A.shape[1]:
        prod = 1
        for x in d:
            prod *= x
        assert prod == round(abs(np.linalg.det(A)))


S_BATTERY = [
    (2, 4, BINARY, "parity", 1),
    (3, 6, BINARY, "parity", 3),
    (2, 6, BINARY, "parity", 1),
    (3, 4, BINARY, "parity", 3),
    (5, 4, BINARY, "parity", 5),
    (4, 4, BINARY, "parity", 2),
    (6, 4, BINARY, "parity", 3),
    (2, 2, BINARY, "uniform", 2),
    (3, 2, BINARY, "uniform", 3),
    (2, 2, TERNARY, "uniform", 4),
    (3, 2, TERNARY, "uniform", 9),
    (2, 3, BINARY, "all-equal", 2),
    (3, 3, BINARY, "all-equal", 1),
    (2, 2, BINARY, "parity", 1),
    (3, 2, BINARY, "parity", 3),
    (4, 2, BINARY, "parity", 2),
    (5, 2, BINARY, "parity", 5),
    (4, 6, BINARY, "parity", 2),
    (5, 6, BINARY, "parity", 5),
    (2, 3, TERNARY, "all-equal", 4),
    (3, 3, TERNARY, "all-equal", 1),
]


@pytest.mark.parametrize("l,r,alphabet,factor,s", S_BATTERY)
def test_step_size_battery(l, r, alphabet, factor, s):
    ens = make_ensemble(l, r, alphabet, factor)
    assert lattice_step_s(ens) == s
    # for odd l, a box of width 3l covers every residue class evenly,
    # making the lattice density exactly 1/s
    methods = step_size_methods(ens)
    assert methods["snf"] == s
    assert methods["residue_count"] == s
    if "prime_rank" in methods:
        assert methods["prime_rank"] == s
    if "binary_gcd" in methods:
        assert methods["binary_gcd"] == s
    assert ("box_density" in methods) == bool(l % 2)
    if l % 2:
        assert methods["box_density"] == Fraction(1, s)


def test_residue_walk_is_guarded(monkeypatch):
    # (3,6) parity: 31 support columns x 3 values x 3 states is 279 steps
    ens = make_ensemble(3, 6, BINARY, "parity")
    monkeypatch.setattr(factor_graph, "RESIDUE_WALK_GUARD", 279)
    assert step_size_methods(ens)["residue_count"] == 3
    monkeypatch.setattr(factor_graph, "RESIDUE_WALK_GUARD", 278)
    with pytest.raises(GuardError, match="31 columns x 3 values x 3\\^1 states"):
        step_size_methods(ens)
    assert lattice_step_s(ens) == 3  # the Smith form needs no walk


def test_step_size_reference_invariance():
    # the congruences are taken against letter 0 and the first support word;
    # relabeling the alphabet moves both.  The battery's tables are symmetric,
    # so each is checked with its last support word dropped as well.  In the
    # battery the first support word is all zeros; in the last table it is 01
    for l, r, alphabet, factor, s in (S_BATTERY[1], S_BATTERY[9], S_BATTERY[10],
                                      S_BATTERY[12], S_BATTERY[19],
                                      (2, 2, BINARY, [0, 1, 0, 1], 2)):
        K = len(alphabet)
        words = list(itertools.product(range(K), repeat=r))
        table = make_ensemble(l, r, alphabet, factor).f_values
        trimmed = table.copy()
        trimmed[np.flatnonzero(table)[-1]] = 0.0
        for values in (table, trimmed):
            firsts, steps = set(), set()
            for perm in itertools.permutations(range(K)):
                relabeled = [values[words.index(tuple(perm[z] for z in w))] for w in words]
                ens = make_ensemble(l, r, alphabet, relabeled)
                firsts.add(int(ens.support[0]))
                steps |= {1 / v if name == "box_density" else v
                          for name, v in step_size_methods(ens).items()}
            assert len(steps) == 1
            if values is table:
                assert steps == {s}
            else:
                assert len(firsts) > 1


# --------------------------------------------- the constant, end to end

def test_uniform_factor_constant_is_one():
    # f == 1 makes Z = 2^N exactly; the estimate must be exact too
    ens = make_ensemble(2, 2, BINARY, "uniform")
    sol = solve_bethe(ens)
    assert abs(fg_constant_log(ens, sol).log_constant) < 1e-13
    for N in (4, 10):
        assert fg_asymptotic_estimate(ens, N, sol) == pytest.approx(
            exact_expected_Z(ens, N), abs=1e-10)


@pytest.mark.parametrize("l,r,constant,Ns,ratios", [
    (3, 6, 1.0, (20, 40, 60), (1.008778409, 1.001520522, 1.000648390)),
    (2, 4, 2.0, (20, 40, 80), (1.025047320, 1.010555439, 1.004953909)),
])
def test_parity_constant_against_exact_counts(l, r, constant, Ns, ratios):
    ens = make_ensemble(l, r, BINARY, "parity")
    sol = solve_bethe(ens)
    const_log = fg_constant_log(ens, sol).log_constant
    assert math.exp(const_log) == pytest.approx(constant, rel=1e-12)
    seen = []
    for N, expected in zip(Ns, ratios):
        ratio = math.exp(exact_expected_Z(ens, N) - N * sol.F - const_log)
        assert ratio == pytest.approx(expected, rel=1e-5)
        seen.append(ratio)
    assert seen[0] > seen[1] > seen[2] > 1.0


def test_fg_constant_allocates_no_word_square():
    # (2,12) parity: one 4096 x 4096 float array over the words would take 128 MB
    ens = make_ensemble(2, 12, BINARY, "parity")
    solution = solve_bethe(ens)
    tracemalloc.start()
    try:
        value = fg_constant_log(ens, solution).log_constant
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    # log 2 = 0.6931471805599453; the last digits follow the start that is kept
    assert value == 0.6931471805599249


def test_constant_invariant_under_relabeling():
    plain = make_ensemble(3, 6, BINARY, "parity")
    swapped = make_ensemble(3, 6, Alphabet((1.0, 0.0)), "parity")
    sol_p, sol_s = solve_bethe(plain), solve_bethe(swapped)
    assert sol_p.F == pytest.approx(sol_s.F, abs=1e-12)
    assert fg_constant_log(plain, sol_p).log_constant == pytest.approx(
        fg_constant_log(swapped, sol_s).log_constant, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=4, max_size=4))
def test_growth_rate_invariant_under_relabeling(table):
    ens = make_ensemble(2, 2, BINARY, table)
    flipped = make_ensemble(2, 2, BINARY, [table[3], table[2], table[1], table[0]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factor_graph, "RESTARTS", 6)
        a, b = solve_bethe(ens), solve_bethe(flipped)
    assert a.F == pytest.approx(b.F, abs=1e-9)
    try:
        const_a = fg_constant_log(ens, a).log_constant
        const_b = fg_constant_log(flipped, b).log_constant
    except NumericalFailure:
        assume(False)
    assert const_a == pytest.approx(const_b, abs=1e-8)


# ferromagnetic tables: two mirror-image Bethe maximizers, each carrying half
# of E[Z]; the constant must sum their Gaussian terms
FERROMAGNETS = [(4, 2, [4, 1, 1, 4]), (3, 3, [5, 1, 1, 1, 1, 1, 1, 5])]


@pytest.mark.parametrize("l,r,table", FERROMAGNETS)
def test_co_maximizers_sum_their_constants(l, r, table):
    ens = make_ensemble(l, r, BINARY, table)
    sol = solve_bethe(ens)
    assert len(sol.co_maximizers) == 2
    a, b = sol.co_maximizers
    assert np.allclose(a, b[::-1], atol=1e-10)
    const = fg_constant_log(ens, sol).log_constant
    gaps = [abs(math.exp(exact_expected_Z(ens, N) - N * sol.F - const) - 1.0)
            for N in (30, 60, 120)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.006


def test_fg_instability_raised():
    # the symmetric point of the (4,2) ferromagnet is a saddle of the Bethe
    # objective, where det(I - C(V'-V)) = -0.2; the solver escapes to the two
    # asymmetric maximizers, so drive the constant with the saddle directly
    ens = make_ensemble(4, 2, BINARY, [4, 1, 1, 4])
    saddle = MaximizerRecord(co_maximizers=np.array([[0.5, 0.5]]), F=0.0, residual=0.0,
                             diagnostics={})
    with pytest.raises(ATInstabilityError):
        fg_constant_log(ens, saddle)
    with pytest.raises(InstabilityError):
        fg_constant_log(ens, saddle)


# ------------------------------------------------------------------ LDPC

def test_ldpc_total_count_matches_estimate():
    ens = make_ensemble(3, 6, BINARY, "parity")
    res = ldpc_expected_codewords(3, 6, 60)
    assert res.omega is None
    assert res.log_expected_count == pytest.approx(20.794415416798376, rel=1e-10)
    assert res.log_expected_count == pytest.approx(fg_asymptotic_estimate(ens, 60), abs=1e-12)


def test_ldpc_weight_zero_is_the_zero_word():
    res = ldpc_expected_codewords(3, 6, 60, omega=0.0)
    assert (res.log_expected_count, res.growth_rate, res.log_constant) == (0.0, 0.0, 0.0)
    for N in (12, 60):
        assert expected_codewords_at_weight(3, 6, N, 0) == 1


def test_ldpc_half_weight_is_untilted():
    res = ldpc_expected_codewords(3, 6, 60, omega=0.5)
    assert res.growth_rate == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
    assert abs(res.theta) < 1e-9


def test_ldpc_weight_enumerator_point():
    res = ldpc_expected_codewords(3, 6, 100, omega=0.3)
    assert res.growth_rate == pytest.approx(0.26621528497226573, abs=1e-9)
    assert res.theta == pytest.approx(-0.7916330732768049, abs=1e-6)
    # the exact finite-N counts close in on the growth rate from below
    gaps = []
    for N in (40, 200):
        w = int(0.3 * N)
        exact = expected_codewords_at_weight(3, 6, N, w)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        gaps.append(res.growth_rate - log_exact / N)
    assert gaps[1] < gaps[0]
    assert 0 < gaps[1] < 0.015


def _tilted_parity(l, r, theta):
    # the (l,r) parity table tilted to 1[even] e^(theta N_1/l): a field theta
    # on letter 1 of the Bethe objective
    return make_ensemble(l, r, BINARY, [(1.0 - sum(w) % 2) * math.exp(theta * sum(w) / l)
                                        for w in itertools.product((0, 1), repeat=r)])


def test_ldpc_tilt_hits_the_weight_fraction():
    ens = make_ensemble(3, 6, BINARY, "parity")
    _, mu = _weight_tilt(ens, 0.3)
    assert abs(_bethe_marginal(ens, mu)[1] - 0.3) <= 1e-13
    # the Bethe iteration on the tilted table lands on the same marginal,
    # up to its own fixed-point error at FIXED_POINT_TOL (3.2e-12 measured)
    res = ldpc_expected_codewords(3, 6, 60, omega=0.3)
    sol = solve_bethe(_tilted_parity(3, 6, res.theta))
    assert abs(sol.nu_star[1] - 0.3) <= 1e-11


def test_ldpc_weight_point_matches_the_oracle():
    # 50-digit mpmath values at (3,6), omega = 0.3: lam solves
    # sum_{k even} C(6,k) k e^(lam k) / sum_{k even} C(6,k) e^(lam k) = 6 omega
    # by findroot, growth = (l/r)(log Z - lam r omega) - (l-1) H(nu),
    # theta = l lam - (l-1) log(omega/(1-omega)), and the constant is
    # (1/2) log l - log s - (1/2) log det(I - C(V'-V)) with s = 3
    res = ldpc_expected_codewords(3, 6, 60, omega=0.3)
    assert res.growth_rate == pytest.approx(0.26621528497226572601, rel=1e-13)
    assert res.theta == pytest.approx(-0.79163307327680487455, rel=1e-13)
    assert res.log_constant == pytest.approx(0.11169042577664948133, abs=1e-13)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from([(3, 6), (4, 8)]), st.floats(0.16, 0.49))
def test_ldpc_weight_point_is_the_tilted_bethe_point(degrees, omega):
    # below omega of about 0.27 on (3,6) and 0.29 on (4,8) the interior point
    # is only a local maximum of the tilted objective (the all-zeros boundary
    # is higher), so the solve
    # runs the single uniform start, which the damped iteration carries to
    # the interior fixed point; near omega = 0.16 the determinant is small
    # and the iteration slow, so its marginal is off by up to 6e-11 there
    l, r = degrees
    res = ldpc_expected_codewords(l, r, 2 * r, omega)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factor_graph, "RESTARTS", 0)
        sol = solve_bethe(_tilted_parity(l, r, res.theta))
    assert abs(sol.nu_star[1] - omega) <= 1e-10
    assert sol.F - res.theta * omega == pytest.approx(res.growth_rate, abs=1e-11)


def test_ldpc_full_weight_even_r():
    res = ldpc_expected_codewords(3, 6, 60, omega=1.0)
    assert res.log_expected_count == 0.0
    assert expected_codewords_at_weight(3, 6, 12, 12) == 1


def test_ldpc_infeasible_weights():
    # odd r kills the all-ones word: anything past the largest even
    # fraction has expected count zero
    res = ldpc_expected_codewords(2, 3, 6, omega=0.9)
    assert res.log_expected_count == -math.inf
    with pytest.raises(ValidationFailure):
        ldpc_expected_codewords(2, 3, 6, omega=2.0 / 3.0)
    with pytest.raises(ValidationFailure):
        ldpc_expected_codewords(3, 6, 60, omega=1.1)
    with pytest.raises(ValidationFailure):
        ldpc_expected_codewords(3, 6, 60, omega=-0.1)


def test_weight_enumerator_sums_to_total():
    N = 12
    ens = make_ensemble(3, 6, BINARY, "parity")
    total = sum(expected_codewords_at_weight(3, 6, N, w) for w in range(N + 1))
    assert total == exact_expected_Z_exact(ens, N)
    assert total == Fraction(28957999024, 434113615)
