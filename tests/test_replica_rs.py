"""RS pattern matrices, the three-factor determinant, and the n->0 correction."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from central_approx.dense import (
    DenseModelSpec,
    PolyOverlap,
    central_approx_constant,
    distinct_pair_positions,
    field_local,
    solve_variational,
)
from central_approx.errors import InstabilityError, ValidationFailure
from central_approx.replica_rs import (
    RSParams,
    build_pqr_matrix,
    pqr_eigenvalues,
    rs_correction_n0,
    rs_determinant,
    rs_moment_patterns,
    sk_paramagnetic_correction,
)
from central_approx.types_core import Alphabet

params = st.floats(-0.3, 0.3, allow_nan=False)


def test_build_small_patterns():
    assert np.array_equal(build_pqr_matrix(3, 1.0, 0.0, 0.0), np.eye(3))
    A = build_pqr_matrix(4, 1.0, 1.0, 1.0)
    assert A.shape == (6, 6)
    assert np.array_equal(A, np.ones((6, 6)))
    assert np.linalg.matrix_rank(A) == 1
    assert np.array_equal(build_pqr_matrix(2, 0.7, 3.0, -1.0), [[0.7]])
    with pytest.raises(ValueError):
        build_pqr_matrix(1, 1.0, 0.0, 0.0)


def test_build_matches_the_pair_loop():
    # the double loop over replica pairs the broadcast replaced
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        P, Q, R = rng.uniform(-1, 1, 3)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        want = np.array([[(R, Q, P)[len({a, b} & {c, d})] for c, d in pairs]
                         for a, b in pairs])
        assert np.array_equal(build_pqr_matrix(n, P, Q, R), want)


def test_pattern_placement_n4():
    # (0,1) vs (2,3) are disjoint; (0,1) vs (0,2) share one index
    A = build_pqr_matrix(4, 5.0, 7.0, 11.0)
    assert A[0, 0] == 5.0
    assert A[0, 1] == 7.0  # pairs (0,1), (0,2)
    assert A[0, 5] == 11.0  # pairs (0,1), (2,3)
    assert np.array_equal(A, A.T)


def test_eigenvalues_match_numeric():
    rng = np.random.default_rng(11)
    for n in range(4, 9):
        P, Q, R = rng.uniform(-1, 1, 3)
        numeric = np.sort(np.linalg.eigvalsh(build_pqr_matrix(n, P, Q, R)))
        spec = pqr_eigenvalues(n, P, Q, R)
        assert sorted(m for _, m in spec) == sorted([1, n - 1, n * (n - 3) // 2])
        expected = np.sort(np.concatenate([[lam] * m for lam, m in spec]))
        assert np.max(np.abs(numeric - expected)) <= 1e-9


def test_eigenvalue_multiplicity_edges():
    assert pqr_eigenvalues(2, 3.0, 9.0, 9.0) == [(3.0, 1)]
    eigs = pqr_eigenvalues(3, 1.0, 0.5, 9.0)
    # R never occurs at n=3, and the n(n-3)/2 space is empty
    assert eigs == [(2.0, 1), (0.5, 2)]


def test_shared_eigenprojectors():
    rng = np.random.default_rng(12)
    for n in (4, 6):
        A1 = build_pqr_matrix(n, *rng.uniform(-1, 1, 3))
        A2 = build_pqr_matrix(n, *rng.uniform(-1, 1, 3))
        assert np.max(np.abs(A1 @ A2 - A2 @ A1)) <= 1e-10
        _, vecs = np.linalg.eigh(A1)
        conj = vecs.T @ A2 @ vecs
        assert np.max(np.abs(conj - np.diag(np.diag(conj)))) <= 1e-9


def test_determinant_matches_direct_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (2, 3, 4, 5, 6, 7):
        for _ in range(100):
            q, r, P, Q, R = rng.uniform(-0.3, 0.3, 5)
            Ag = build_pqr_matrix(n, P, Q, R)
            Au = build_pqr_matrix(n, *rs_moment_patterns(q, r))
            direct = np.linalg.det(np.eye(len(Ag)) - Ag @ Au)
            closed = rs_determinant(n, q, r, P, Q, R)
            worst = max(worst, abs(closed - direct) / max(1e-12, abs(direct)))
    assert worst <= 1e-9


@settings(max_examples=50, deadline=None)
@given(q=params, r=params, P=params, Q=params, R=params)
def test_determinant_oracle_fuzz_n4(q, r, P, Q, R):
    Ag = build_pqr_matrix(4, P, Q, R)
    Au = build_pqr_matrix(4, *rs_moment_patterns(q, r))
    direct = np.linalg.det(np.eye(6) - Ag @ Au)
    assert rs_determinant(4, q, r, P, Q, R) == pytest.approx(direct, rel=1e-9, abs=1e-12)


# (n, beta, h, expected det): SK with a field h on the spins
_DENSE_ROUTE_CASES = [
    (2, 0.5, 0.0, 0.75),
    (3, 0.5, 0.0, 0.421875),
    (2, 0.5, 0.3, 0.7531798911458929),
    (3, 0.5, 0.3, 0.4263724821908863),
    (2, 0.4, 0.6, 0.8581777453316448),
    (3, 0.4, 0.6, 0.6357063668162276),
]


@pytest.mark.parametrize("n,beta,h,expected", _DENSE_ROUTE_CASES,
                         ids=[f"{c[0]}-{c[3]}" if c[2] == 0.0 else f"{c[0]}-{c[1]}-{c[2]}"
                              for c in _DENSE_ROUTE_CASES])
def test_determinant_matches_dense_route(n, beta, h, expected):
    # SK is the RS point with curvature P=beta^2, Q=R=0; at h=0 it is
    # paramagnetic (q=0), otherwise q is the mean distinct-pair overlap at
    # nu*.  n <= 3 has no disjoint pairs, so r does not enter
    spec = DenseModelSpec(n, Alphabet((1.0, -1.0)), field_local(h),
                          PolyOverlap.pairwise_square(n, beta))
    solution = solve_variational(spec)
    q = float(np.mean(spec.overlaps(solution.nu_star)[distinct_pair_positions(n)]))
    dense_det = central_approx_constant(spec, solution).det_value
    closed = rs_determinant(n, q, 0.0, beta * beta, 0.0, 0.0)
    assert closed == pytest.approx(expected, rel=1e-12)
    assert dense_det == pytest.approx(closed, rel=1e-12)


def test_determinant_degenerate_cases():
    for n in (3, 5, 8):
        assert rs_determinant(n, 0.2, -0.1, 0.0, 0.0, 0.0) == 1.0
        P = 0.37
        assert rs_determinant(n, 0.0, 0.0, P, 0.0, 0.0) == pytest.approx(
            (1 - P) ** (n * (n - 1) // 2), rel=1e-14
        )


def test_correction_sk_reduction():
    # paramagnetic inputs reduce the two-log form to (1/(4N)) log(1-beta^2)
    for beta in (0.2, 0.5, 0.9):
        got = rs_correction_n0(1000, 0.0, 0.0, beta * beta, 0.0, 0.0)
        assert got == pytest.approx(math.log(1 - beta**2) / 4000, rel=1e-12)
    assert rs_correction_n0(1000, 0.0, 0.0, 0.25, 0.0, 0.0) == pytest.approx(
        -7.192051811294522e-05, rel=1e-12
    )


def test_correction_zero_curvature():
    assert rs_correction_n0(50, 0.3, 0.1, 0.0, 0.0, 0.0) == 0.0


def test_correction_instability_both_branches():
    with pytest.raises(InstabilityError):
        rs_correction_n0(10, 0.0, 0.0, 1.5, 0.0, 0.0)  # first log argument
    # P=2.2, Q=0.5: first argument 1-0.2 > 0, second 1-1.2 < 0
    with pytest.raises(InstabilityError):
        rs_correction_n0(10, 0.0, 0.0, 2.2, 0.5, 0.0)


def test_sk_matches_correction_exactly():
    for beta in np.arange(0.1, 0.95, 0.1):
        b = float(beta)
        assert sk_paramagnetic_correction(b, 1000) == rs_correction_n0(
            1000, 0.0, 0.0, b * b, 0.0, 0.0
        )


def test_sk_small_beta_vanishes():
    assert sk_paramagnetic_correction(1e-8, 100) == pytest.approx(0.0, abs=1e-18)


def test_sk_single_sample():
    assert sk_paramagnetic_correction(0.5, 1) == pytest.approx(-0.0719205, abs=1e-7)


def _quenched_sk_gap(N: int, beta: float, draws: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of log Z - N (log 2 + beta^2/4) over seeded
    SK samples, H = (beta/sqrt(N)) sum_{i<j} J_ij s_i s_j with J_ij iid N(0, 1),
    each log Z summed exactly over all 2^N spin vectors."""
    rng = random.Random(seed)
    i, j = np.triu_indices(N, 1)
    # fix s_0 = +1: flipping every spin leaves H unchanged, so log Z gains log 2
    spins = np.array([(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=N - 1)])
    products = spins[:, i] * spins[:, j]
    scale = beta / math.sqrt(N)
    gaps = []
    for start in range(0, draws, 500):
        count = min(500, draws - start)
        J = np.array([rng.gauss(0.0, scale) for _ in range(count * len(i))])
        H = products @ J.reshape(count, len(i)).T  # one column per sample
        top = H.max(axis=0)
        gaps.append(math.log(2.0) + top + np.log(np.exp(H - top).sum(axis=0)))
    gap = np.concatenate(gaps) - N * (math.log(2.0) + beta * beta / 4.0)
    return float(gap.mean()), float(gap.std(ddof=1) / math.sqrt(draws))


def test_quenched_sk_matches_the_correction():
    # E[Z^n] of this H is the dense sk model (pair curvature beta^2) times
    # exp(n N beta^2/4 - n^2 beta^2/4), so as n -> 0 the package's correction
    # gives E[log Z] - N (log 2 + beta^2/4) -> N (1/(4N)) log(1 - beta^2)
    # (Aizenman, Lebowitz & Ruelle 1987).  The finite-N gap is a/N + O(1/N^2);
    # the cycle (high-temperature) expansion of log Z gives, with x = beta^2,
    #   a = x^2/8 + x^3 (2 - x) / (8 (1 - x)^2) + x^4 / (2 (1 - x))
    # (the log cosh terms, the (N)_k / N^k count of k-cycles, E tanh^2 per
    # edge), 0.0165 at beta = 0.5; 100,000 draws at each N = 3..10 read
    # N x gap between 0.013 and 0.020.  The allowance is twice that leading
    # term.  At this seed |mean - want| is 0.0006 against a bound of 0.0063;
    # with the correction scaled by 1.1 it is 0.0078, and the check fails.
    N, beta = 12, 0.5
    x = beta * beta
    a = x * x / 8 + x**3 * (2 - x) / (8 * (1 - x) ** 2) + x**4 / (2 * (1 - x))
    mean, se = _quenched_sk_gap(N, beta, draws=20_000, seed=20260415)
    want = N * sk_paramagnetic_correction(beta, N)
    assert abs(mean - want) < 4 * se + 2 * a / N, (mean, se, want)


def test_sk_rejects_out_of_scope_beta():
    for beta in (1.0, 1.3, 0.0, -0.2):
        with pytest.raises(ValidationFailure):
            sk_paramagnetic_correction(beta, 100)


def test_rs_params_validation():
    p = RSParams(4, 0.2, 0.1, 0.3, 0.0, 0.0)
    assert p.determinant() == rs_determinant(4, 0.2, 0.1, 0.3, 0.0, 0.0)
    assert p.correction_n0(100) == rs_correction_n0(100, 0.2, 0.1, 0.3, 0.0, 0.0)
    with pytest.raises(ValidationFailure):
        RSParams(4, 1.2, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationFailure):
        RSParams(4, 0.0, -1.1, 0.0, 0.0, 0.0)


def test_rs_params_are_frozen_and_checked_on_every_copy():
    p = RSParams(4, 0.2, 0.1, 0.3, 0.0, 0.0)
    with pytest.raises(AttributeError):
        p.q = 0.5
    same = RSParams(4, 0.2, 0.1, 0.3, 0.0, 0.0)
    assert p == same and hash(p) == hash(same)
    assert repr(p) == "RSParams(n=4, q=0.2, r=0.1, P=0.3, Q=0.0, R=0.0)"
    assert p._replace(q=0.5).determinant() == rs_determinant(4, 0.5, 0.1, 0.3, 0.0, 0.0)
    with pytest.raises(ValidationFailure):
        p._replace(q=1.5)
    with pytest.raises(ValidationFailure):
        RSParams._make([1, 0.0, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rs_params_must_be_finite(index, value):
    values = [0.0] * 5
    values[index] = value
    # an infinite moment q or r already fails |q|,|r| <= 1
    with pytest.raises(ValidationFailure, match="must be finite|need [|]q[|],[|]r[|] <= 1"):
        RSParams(4, *values)
