"""Dense models: exact sums, variational layer, Gaussian constant factor."""

import math
import tracemalloc
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from central_approx.acceptance import contrast_identity_defect
from central_approx.config import build_dense, load_config
from central_approx.errors import (
    ATInstabilityError,
    BoundaryMaximizerError,
    GuardError,
)
from central_approx import dense
from central_approx.types_core import FIXED_POINT_TOL, Alphabet, MaximizerRecord, require_interior
from central_approx.dense import (
    DenseModelSpec,
    PolyOverlap,
    central_approx_constant,
    dense_fluctuation,
    distinct_pair_positions,
    exact_type_sum,
    field_local,
    pair_indices,
    solve_variational,
    zero_local,
)
from central_approx.dense import _variational_objective
from oracles import brute_force_expectation, windowed_type_sum

ROOT = Path(__file__).resolve().parents[1]
BINARY = Alphabet((0.0, 1.0))
SPINS = Alphabet((1.0, -1.0))
FD_REL_STEP = 1e-5


def fd_gradient(fn, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient, step FD_REL_STEP * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = FD_REL_STEP * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def fd_hessian(fn, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Hessian, same step rule as fd_gradient."""
    x = np.asarray(x, dtype=float)
    p = x.size
    h = FD_REL_STEP * (1.0 + np.abs(x))
    hess = np.zeros((p, p))
    f0 = fn(x)
    for i in range(p):
        xp = x.copy(); xp[i] += h[i]
        xm = x.copy(); xm[i] -= h[i]
        hess[i, i] = (fn(xp) - 2.0 * f0 + fn(xm)) / (h[i] * h[i])
        for j in range(i + 1, p):
            xpp = x.copy(); xpp[i] += h[i]; xpp[j] += h[j]
            xpm = x.copy(); xpm[i] += h[i]; xpm[j] -= h[j]
            xmp = x.copy(); xmp[i] -= h[i]; xmp[j] += h[j]
            xmm = x.copy(); xmm[i] -= h[i]; xmm[j] -= h[j]
            hess[i, j] = hess[j, i] = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (
                4.0 * h[i] * h[j]
            )
    return hess


@pytest.fixture(scope="module")
def cw_spec():
    # n=1, X={0,1}, f=0, g(s) = s^2/2
    return DenseModelSpec(1, BINARY, zero_local(), PolyOverlap.quadratic(1, 1.0))


@pytest.fixture(scope="module")
def cw_solution(cw_spec):
    return solve_variational(cw_spec)


# ------------------------------------------------------------- pair order

def test_pair_index_order():
    assert pair_indices(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert distinct_pair_positions(3) == [1, 2, 4]


# ------------------------------------------------------- overlap functions

def test_poly_overlap_value_and_batch():
    g = PolyOverlap(2, [(0.25, {1: 2})])
    q = np.array([1.0, 0.4, 1.0])
    assert g.derivative_batch(q[None, :])[0] == pytest.approx(0.25 * 0.16, rel=1e-14)
    Q = np.array([q, 2 * q])
    assert np.allclose(g.derivative_batch(Q), [0.25 * 0.16, 0.25 * 0.64])


def test_hessian_is_bit_identical_to_the_full_pair_loop():
    # the Hessian evaluates only pairs of positions that share a monomial;
    # every entry, zeros included, equals the loop over all P x P pairs
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        P = n * (n + 1) // 2
        terms = [(rng.normal(), {int(k): int(rng.integers(0, 4))
                                 for k in rng.choice(P, size=rng.integers(1, min(P, 4) + 1))})
                 for _ in range(rng.integers(0, 6))]
        g = PolyOverlap(n, terms)
        q = rng.uniform(-1.0, 1.0, size=P)
        full = np.array([[g.derivative_batch(q[None, :], (j, k))[0] for k in range(P)]
                         for j in range(P)])
        assert g.hessian(q).tobytes() == full.tobytes()


@pytest.mark.parametrize("coef", [math.inf, -math.inf, math.nan])
def test_poly_overlap_rejects_non_finite_coefficient(coef):
    with pytest.raises(ValueError, match="not finite"):
        PolyOverlap(1, [(coef, {0: 2})])


def test_poly_overlap_sums_each_monomial_once_exactly():
    # in first-seen order; 1 + 1e-16 + 1e-16 is 1 in floats, left to right,
    # but the exact sum rounds to the next float up; +1 and -1 cancel
    g = PolyOverlap(2, [(1.0, {0: 2}), (0.5, {1: 1, 2: 1}), (1e-16, {0: 2}), (1e-16, {0: 2}),
                        (1.0, {2: 2}), (-1.0, {2: 2, 1: 0})])
    assert g.terms == ((1.0000000000000002, ((0, 2),)), (0.5, ((1, 1), (2, 1))))
    assert g.canonical == {((0, 2),): (1 << 1074) + 2 * (Fraction(1e-16) * 2**1074),
                           ((1, 1), (2, 1)): 1 << 1073}
    assert PolyOverlap(1, [(1.0, {0: 2}), (-1.0, {0: 2})]).terms == ()
    with pytest.raises(ValueError, match="past the float range"):
        PolyOverlap(1, [(1e308, {0: 2}), (1e308, {0: 2})])


def test_analytic_derivatives_match_finite_differences():
    # derivative self-check at 100 random points, 1e-6 relative
    rng = np.random.default_rng(5)
    g = PolyOverlap(
        3,
        [(0.12, {0: 2}), (-0.08, {1: 1, 3: 2}), (0.06, {2: 1, 4: 1, 5: 1}), (0.2, {1: 2})],
    )
    def value(q):
        return g.derivative_batch(q[None, :])[0]

    for _ in range(100):
        q = rng.uniform(-0.9, 0.9, size=6)
        ag, fg = g.gradient_batch(q[None, :])[0], fd_gradient(value, q)
        ah, fh = g.hessian(q), fd_hessian(value, q)
        assert np.all(np.abs(ag - fg) <= 1e-6 * (1 + np.abs(ag)))
        assert np.all(np.abs(ah - fh) <= 1e-6 * (1 + np.abs(ah)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_derivative_batch_matches_sympy(data):
    # up to 4 monomials over 2-4 of the 6 pair positions at n = 3, rational
    # coefficients, exponents 0-4; every order 0-4 against sympy's exact diff,
    # to 1e-12 of the same derivative of the polynomial with |coefficients|
    # at |q|, which bounds the summed magnitude of the monomials
    used = data.draw(st.lists(st.integers(0, 5), min_size=2, max_size=4, unique=True))
    terms = data.draw(st.lists(
        st.tuples(st.fractions(-4, 4, max_denominator=9).filter(bool),
                  st.lists(st.integers(0, 4), min_size=len(used), max_size=len(used))),
        min_size=1, max_size=4))
    # dyadic points in [-1.5, 1.5]: exact floats, no subnormal products
    Q = np.array(data.draw(st.lists(
        st.lists(st.integers(-48, 48).map(lambda k: k / 32), min_size=6, max_size=6),
        min_size=1, max_size=3)))
    g = PolyOverlap(3, [(float(c), dict(zip(used, exps))) for c, exps in terms])
    q = sympy.symbols("q0:6")

    def poly(sign):
        monomials = [sympy.Mul(*(q[k] ** e for k, e in zip(used, exps))) for _, exps in terms]
        return sympy.Add(*(sympy.Rational(sign(c)) * m for (c, _), m in zip(terms, monomials)))

    exact, magnitude = poly(lambda c: c), poly(abs)
    # a position outside every monomial makes some derivatives vanish
    choices = used + [min(set(range(6)) - set(used))]
    for order in range(5):
        positions = data.draw(st.lists(st.sampled_from(choices), min_size=order, max_size=order))
        wrt = [q[k] for k in positions]
        got = g.derivative_batch(Q, positions)
        for row, value in zip(Q, got):
            point = [sympy.Rational(Fraction(x)) for x in row]
            want = reduce(sympy.diff, wrt, exact).xreplace(dict(zip(q, point)))
            bound = reduce(sympy.diff, wrt, magnitude).xreplace(dict(zip(q, map(abs, point))))
            assert abs(value - float(want)) <= 1e-12 * float(bound)


SK3 = list(PolyOverlap.pairwise_square(3, 0.5).terms)  # (coef, powers), coef 0.125


@pytest.mark.parametrize("n, terms", [
    # acts on q_11 only: not invariant under swapping the two replicas
    pytest.param(2, [(1.0, {0: 2})], id="q11-only"),
    # q_01^2 + q_23^2 is kept by a subgroup of order 8 of S_4 only
    pytest.param(4, [(1.0, {1: 2}), (1.0, {8: 2})], id="two-disjoint-pairs"),
    # one coefficient off by 1e-13 relative, within a 1e-10 sampling tolerance
    pytest.param(3, [(SK3[0][0] * (1 + 1e-13), SK3[0][1])] + SK3[1:], id="sk-skewed-1e-13"),
    # q_11^2 + (1 + 1e-30) q_22^2: both float coefficients round to 1, the
    # exact sums differ
    pytest.param(2, [(1.0, {0: 2}), (1.0, {2: 2}), (1e-30, {2: 2})], id="split-off-by-1e-30"),
])
def test_g_symmetry_check_rejects_asymmetric_coupling(n, terms):
    with pytest.raises(ValueError, match="invariant"):
        DenseModelSpec(n, SPINS, zero_local(), PolyOverlap(n, terms))


@pytest.mark.parametrize("terms", [
    pytest.param(SK3[::-1], id="reversed"),
    pytest.param([(SK3[0][0] / 2, SK3[0][1])] * 2 + SK3[1:], id="split-term"),
    pytest.param(SK3 + [(0.0, {0: 1})], id="zero-coefficient"),
])
def test_g_symmetry_check_accepts_equal_canonical_terms(terms):
    DenseModelSpec(3, SPINS, zero_local(), PolyOverlap(3, terms))


# ----------------------------------------------------------- exact routes

def test_brute_force_equals_type_sum_small():
    # oracle equivalence across several shapes with n*N <= 16
    cases = [
        (1, BINARY, zero_local(), PolyOverlap.quadratic(1, 1.0), [3, 7, 12]),
        (1, SPINS, field_local(0.3), PolyOverlap.zero(1), [5, 9]),
        (2, SPINS, zero_local(), PolyOverlap(2, [(0.25, {1: 2})]), [3, 6]),
        (2, BINARY, field_local(-0.2), PolyOverlap.quadratic(2, 0.4), [4]),
        (3, SPINS, zero_local(), PolyOverlap.pairwise_square(3, 0.5), [3, 5]),
        # packed: x^2 in {0, 1, 4} needs 4N+1 slots, against C(N+2, 2) types
        (1, Alphabet((0.0, 1.0, 2.0)), field_local(0.4), PolyOverlap.quadratic(1, -0.3), [8, 11]),
    ]
    for n, alph, f, g, Ns in cases:
        spec = DenseModelSpec(n, alph, f, g)
        for N in Ns:
            bf = brute_force_expectation(spec, N)
            ts = exact_type_sum(spec, N)
            assert abs(bf - ts) <= 1e-10 * max(1.0, abs(bf))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]),
       st.sampled_from([(1.0, -1.0), (0.0, 1.0), (0.0, 1.0, 2.0), (0.5, -1.25)]),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.data())
def test_type_sum_matches_brute_force(n, values, h, lam, data):
    # integer alphabets read the generating function (packed from N=6 on for
    # n=1 over {0,1,2}), the real-valued one is expanded over the types
    spec = DenseModelSpec(n, Alphabet(values), field_local(h), PolyOverlap.quadratic(n, lam))
    N = data.draw(st.integers(1, int(math.log(2e5) / math.log(spec.num_symbols))))
    bf = brute_force_expectation(spec, N)
    assert exact_type_sum(spec, N) == pytest.approx(bf, rel=1e-10)


@pytest.mark.parametrize("h", [1e-308, 5e-324, -1e-308])
def test_type_sum_takes_a_field_of_tiny_span(h):
    # the block log power's fold count once overflowed on a positive log-weight
    # span below about 1.8e-306
    spec = DenseModelSpec(1, Alphabet((0.0, 1.0, 2.0)), field_local(h), PolyOverlap.zero(1))
    assert exact_type_sum(spec, 6) == pytest.approx(brute_force_expectation(spec, 6), rel=1e-12)


def test_brute_force_guard():
    spec = DenseModelSpec(1, BINARY, zero_local(), PolyOverlap.zero(1))
    with pytest.raises(GuardError):
        brute_force_expectation(spec, 100)


def test_type_sum_guard_respects_override():
    spec = DenseModelSpec(2, BINARY, zero_local(), PolyOverlap.zero(2))
    N = 9
    with pytest.raises(GuardError):
        exact_type_sum(spec, N, guard=10)
    val = exact_type_sum(spec, N, guard=None)
    # f = 0, g = 0: the sum is |X^n|^N
    assert val == pytest.approx(N * math.log(4), rel=1e-12)


@pytest.mark.parametrize("N", [6, 10, 20])
def test_two_replica_sum_is_the_sk_second_moment(N):
    # an n = 2 config is E[Z^2]: for H = (beta/sqrt N) sum_{i<j} J_ij s_i s_j,
    # E[Z^2] = 2^N e^{beta^2 (N-2)/2} sum_k C(N,k) e^{beta^2 (N-2k)^2 / (2N)},
    # summed over the overlap q = N - 2k of the two replicas; the route drops
    # the e^{beta^2 (N-2)/2}
    spec = build_dense(load_config(str(ROOT / "perfbench" / "inputs" / "sk2.json")))
    beta = 0.5
    closed = N * math.log(2) + math.log(sum(
        math.comb(N, k) * math.exp(beta**2 * (N - 2 * k) ** 2 / (2 * N)) for k in range(N + 1)))
    assert exact_type_sum(spec, N) == pytest.approx(closed, rel=0, abs=1e-12)


# ------------------------------------------------------ variational layer

def test_variational_matches_grid_oracle(cw_spec, cw_solution):
    # independent oracle: 1-D grid over the simplex, step 1e-6
    rho = np.arange(1, 10**6) / 10**6
    values = -(rho * np.log(rho) + (1 - rho) * np.log(1 - rho)) + rho**2 / 2
    F_grid = float(values.max())
    assert cw_solution.F == pytest.approx(F_grid, abs=5e-12)
    assert cw_solution.F == pytest.approx(0.8588370486524773, abs=1e-12)
    assert cw_solution.residual <= 1e-10
    assert len(cw_solution.co_maximizers) == 1
    require_interior(cw_solution.co_maximizers)
    # stationarity: nu(1) solves rho = sigmoid(rho)
    rho_star = cw_solution.nu_star[1]
    assert rho_star == pytest.approx(1.0 / (1.0 + math.exp(-rho_star)), abs=1e-11)


def test_variational_field_closed_form():
    h = 0.37
    spec = DenseModelSpec(1, SPINS, field_local(h), PolyOverlap.zero(1))
    sol = solve_variational(spec)
    assert sol.F == pytest.approx(math.log(2 * math.cosh(h)), rel=1e-12)
    assert sol.nu_star[0] == pytest.approx(math.exp(h) / (2 * math.cosh(h)), abs=1e-11)


def test_variational_symmetric_pair_instance():
    # n=2 on spins, g = (lam/2) q12^2 with lam < 1: uniform maximizer
    spec = DenseModelSpec(2, SPINS, zero_local(), PolyOverlap(2, [(0.25, {1: 2})]))
    sol = solve_variational(spec)
    assert sol.F == pytest.approx(2 * math.log(2), rel=1e-12)
    assert np.allclose(sol.nu_star, 0.25, atol=1e-10)
    assert len(sol.co_maximizers) == 1


@pytest.mark.parametrize("n,g", [
    (1, PolyOverlap.quadratic(1, 1.0)),  # the cw fixture, configs/cw.json
    (2, PolyOverlap.pairwise_square(2, 0.5)),  # SK at beta 0.5, n = 2 and 3
    (3, PolyOverlap.pairwise_square(3, 0.5)),
], ids=["cw", "sk2", "sk3"])
def test_variational_meets_the_stop_tolerance(n, g):
    # a start stops on its residual, and the returned point is one damped
    # update past the test
    sol = solve_variational(DenseModelSpec(n, SPINS if n > 1 else BINARY, zero_local(), g))
    assert sol.residual <= FIXED_POINT_TOL


# ------------------------------------------------- fluctuation matrices

def test_assemble_matrices_contracts(cw_spec, cw_solution):
    pair_covariance, hessian = dense_fluctuation(cw_spec, cw_solution.nu_star)
    w = cw_solution.nu_star
    J = cw_spec.pair_products
    # a symmetric pair, the Hessian taken at the overlaps of nu*, and the
    # same pair from the weights as a plain list
    assert np.allclose(pair_covariance, pair_covariance.T, rtol=0, atol=1e-15)
    assert np.array_equal(hessian, cw_spec.g.hessian(w @ J))
    for got, want in zip(dense_fluctuation(cw_spec, w.tolist()), (pair_covariance, hessian)):
        assert np.array_equal(got, want)
    # pair-product contraction identity: J^T (S' - S) J = U' - U
    lhs = J.T @ (np.diag(w) - np.outer(w, w)) @ J
    assert np.allclose(lhs, pair_covariance, atol=1e-13)


def test_assemble_matrices_rejects_boundary(cw_spec):
    # every weight below BOUNDARY_TOL (1e-10), not only an exact zero
    for weight in (0.0, 1e-11):
        with pytest.raises(BoundaryMaximizerError, match="touches the simplex boundary"):
            dense_fluctuation(cw_spec, np.array([1.0 - weight, weight]))


def test_contrast_identity_random_measures():
    # H (H^T diag(1/w) H)^{-1} H^T = diag(w) - w w^T for interior measures
    rng = np.random.default_rng(42)
    for _ in range(20):
        K = int(rng.integers(2, 17))
        w = 0.5 * rng.dirichlet(np.ones(K)) + 0.5 / K
        assert contrast_identity_defect(w) <= 1e-10


# ---------------------------------------------------- constant and ratios

def test_central_constant_cw(cw_spec, cw_solution):
    res = central_approx_constant(cw_spec, cw_solution)
    rho = cw_solution.nu_star[1]
    assert res.det_value == pytest.approx(1 - rho * (1 - rho), rel=1e-12)
    assert res.log_constant == pytest.approx(-0.5 * math.log(1 - rho * (1 - rho)), rel=1e-12)


def test_central_constant_allocates_no_symbol_square(monkeypatch):
    # K = 2000 symbols: one K x K float array alone would take 32 MB
    K = 2000
    spec = DenseModelSpec(1, Alphabet(tuple(np.linspace(0.0, 1.0, K))), field_local(0.3),
                          PolyOverlap.quadratic(1, 1.0))
    monkeypatch.setattr(dense, "RESTARTS", 0)
    solution = solve_variational(spec)
    tracemalloc.start()
    try:
        central_approx_constant(spec, solution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_ratio_convergence_cw(cw_spec, cw_solution):
    res = central_approx_constant(cw_spec, cw_solution)
    gaps = {}
    for N in (100, 200, 400, 800):
        ts = exact_type_sum(cw_spec, N)
        est = res.at(N)
        gaps[N] = abs(math.exp(ts - est) - 1.0)
    assert gaps[400] < gaps[100]
    assert gaps[800] < gaps[200]
    assert gaps[800] < 0.02


def test_ratio_exact_for_constant_overlap():
    # n=1 on spins: q11 = 1 identically, constant factor is exactly 1
    spec = DenseModelSpec(1, SPINS, zero_local(), PolyOverlap.quadratic(1, 0.7))
    sol = solve_variational(spec)
    res = central_approx_constant(spec, sol)
    assert res.log_constant == pytest.approx(0.0, abs=1e-14)
    for N in (5, 50):
        ts = exact_type_sum(spec, N)
        assert ts == pytest.approx(res.at(N), abs=1e-12)


def test_ratio_convergence_two_replica():
    spec = DenseModelSpec(2, SPINS, zero_local(), PolyOverlap(2, [(0.25, {1: 2})]))
    sol = solve_variational(spec)
    res = central_approx_constant(spec, sol)
    assert res.det_value == pytest.approx(0.5, rel=1e-12)
    gaps = {}
    for N in (100, 200, 400):
        ts = exact_type_sum(spec, N)
        gaps[N] = abs(math.exp(ts - res.at(N)) - 1.0)
    assert gaps[400] < gaps[200] < gaps[100]
    assert gaps[400] < 0.02


def test_at_instability_raised():
    # at lam = 6 the symmetric point rho = 1/2 gives det = 1 - 6/4 < 0; the
    # solver itself escapes to the stable asymmetric maximizer, so drive the
    # constant computation with the unstable point directly
    spec = DenseModelSpec(1, BINARY, zero_local(), PolyOverlap.quadratic(1, 6.0))
    half = np.array([[0.5, 0.5]])
    fake = MaximizerRecord(co_maximizers=half, F=0.0, residual=0.0, diagnostics={})
    with pytest.raises(ATInstabilityError):
        central_approx_constant(spec, fake)


def test_saddle_with_a_positive_determinant_is_refused():
    # two Curie-Weiss replicas at beta = 1.5 (g = 3 (q_00^2 + q_11^2), field
    # -3 on each spin in {0, 1}): at the uniform point det(I - D2g (U' - U))
    # is 0.25 > 0, but I - R D2g R has eigenvalues -0.5, -0.5 and 1, a saddle
    spec = DenseModelSpec(2, Alphabet((0, 1)), field_local(-3.0),
                          PolyOverlap.quadratic(2, 6.0, "diagonal"))
    uniform = np.full((1, 4), 0.25)
    fake = MaximizerRecord(co_maximizers=uniform, F=0.0, residual=0.0, diagnostics={})
    with pytest.raises(ATInstabilityError,
                       match=r"^fluctuation determinant 2\.500000e-01: not a maximum "):
        central_approx_constant(spec, fake)


# ------------------------------------------------------------- windowing

def test_windowed_type_sum_tail(cw_spec, cw_solution):
    gaps = {}
    for N in (200, 400, 800):
        full = exact_type_sum(cw_spec, N)
        win = windowed_type_sum(cw_spec, N, 0.6, cw_solution.nu_star)
        gaps[N] = abs(math.exp(win - full) - 1.0)
    assert gaps[800] < gaps[400] < gaps[200]
    # wider window at the same N captures strictly more mass
    full = exact_type_sum(cw_spec, 200)
    g51 = abs(math.exp(windowed_type_sum(cw_spec, 200, 0.51, cw_solution.nu_star) - full) - 1)
    g65 = abs(math.exp(windowed_type_sum(cw_spec, 200, 0.65, cw_solution.nu_star) - full) - 1)
    assert g65 < g51


def test_windowed_type_sum_covers_simplex_at_tiny_N(cw_spec, cw_solution):
    # at N=1 the window radius 1^0.6 = 1 exceeds the distance to both
    # corners of the count simplex, so the windowed sum is the full sum
    full = exact_type_sum(cw_spec, 1)
    win = windowed_type_sum(cw_spec, 1, 0.6, cw_solution.nu_star)
    assert win == pytest.approx(full, rel=1e-14)
    assert windowed_type_sum(cw_spec, 1, 0.6, cw_solution.nu_star.tolist()) == win


def test_windowed_alpha_range(cw_spec, cw_solution):
    for bad in (0.5, 0.49, 2.0 / 3.0, 0.7):
        with pytest.raises(ValueError):
            windowed_type_sum(cw_spec, 100, bad, cw_solution.nu_star)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, 2]), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_variational_multistart_against_exact_sum(n, lam, h):
    # random quadratic couplings in the high-temperature regime: the solver
    # finds a stationary maximizer, never loses to the uniform start alone,
    # and the estimate it feeds agrees with the exact type sum
    spec = DenseModelSpec(n, BINARY, field_local(h), PolyOverlap.quadratic(n, lam))
    sol = solve_variational(spec)
    assert sol.residual <= 1e-10
    assert sol.F == pytest.approx(_variational_objective(spec, sol.nu_star), abs=1e-12)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dense, "RESTARTS", 0)
        assert sol.F >= solve_variational(spec).F - 1e-12
    estimate = central_approx_constant(spec, sol).at(200)
    assert math.exp(exact_type_sum(spec, 200) - estimate) == pytest.approx(1.0, abs=0.05)
