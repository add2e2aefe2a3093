"""Type and overlap fluctuation covariances against exact finite-N oracles."""

import numpy as np
import pytest

from central_approx.clt import (
    SYM_TOL,
    CovarianceResult,
    dense_type_covariance,
    empirical_type_covariance_oracle,
    fg_type_covariances,
    overlap_covariance,
)
from central_approx.dense import (
    DenseModelSpec,
    PolyOverlap,
    dense_fluctuation,
    distinct_pair_positions,
    field_local,
    solve_variational,
    zero_local,
)
from central_approx.errors import GuardError, NumericalFailure
from central_approx.types_core import Alphabet

SPINS = Alphabet((1.0, -1.0))
BINARY = Alphabet((0.0, 1.0))


def uniform_measure(k):
    return np.full(k, 1.0 / k)


# --------------------------------------------------------- overlap formulas

@pytest.mark.parametrize("m", [2, 3, 4])
def test_overlap_covariance_uniform_pairwise(m):
    # uniform maximizer with pairwise square coupling: the distinct-pair
    # block is 1/(1-beta^2) times the identity, diagonal pairs degenerate
    beta = 0.5
    spec = DenseModelSpec(m, SPINS, zero_local(), PolyOverlap.pairwise_square(m, beta))
    cov = overlap_covariance(spec, uniform_measure(2**m))
    dp = distinct_pair_positions(m)
    block = cov.matrix[np.ix_(dp, dp)]
    assert np.max(np.abs(block - np.eye(len(dp)) / (1 - beta**2))) <= 1e-12
    assert block[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    rest = [i for i in range(cov.dim) if i not in dp]
    assert np.max(np.abs(cov.matrix[rest])) <= 1e-12
    assert cov.rank == m * (m - 1) // 2


def test_overlap_covariance_solver_measure():
    # same instance through the variational solver instead of the exact
    # uniform point; the solver residual only pollutes the last digits
    spec = DenseModelSpec(3, SPINS, zero_local(), PolyOverlap.pairwise_square(3, 0.5))
    sol = solve_variational(spec)
    cov = overlap_covariance(spec, sol.nu_star)
    dp = distinct_pair_positions(3)
    assert cov.matrix[dp[0], dp[0]] == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_overlap_covariance_zero_coupling_is_bare():
    spec = DenseModelSpec(2, SPINS, field_local(0.2), PolyOverlap.zero(2))
    sol = solve_variational(spec)
    cov = overlap_covariance(spec, sol.nu_star)
    pair_covariance, _ = dense_fluctuation(spec, sol.nu_star)
    assert np.max(np.abs(cov.matrix - pair_covariance)) <= 1e-13


def test_overlap_equals_conjugated_type_covariance():
    # both Gaussians come from the same fluctuation field, so the overlap
    # covariance is the pair-product conjugation of the type covariance
    spec = DenseModelSpec(2, SPINS, field_local(0.3), PolyOverlap.quadratic(2, 0.4))
    sol = solve_variational(spec)
    tc = dense_type_covariance(spec, sol.nu_star)
    oc = overlap_covariance(spec, sol.nu_star)
    conj = spec.pair_products.T @ tc.matrix @ spec.pair_products
    assert np.max(np.abs(conj - oc.matrix)) <= 1e-9


# ------------------------------------------------------------ type formulas

def test_type_covariance_zero_coupling():
    spec = DenseModelSpec(1, BINARY, field_local(0.4), PolyOverlap.zero(1))
    sol = solve_variational(spec)
    w = sol.nu_star
    cov = dense_type_covariance(spec, sol.nu_star)
    assert np.max(np.abs(cov.matrix - (np.diag(w) - np.outer(w, w)))) <= 1e-13
    assert np.array_equal(dense_type_covariance(spec, w).matrix, cov.matrix)


def test_type_covariance_rows_sum_to_zero():
    spec = DenseModelSpec(2, SPINS, field_local(0.3), PolyOverlap.quadratic(2, 0.4))
    sol = solve_variational(spec)
    cov = dense_type_covariance(spec, sol.nu_star)
    assert np.max(np.abs(cov.matrix.sum(axis=1))) <= 1e-12
    assert cov.rank < cov.dim


def test_type_covariance_scalar_instance():
    # n=1 binary with g = lam s^2 / 2: the nondegenerate direction carries
    # variance rho(1-rho) / (1 - lam rho(1-rho))
    lam = 0.5
    spec = DenseModelSpec(1, BINARY, zero_local(), PolyOverlap.quadratic(1, lam))
    sol = solve_variational(spec)
    rho = sol.nu_star[1]
    pred = rho * (1 - rho) / (1 - lam * rho * (1 - rho))
    cov = dense_type_covariance(spec, sol.nu_star)
    assert cov.matrix[1, 1] == pytest.approx(pred, rel=1e-12)
    assert cov.matrix[0, 0] == pytest.approx(pred, rel=1e-12)
    assert cov.matrix[0, 1] == pytest.approx(-pred, rel=1e-12)


# ------------------------------------------------------------ exact oracle

def test_empirical_oracle_multinomial_exactly():
    # f = 0, g = 0: types are exactly multinomial, and the scaled covariance
    # is diag(p) - p p^T at every N, not just asymptotically
    spec = DenseModelSpec(1, BINARY, zero_local(), PolyOverlap.zero(1))
    emp = empirical_type_covariance_oracle(spec, 40)
    expect = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.max(np.abs(emp.matrix - expect)) <= 1e-12
    assert emp.rank == 1


def test_empirical_oracle_converges_to_formula():
    lam = 0.5
    spec = DenseModelSpec(1, BINARY, zero_local(), PolyOverlap.quadratic(1, lam))
    sol = solve_variational(spec)
    cov = dense_type_covariance(spec, sol.nu_star)
    errs = {}
    for N in (500, 2000):
        emp = empirical_type_covariance_oracle(spec, N)
        errs[N] = float(np.max(np.abs(emp.matrix - cov.matrix)))
    assert errs[2000] <= 0.5 * errs[500]
    # within 1% of the formula at N=2000
    assert errs[2000] <= 0.01 * cov.matrix[1, 1]


def test_empirical_oracle_guard():
    spec = DenseModelSpec(2, BINARY, zero_local(), PolyOverlap.zero(2))
    with pytest.raises(GuardError):
        empirical_type_covariance_oracle(spec, 100, guard=1000)


# ------------------------------------------------------- result validation

def test_covariance_result_rejects_asymmetry():
    with pytest.raises(NumericalFailure):
        CovarianceResult.from_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]), ("a", "b"))


def test_covariance_result_rejects_negative_eigenvalues():
    with pytest.raises(NumericalFailure):
        CovarianceResult.from_matrix(np.array([[1.0, 0.0], [0.0, -0.5]]), ("a", "b"))


def test_covariance_result_label_shape_mismatch():
    with pytest.raises(ValueError):
        CovarianceResult.from_matrix(np.eye(3), ("a", "b"))


def test_covariance_result_diagnostics():
    res = CovarianceResult.from_matrix(np.diag([2.0, 1.0, 0.0]), ("a", "b", "c"))
    assert res.rank == 2
    assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-15)
    assert res.dim == 3
    assert not res.matrix.flags.writeable


@pytest.mark.parametrize("tiny", [-1e-17, 0.0, 1e-17, 0.5e-9])
def test_min_eigenvalue_of_a_singular_covariance_is_zero(tiny):
    # an eigenvalue the rank counts as zero (within PSD_TOL of the scale) is
    # reported as exactly 0.0; a full-rank matrix keeps its smallest eigenvalue
    res = CovarianceResult.from_matrix(np.diag([2.0, tiny]), ("a", "b"))
    assert (res.rank, res.min_eigenvalue) == (1, 0.0)
    full = CovarianceResult.from_matrix(np.diag([2.0, 0.25]), ("a", "b"))
    assert (full.rank, full.min_eigenvalue) == (2, 0.25)


@pytest.mark.parametrize("entry", [-1e-17, 1e-17, 2e-10, -2.5e-10, 1e-3])
def test_entries_zero_up_to_rounding_are_stored_as_zero(entry):
    # within SYM_TOL times the scale (2 here) an entry is stored as exactly
    # 0.0; the eigenvalues are taken from the matrix as given
    matrix = np.array([[2.0, entry], [entry, 1.0]])
    res = CovarianceResult.from_matrix(matrix, ("a", "b"))
    want = 0.0 if abs(entry) <= SYM_TOL * 2.0 else entry
    assert res.matrix[0, 1] == res.matrix[1, 0] == want
    assert res.min_eigenvalue == float(np.linalg.eigvalsh(matrix)[0])


# ------------------------------------------------- factor-graph covariances

def fg_weighted_type_covariances(ens, N):
    """Exact covariance of the sqrt(M)-scaled types under E[N(v,u)] prod f^u.

    Enumerates factor types over the support (vectorized for the binary
    parity instances used below), derives the letter type from the stub
    balance, and weights each consistent pair exactly.  The fluctuation
    scaling sqrt(M)(u/M - .), sqrt(M)(v/N - .) is the one under which the
    formula matrices are the limits.
    """
    from scipy.special import gammaln

    M = N * ens.l // ens.r
    sup = np.asarray(ens.support)
    counts = ens.letter_counts[sup].astype(np.int64)
    cells = len(sup)
    grids = np.meshgrid(*(np.arange(M + 1),) * (cells - 1), indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=1)
    head = flat[flat.sum(axis=1) <= M]
    U = np.concatenate([head, (M - head.sum(axis=1))[:, None]], axis=1)
    stub = U @ counts
    keep = ~np.any(stub % ens.l, axis=1)
    U, stub = U[keep], stub[keep]
    V = stub // ens.l

    logf = np.log(ens.f_values[sup])
    logw = (
        gammaln(N + 1) - gammaln(V + 1).sum(axis=1)
        + gammaln(M + 1) - gammaln(U + 1).sum(axis=1)
        + gammaln(V * ens.l + 1).sum(axis=1) - gammaln(N * ens.l + 1)
        + U @ logf
    )
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()

    Xu = np.sqrt(M) * (U / M)
    full = np.zeros((len(U), len(ens.words)))
    full[:, sup] = Xu
    Xv = np.sqrt(M) * (V / N)

    def cov(X):
        mean = w @ X
        centered = X - mean
        return (centered * w[:, None]).T @ centered

    return cov(full), cov(Xv)


def test_fg_covariance_oracle_convergence():
    from central_approx.factor_graph import make_ensemble, solve_bethe

    ens = make_ensemble(2, 3, BINARY, "parity")
    sol = solve_bethe(ens)
    fac, var = (fg_type_covariances(ens, sol.mu_star, sol.nu_star, kind)
                for kind in ("factor", "variable"))
    assert fac.min_eigenvalue >= -1e-9
    assert np.abs(fac.matrix.sum(axis=1)).max() < 1e-9
    assert np.abs(var.matrix.sum(axis=1)).max() < 1e-9

    errs = {}
    for N in (30, 60, 120, 240):
        cu, cv = fg_weighted_type_covariances(ens, N)
        errs[N] = (
            np.abs(cu - fac.matrix).max() / np.abs(fac.matrix).max(),
            np.abs(cv - var.matrix).max() / np.abs(var.matrix).max(),
        )
    assert errs[120][0] <= 0.6 * errs[30][0]
    assert errs[240][1] <= 0.6 * errs[60][1]
    assert errs[240][1] < 0.02


def test_fg_covariance_trivial_factor_is_exact():
    # f == 1 makes the letter type exactly multinomial at every N, so the
    # finite-N covariance already equals the formula
    from central_approx.factor_graph import make_ensemble, solve_bethe

    ens = make_ensemble(2, 3, BINARY, "uniform")
    sol = solve_bethe(ens)
    fac, var = (fg_type_covariances(ens, sol.mu_star, sol.nu_star, kind)
                for kind in ("factor", "variable"))
    nu = sol.nu_star
    scaled = (ens.l / ens.r) * (np.diag(nu) - np.outer(nu, nu))
    assert np.abs(var.matrix - scaled).max() < 1e-10

    cu, cv = fg_weighted_type_covariances(ens, 12)
    assert np.abs(cv - var.matrix).max() < 1e-11
    # the word type is only multinomial in the limit; at N=12 it is merely close
    assert np.abs(cu - fac.matrix).max() < 0.05


def test_fg_covariance_balanced_degrees():
    from central_approx.factor_graph import make_ensemble, solve_bethe

    ens = make_ensemble(2, 2, BINARY, "uniform")
    sol = solve_bethe(ens)
    covs = {kind: fg_type_covariances(ens, sol.mu_star, sol.nu_star, kind)
            for kind in ("factor", "variable")}
    assert np.allclose(sol.mu_star, 0.25, atol=1e-10)
    for res in covs.values():
        assert np.abs(res.matrix.sum(axis=1)).max() < 1e-9
        assert res.min_eigenvalue >= -1e-9
    # l = r removes the scaling ambiguity: the variable covariance is the
    # plain multinomial one, corrected by the curvature resolvent
    nu = sol.nu_star
    assert covs["variable"].matrix[0, 0] == pytest.approx(nu[0] * (1 - nu[0]), rel=1e-10)


def test_fg_covariance_kind_is_checked():
    from central_approx.factor_graph import make_ensemble, solve_bethe

    ens = make_ensemble(2, 2, BINARY, "uniform")
    sol = solve_bethe(ens)
    with pytest.raises(ValueError, match="kind"):
        fg_type_covariances(ens, sol.mu_star, sol.nu_star, "word")
