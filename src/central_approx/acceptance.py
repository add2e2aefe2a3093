"""End-to-end acceptance battery, runnable headless via `selftest`.

Each check re-derives its expected values from first principles (closed
forms, exact enumeration, or convergence ratios) rather than trusting
frozen constants, so a regression anywhere in the pipeline surfaces here.
Every check returns (passed, detail) and the battery reports per-check
wall time.
"""

import math
import random
import time
from array import array
from fractions import Fraction

import numpy as np

from .clt import dense_type_covariance, empirical_type_covariance_oracle, overlap_covariance
from .dense import (
    DenseModelSpec,
    PolyOverlap,
    central_approx_constant,
    dense_fluctuation,
    distinct_pair_positions,
    exact_type_sum,
    solve_variational,
    zero_local,
)
from .factor_graph import (
    brute_force_permutation_oracle,
    exact_expected_Z,
    exact_expected_Z_exact,
    fg_constant_log,
    make_ensemble,
    solve_bethe,
    step_size_methods,
)
from .replica_rs import build_pqr_matrix, rs_correction_n0, rs_determinant, sk_paramagnetic_correction
from .types_core import Alphabet, local_approx_log_multinomial, log_multinomial

BINARY = Alphabet((0.0, 1.0))
SPINS = Alphabet((1.0, -1.0))


def check_sk_correction() -> tuple[bool, str]:
    """Closed form (1/(4N)) log(1-beta^2) and the n->0 reduction."""
    N = 1000
    worst = 0.0
    for beta in (0.2, 0.5, 0.9):
        got = sk_paramagnetic_correction(beta, N)
        want = math.log(1.0 - beta * beta) / (4.0 * N)
        worst = max(worst, abs(got - want) / abs(want))
        if got != rs_correction_n0(N, 0.0, 0.0, beta * beta, 0.0, 0.0):
            return False, f"n->0 reduction mismatch at beta={beta}"
    return worst < 1e-12, f"worst relative gap {worst:.3e}"


def check_rs_determinant() -> tuple[bool, str]:
    """Eigenvalue product vs the explicitly built pair matrices."""
    rng = random.Random(20240816)
    worst = 0.0
    for n in (4, 5, 6, 7):
        eye = np.eye(n * (n - 1) // 2)
        for _ in range(100):  # one pair of pattern matrices and one det per draw
            q, r, P, Q, R = (rng.uniform(-0.3, 0.3) for _ in range(5))
            closed = rs_determinant(n, q, r, P, Q, R)
            A_g = build_pqr_matrix(n, P, Q, R)
            A_u = build_pqr_matrix(n, 1.0 - q * q, q * (1.0 - q), r - q * q)
            direct = float(np.linalg.det(eye - A_g @ A_u))
            worst = max(worst, abs(closed - direct) / max(1.0, abs(direct)))
    return worst < 1e-9, f"worst relative gap {worst:.3e} over 400 draws"


def ratio_gaps(approx, exact, Ns) -> tuple[list[float], str]:
    """|exp(exact(N) - approx.at(N)) - 1| at each N, for a central-approximation
    record, and the detail line that lists them."""
    gaps = [abs(math.exp(exact(N) - approx.at(N)) - 1.0) for N in Ns]
    return gaps, (f"|ratio-1| at {'/'.join(map(str, Ns))}: "
                  + " ".join(f"{gap:.2e}" for gap in gaps))


def check_dense_constant_convergence() -> tuple[bool, str]:
    """exp(exact - estimate) -> 1 on the binary quadratic instance."""
    spec = DenseModelSpec(1, BINARY, zero_local(), PolyOverlap(1, [(0.5, {0: 2})]))
    approx = central_approx_constant(spec, solve_variational(spec))
    gaps, detail = ratio_gaps(approx, lambda N: exact_type_sum(spec, N), (100, 400, 1600))
    return gaps[1] < gaps[0] and gaps[2] < 0.02, detail


def contrast_identity_defect(w: np.ndarray) -> float:
    """Max entry of |H (H^T diag(1/w) H)^{-1} H^T - (diag(w) - w w^T)| for an
    interior measure w, H the zero-sum coordinates against the first symbol
    as reference cell."""
    K = w.size
    H = np.vstack([-np.ones(K - 1), np.eye(K - 1)])
    middle = np.linalg.inv(H.T @ np.diag(1.0 / w) @ H)
    return float(np.max(np.abs(H @ middle @ H.T - (np.diag(w) - np.outer(w, w)))))


def check_matrix_identities() -> tuple[bool, str]:
    """Contrast-basis and pair-contraction identities at random measures."""
    rng = random.Random(7)
    worst_h = worst_j = 0.0
    for _ in range(50):
        K = rng.randint(2, 16)
        draws = np.array([rng.expovariate(1.0) for _ in range(K)])  # normalized: Dirichlet(1)
        w = 0.5 * draws / draws.sum() + 0.5 / K
        spec = DenseModelSpec(1, Alphabet(tuple(np.linspace(-1.0, 1.0, K))),
                              zero_local(), PolyOverlap.zero(1))
        pair_covariance, _ = dense_fluctuation(spec, w)
        worst_h = max(worst_h, contrast_identity_defect(w))
        S = np.diag(w) - np.outer(w, w)
        conj = spec.pair_products.T @ S @ spec.pair_products
        worst_j = max(worst_j, np.max(np.abs(conj - pair_covariance)))
    return max(worst_h, worst_j) <= 1e-10, f"max defects {worst_h:.2e} / {worst_j:.2e}"


def check_sylvester() -> tuple[bool, str]:
    """det(I - AB) = det(I - BA) across rectangular shapes."""
    rng = random.Random(11)
    sides: dict[tuple[int, int], tuple[array, array]] = {}  # flat row-major A and B stacks
    for _ in range(1000):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        if (a, b) not in sides:
            sides[a, b] = array("d"), array("d")
        A, B = sides[a, b]
        A.extend(rng.uniform(-0.7, 0.7) for _ in range(a * b))
        B.extend(rng.uniform(-0.7, 0.7) for _ in range(a * b))
    worst = 0.0
    for (a, b), (A, B) in sides.items():  # one stacked det per side and shape
        A = np.frombuffer(A).reshape(-1, a, b)
        B = np.frombuffer(B).reshape(-1, b, a)
        d1 = np.linalg.det(np.eye(a) - A @ B)
        d2 = np.linalg.det(np.eye(b) - B @ A)
        worst = max(worst, float((np.abs(d1 - d2) / np.maximum(1.0, np.abs(d1))).max()))
    return worst <= 1e-9, f"worst relative defect {worst:.3e}"


def check_local_multinomial_decay() -> tuple[bool, str]:
    """Quadratic approximation error of the central binomial shrinks like 1/N."""
    errors = {}
    for N in (50, 100, 200, 400):
        half = N // 2
        exact = log_multinomial((half, half))
        approx = local_approx_log_multinomial((0.5, 0.5), (0.0, 0.0), N)
        errors[N] = abs(approx - exact) / abs(exact)
    decreasing = errors[50] > errors[100] > errors[200] > errors[400]
    ratio_ok = all(errors[4 * N] / errors[N] <= 0.3 for N in (50, 100))
    return decreasing and ratio_ok, (
        "relative errors " + " ".join(f"{errors[N]:.2e}" for N in (50, 100, 200, 400))
    )


def check_configuration_model() -> tuple[bool, str]:
    """Exact type sums equal the stub-permutation average, as rationals."""
    ternary = Alphabet((0.0, 1.0, 2.0))
    cases = 0
    battery = [(l, r, BINARY, factor, 8) for l, r in ((2, 2), (2, 4))
               for factor in ("parity", "uniform")]
    battery += [(2, 2, ternary, factor, 3) for factor in ("uniform", "all-equal")]
    for l, r, alphabet, factor, max_N in battery:
        ens = make_ensemble(l, r, alphabet, factor)
        for N in range(1, max_N + 1):
            if N * l > 8 or not ens.is_admissible(N):
                continue
            oracle = brute_force_permutation_oracle(ens, N)
            if exact_expected_Z_exact(ens, N) != oracle.expected_Z:
                return False, f"mismatch at (l={l}, r={r}, |X|={len(alphabet)}, {factor}, N={N})"
            cases += 1
    return True, f"{cases} exact equalities"


def check_fg_constant_convergence() -> tuple[bool, str]:
    """(3,6) parity: exp(exact - estimate) -> 1 with shrinking gap."""
    ens = make_ensemble(3, 6, BINARY, "parity")
    approx = fg_constant_log(ens, solve_bethe(ens))
    gaps, detail = ratio_gaps(approx, lambda N: exact_expected_Z(ens, N), (20, 40, 60))
    return gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.1, detail


def check_step_size_agreement() -> tuple[bool, str]:
    """Every route to s agrees on a battery spanning s = 1..9."""
    ternary = Alphabet((0.0, 1.0, 2.0))
    battery = [
        (2, 4, BINARY, "parity", 1),
        (3, 6, BINARY, "parity", 3),
        (2, 6, BINARY, "parity", 1),
        (3, 4, BINARY, "parity", 3),
        (5, 4, BINARY, "parity", 5),
        (4, 4, BINARY, "parity", 2),
        (2, 2, BINARY, "uniform", 2),
        (3, 2, BINARY, "uniform", 3),
        (2, 2, ternary, "uniform", 4),
        (3, 2, ternary, "uniform", 9),
        (2, 3, BINARY, "all-equal", 2),
    ]
    for l, r, alphabet, factor, s in battery:
        ens = make_ensemble(l, r, alphabet, factor)
        methods = step_size_methods(ens)
        for name, value in methods.items():
            if name == "box_density":
                if value != Fraction(1, s):
                    return False, f"box density {value} != 1/{s} at (l={l}, r={r}, {factor})"
            elif value != s:
                return False, f"{name}={value} != {s} at (l={l}, r={r}, {factor})"
    return True, f"{len(battery)} configurations, all routes agree"


def check_covariances() -> tuple[bool, str]:
    """Overlap covariance 1/(1-beta^2) and the type-covariance oracle."""
    m, beta = 3, 0.5
    spec = DenseModelSpec(m, SPINS, zero_local(), PolyOverlap.pairwise_square(m, beta))
    uniform = np.full(2**m, 2.0**-m)
    cov = overlap_covariance(spec, uniform)
    want = 1.0 / (1.0 - beta * beta)
    block = np.ix_(distinct_pair_positions(m), distinct_pair_positions(m))
    gap = np.max(np.abs(cov.matrix[block] - want * np.eye(m * (m - 1) // 2)))
    if gap > 1e-10:
        return False, f"overlap block off by {gap:.2e}"

    dense = DenseModelSpec(1, BINARY, zero_local(), PolyOverlap(1, [(0.5, {0: 2})]))
    sol = solve_variational(dense)
    formula = dense_type_covariance(dense, sol.nu_star)
    empirical = empirical_type_covariance_oracle(dense, 2000)
    err = np.max(np.abs(empirical.matrix - formula.matrix))
    scale = np.max(np.abs(formula.matrix))
    return err / scale < 0.01, f"overlap gap {gap:.1e}, type-cov error {err/scale:.2%} at N=2000"


CHECKS = (
    ("sk-correction", check_sk_correction),
    ("rs-determinant", check_rs_determinant),
    ("dense-constant-convergence", check_dense_constant_convergence),
    ("matrix-identities", check_matrix_identities),
    ("sylvester-determinants", check_sylvester),
    ("local-multinomial-decay", check_local_multinomial_decay),
    ("configuration-model-exactness", check_configuration_model),
    ("fg-constant-convergence", check_fg_constant_convergence),
    ("step-size-agreement", check_step_size_agreement),
    ("fluctuation-covariances", check_covariances),
)


def run_all(names=None):
    """Run the battery; returns [(name, passed, detail, seconds)]."""
    wanted = set(names) if names else None
    results = []
    for name, fn in CHECKS:
        if wanted is not None and name not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with the reason attached
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, passed, detail, time.perf_counter() - start))
    return results
