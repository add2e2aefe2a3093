"""Densely coupled replicated models on a finite alphabet.

A model instance is a replica count n, an alphabet X, a local term
f : X^n -> R, and a polynomial coupling g (PolyOverlap) in the n(n+1)/2
replica-pair overlaps q_ab = (1/N) sum_i x_i^(a) x_i^(b), a <= b.  The
expectation of interest is

    E = sum over configurations exp{ sum_i f(x_i) + N g(q) }.

Two routes are provided:

* ``exact_type_sum``: the sum from the generating function of the
  pair-product sums, feasible into the thousands of sites;
* ``central_approx_constant``: the central-approximation record
  (types_core.CentralApprox) at the maximizing measure of
  ``solve_variational``, whose ``at(N)`` is N F plus the log of the
  Gaussian constant factor coming from the curvature of the type sum there.

Pair coordinates are ordered (a, b) with a <= b, lexicographically:
(1,1), (1,2), ..., (1,n), (2,2), ..., (n,n) (1-based in documentation,
0-based in code).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import GuardError, NumericalFailure
from .types_core import (
    RESTARTS,
    Alphabet,
    CentralApprox,
    MaximizerRecord,
    central_approx,
    dirichlet_starts,
    entropy,
    log_multinomial_rows,
    logsumexp,
    power_terms,
    require_interior,
    solve_multistart,
)

SYMBOL_TABLE_GUARD = 1 << 20
# default size guard of exact_type_sum: the smaller of packed words and types
EXACT_GUARD = 10**8


def pair_indices(n: int) -> list[tuple[int, int]]:
    """Ordered replica-pair index list, 0-based, a <= b lexicographic."""
    return [(a, b) for a in range(n) for b in range(a, n)]


def distinct_pair_positions(n: int) -> list[int]:
    """Positions within pair_indices(n) where a < b."""
    return [k for k, (a, b) in enumerate(pair_indices(n)) if a < b]


# ------------------------------------------------------------ coupling

class PolyOverlap:
    """Coupling g on the overlap vector (length n(n+1)/2): a polynomial in
    the overlap coordinates.  Its value and its exact derivatives of any
    order come from one routine, ``derivative_batch``.

    ``terms`` is a sequence of (coefficient, powers) where powers maps a
    pair position (index into pair_indices(n)) to a nonnegative exponent.
    Each monomial's coefficients are summed once, exactly: ``canonical`` maps
    it to that sum times 2^1074 (an integer, as every float is a multiple of
    2^-1074) and ``terms`` keeps the sum rounded to a float, in first-seen
    order; a zero sum is dropped, so a g with no coupling has no terms.  g
    must be invariant under simultaneous replica permutations; model
    construction checks this exactly on ``canonical``.
    """

    def __init__(self, n: int, terms):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.n_pairs = n * (n + 1) // 2
        exact: dict = {}
        for coef, powers in terms:
            pw = {int(k): int(v) for k, v in dict(powers).items() if int(v) != 0}
            for k in pw:
                if not 0 <= k < self.n_pairs:
                    raise ValueError(f"pair position {k} out of range")
            coef = float(coef)
            if not math.isfinite(coef):
                raise ValueError(f"coefficient {coef} is not finite")
            num, den = coef.as_integer_ratio()
            key = tuple(sorted(pw.items()))
            exact[key] = exact.get(key, 0) + num * (1 << 1074) // den
        self.canonical = {powers: c for powers, c in exact.items() if c}
        try:
            self.terms = tuple((c / (1 << 1074), powers) for powers, c in self.canonical.items())
        except OverflowError:
            raise ValueError("a monomial's coefficients sum past the float range") from None

    @classmethod
    def zero(cls, n: int) -> "PolyOverlap":
        return cls(n, [])

    @classmethod
    def quadratic(cls, n: int, lam: float, pairs: str = "all") -> "PolyOverlap":
        """(lam/2) * sum of squared overlaps over the selected pair set."""
        idx = pair_indices(n)
        if pairs == "all":
            sel = range(len(idx))
        elif pairs == "distinct":
            sel = distinct_pair_positions(n)
        elif pairs == "diagonal":
            sel = [k for k, (a, b) in enumerate(idx) if a == b]
        else:
            raise ValueError("pairs must be one of: all, distinct, diagonal")
        return cls(n, [(0.5 * lam, {k: 2}) for k in sel])

    @classmethod
    def pairwise_square(cls, n: int, beta: float) -> "PolyOverlap":
        """(beta^2/2) * sum over distinct pairs of q_ab^2 (pair curvature beta^2)."""
        return cls.quadratic(n, beta * beta, pairs="distinct")

    def derivative_batch(self, Q: np.ndarray, positions=()) -> np.ndarray:
        """The partial derivative of g in a multiset of pair positions (a
        position repeated k times is differentiated k times) at each row of
        Q; no positions gives g itself."""
        Q = np.asarray(Q, dtype=float)
        positions = sorted(positions)
        out = np.zeros(Q.shape[0])
        for coef, powers in self.terms:
            exps = dict(powers)
            for k in positions:
                e = exps.get(k, 0)
                if not e:
                    break
                coef *= e
                exps[k] = e - 1
            else:
                t = coef
                for k, e in exps.items():
                    if e:
                        t = t * Q[:, k] ** e
                out += t
        return out

    def gradient_batch(self, Q: np.ndarray) -> np.ndarray:
        return np.column_stack([self.derivative_batch(Q, (k,)) for k in range(self.n_pairs)])

    def hessian(self, q) -> np.ndarray:
        """Evaluated only at the pairs of positions that share a monomial;
        every other entry is exactly 0."""
        Q = np.asarray(q, dtype=float)[None, :]
        H = np.zeros((self.n_pairs, self.n_pairs))
        shared = {jk for _, powers in self.terms
                  for jk in itertools.combinations_with_replacement([k for k, _ in powers], 2)}
        for j, k in shared:
            H[j, k] = H[k, j] = self.derivative_batch(Q, (j, k))[0]
        return H


# ------------------------------------------------------------- local terms

def zero_local():
    return lambda xs: 0.0


def field_local(h: float):
    """h * sum over replicas of the symbol value."""
    return lambda xs: h * float(sum(xs))


def check_symbol_table(K: int, n: int) -> None:
    """GuardError unless the |X|^n symbols x n(n+1)/2 pairs matrix has at
    most SYMBOL_TABLE_GUARD entries."""
    # with K >= 2, K^n exceeds the guard once n reaches its bit length; the
    # cap keeps a huge n from building a huge integer
    entries = K ** min(n, SYMBOL_TABLE_GUARD.bit_length()) * (n * (n + 1) // 2)
    if entries > SYMBOL_TABLE_GUARD:
        raise GuardError(f"symbol table |X|^n x pairs = {K}^{n} x {n * (n + 1) // 2} "
                         f"exceeds the guard ({SYMBOL_TABLE_GUARD})")


class DenseModelSpec:
    """Replica count, alphabet, local term, and overlap coupling.

    Precomputes the product-symbol table, the local-term vector, and the
    pair-product matrix (symbols x pairs) whose rows are x^(a) x^(b).
    """

    def __init__(self, n: int, alphabet: Alphabet, f, g: PolyOverlap):
        if n < 1:
            raise ValueError("need n >= 1")
        check_symbol_table(len(alphabet), n)
        if g.n != n:
            raise ValueError("overlap function built for a different replica count")
        self.n = int(n)
        self.alphabet = alphabet
        self.g = g
        self.symbols = tuple(itertools.product(alphabet.values, repeat=n))
        self.num_symbols = len(self.symbols)
        self.pair_list = pair_indices(n)
        sym = np.array(self.symbols, dtype=float)  # (K, n)
        # a product past the float range is inf; the routes that use it
        # refuse a result that is not finite
        with np.errstate(over="ignore"):
            self.pair_products = np.column_stack(
                [sym[:, a] * sym[:, b] for (a, b) in self.pair_list]
            )
        self.f_values = np.array([float(f(s)) for s in self.symbols])
        if not np.all(np.isfinite(self.f_values)):
            raise ValueError("local term must be finite on every symbol")
        self._check_g_symmetry()

    def _check_g_symmetry(self):
        """ValueError unless g's canonical terms (PolyOverlap.canonical: each
        monomial's exact coefficient) are unchanged by each adjacent replica
        transposition; these generate every replica permutation."""
        pos = {pair: k for k, pair in enumerate(self.pair_list)}
        terms = self.g.canonical
        for t in range(self.n - 1):
            swap = {t: t + 1, t + 1: t}
            image = [pos[tuple(sorted((swap.get(a, a), swap.get(b, b))))]
                     for a, b in self.pair_list]
            moved = {tuple(sorted((image[k], e) for k, e in powers)): coef
                     for powers, coef in terms.items()}
            if moved != terms:
                raise ValueError(
                    "overlap coupling is not invariant under replica permutations"
                )

    def overlaps(self, weights: np.ndarray) -> np.ndarray:
        """Overlap vector of a measure on the product symbols."""
        return np.asarray(weights, dtype=float) @ self.pair_products


# ----------------------------------------------------------- exact routes

def type_log_weights(spec: DenseModelSpec, N: int, V: np.ndarray) -> np.ndarray:
    """log multinomial(v) + sum_x v(x) f(x) + N g(q(v/N)) for rows of V."""
    lw = log_multinomial_rows(V)
    lw = lw + V @ spec.f_values
    Q = (V / N) @ spec.pair_products
    lw = lw + N * spec.g.derivative_batch(Q)
    return lw


def exact_type_sum(spec: DenseModelSpec, N: int, *,
                   guard: int | None = EXACT_GUARD) -> float:
    """log of the configuration sum: sum over the pair-product sums r of
    [y^r] (sum_x e^{f(x)} y^{J(x)})^N * e^{N g(r/N)}, the power from
    types_core.power_terms and guarded by it (``guard=None`` lifts it).
    Equal to the literal configuration sum wherever both are feasible;
    NumericalFailure where the sum overflows to a value that is not finite."""
    if N < 1:
        raise ValueError("need N >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        pieces = [logsumexp(coef + N * spec.g.derivative_batch(rows / N))
                  for rows, coef in power_terms(spec.pair_products, spec.f_values, N, guard=guard)]
        total = logsumexp(pieces)
    if not math.isfinite(total):
        raise NumericalFailure(
            f"exact sum at N={N} is {total}, not finite: the model overflows the float range")
    return total


# ------------------------------------------------------- variational layer

def _variational_objective(spec: DenseModelSpec, w: np.ndarray) -> float:
    g = spec.g.derivative_batch(spec.overlaps(w)[None, :])[0]
    return float(entropy(w) + w @ spec.f_values + g)


def _stationary_map(spec: DenseModelSpec, W: np.ndarray) -> np.ndarray:
    """Softmax of the local score at the overlaps of each row of W; with no
    coupling term the score is f alone (a zero gradient times a pair product
    past the float range would be nan)."""
    J = spec.pair_products
    score = np.tile(spec.f_values, (len(W), 1))
    if spec.g.terms:
        score += spec.g.gradient_batch(W @ J) @ J.T
    e = np.exp(score - score.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def solve_variational(spec: DenseModelSpec, *, seed: int = 0) -> MaximizerRecord:
    """Maximizing measure(s) of H(nu) + <f>_nu + g(q(nu)) over the simplex.

    Damped fixed-point iteration of the stationary map from the starts of
    dirichlet_starts; a start stops once no weight moves by more than
    FIXED_POINT_TOL under the stationary map (solve_multistart).
    """
    return solve_multistart(
        dirichlet_starts(spec.num_symbols, RESTARTS, seed),
        lambda W: _stationary_map(spec, W),
        lambda W: [_variational_objective(spec, w) for w in W],
    )


# -------------------------------------------------- fluctuation matrices

def dense_fluctuation(spec: DenseModelSpec, nu_star) -> tuple[np.ndarray, np.ndarray]:
    """(U' - U, D2g) at an interior measure (require_interior): the covariance
    of the pair products under nu* and the Hessian of g at q(nu*), both P x P
    for P = n(n+1)/2 pairs.  NumericalFailure where a pair product past the
    float range leaves U' - U not finite."""
    w = np.asarray(nu_star, dtype=float)
    if w.size != spec.num_symbols:
        raise ValueError("measure has the wrong number of cells")
    require_interior(w)
    J = spec.pair_products
    q = w @ J
    with np.errstate(invalid="ignore"):  # inf - inf
        cov = J.T @ (J * w[:, None]) - np.outer(q, q)
    if not np.isfinite(cov).all():
        raise NumericalFailure("pair covariance U' - U is not finite: "
                               "a pair product overflows the float range")
    return cov, spec.g.hessian(q)


def central_approx_constant(spec: DenseModelSpec,
                            solution: MaximizerRecord) -> CentralApprox:
    """The central approximation of the type sum (types_core.central_approx):
    F, and the Gaussian constant factor det(I - D2g (U' - U))^{-1/2} summed
    over the co-maximizers; raises at a boundary maximizer, or where a
    co-maximizer is singular or not a maximum (types_core.fluctuation_root).
    With no coupling term D2g = 0, so each factor is exactly 1 and no pair
    covariance is built (one past the float range would not be finite)."""
    if not spec.g.terms:
        for nu in solution.co_maximizers:
            require_interior(nu)
        return CentralApprox(solution.F, math.log(len(solution.co_maximizers)), 1.0)
    return central_approx(solution.F,
                          (dense_fluctuation(spec, nu) for nu in solution.co_maximizers))
