"""Covariance matrices of the type and overlap central limit theorems.

The scaled type fluctuations sqrt(N)(v/N - nu*) converge to a degenerate
Gaussian whose covariance has the resolvent form M (I - B M)^{-1}: M is the
bare multinomial covariance of the maximizing measure and B the coupling
curvature seen through the relevant contraction.  The same shape appears
for dense overlaps and for the two factor-graph type layers; only M, B and
the basis change.  The overlap and variable-type pairs are the ones the
Gaussian constants read, from ``dense.dense_fluctuation`` (U' - U, D2g) and
``factor_graph.fg_fluctuation`` (V' - V, C).  The factor covariance
diag(mu*) - mu* mu*^T is the one |X|^r x |X|^r matrix; only
fg_type_covariances builds it, and only for kind "factor".  Every
covariance starts from one of those pairs, so it refuses a boundary
maximizer by the constants' rule (types_core.require_interior).
Degenerate directions (normalization, hard constraints) are kept in the
matrix rather than projected out, so bases stay aligned with their labels;
rank diagnostics travel with the result.  Each function imports the model
module it reads when it runs, so a factor-graph covariance loads no dense
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ATInstabilityError, NumericalFailure, SingularMatrixError
from .types_core import logsumexp, solve, type_array_blocks

if TYPE_CHECKING:
    from .dense import DenseModelSpec

__all__ = [
    "CovarianceResult",
    "dense_type_covariance",
    "overlap_covariance",
    "empirical_type_covariance_oracle",
    "fg_type_covariances",
]

ORACLE_TYPE_GUARD = 10**6
# relative to the largest |entry| (at least 1): the asymmetry a covariance may
# carry, and the eigenvalue below which it counts as zero (below minus it, as
# not positive semidefinite)
SYM_TOL = 1e-10
PSD_TOL = 1e-9


@dataclass(frozen=True)
class CovarianceResult:
    """A (possibly singular) covariance matrix with basis labels and rank.

    ``min_eigenvalue`` is exactly 0.0 when rank < dim: the smallest
    eigenvalue then lies within the tolerance the rank counts as zero, and
    its digits are rounding noise.  Likewise an entry within SYM_TOL times
    the scale (the largest |entry|, at least 1) of zero is stored as exactly
    0.0, after the rank and ``min_eigenvalue`` are taken."""

    matrix: np.ndarray
    labels: tuple
    rank: int
    min_eigenvalue: float

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, labels: tuple) -> "CovarianceResult":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (len(labels), len(labels)):
            raise ValueError(f"matrix shape {matrix.shape} does not fit {len(labels)} labels")
        scale = max(1.0, float(np.max(np.abs(matrix))) if matrix.size else 0.0)
        skew = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
        if skew > SYM_TOL * scale:
            raise NumericalFailure(f"covariance asymmetry {skew:.3e} exceeds tolerance")
        sym = 0.5 * (matrix + matrix.T)
        eigs = np.linalg.eigvalsh(sym) if sym.size else np.empty(0)
        min_eig = float(eigs[0]) if eigs.size else 0.0
        if min_eig < -PSD_TOL * scale:
            raise NumericalFailure(
                f"covariance has eigenvalue {min_eig:.3e}, below the PSD tolerance"
            )
        rank = int(np.sum(eigs > PSD_TOL * scale))
        if rank < eigs.size:
            min_eig = 0.0
        sym[np.abs(sym) <= SYM_TOL * scale] = 0.0
        sym.setflags(write=False)
        return cls(matrix=sym, labels=tuple(labels), rank=rank, min_eigenvalue=min_eig)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _resolvent_covariance(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """M (I - B M)^{-1} via one linear solve; raises on a singular middle."""
    middle = np.eye(M.shape[0]) - B @ M
    try:
        return solve(middle.T, M.T).T
    except SingularMatrixError as exc:
        raise ATInstabilityError(f"fluctuation resolvent is singular: {exc}") from exc


def dense_type_covariance(spec: DenseModelSpec, nu_star) -> CovarianceResult:
    """Covariance of sqrt(N)(v/N - nu*) on the X^n symbol basis.

    Returns (S' - S)(I - J D2g J^T (S' - S))^{-1} where S', S are the
    diagonal and outer-product moment matrices of nu* and D2g is the
    coupling Hessian at the maximizing overlaps.
    """
    from .dense import dense_fluctuation

    _, hessian = dense_fluctuation(spec, nu_star)
    w = np.asarray(nu_star, dtype=float)
    J = spec.pair_products
    M = np.diag(w) - np.outer(w, w)
    B = J @ hessian @ J.T
    cov = _resolvent_covariance(M, B)
    return CovarianceResult.from_matrix(cov, tuple(map(tuple, spec.symbols)))


def overlap_covariance(spec: DenseModelSpec, nu_star) -> CovarianceResult:
    """Covariance of sqrt(N)(q - q*) on the pair basis (a,b), a <= b, over all
    n replicas: (U' - U)(I - D2g (U' - U))^{-1}.
    """
    from .dense import dense_fluctuation, pair_indices

    cov = _resolvent_covariance(*dense_fluctuation(spec, nu_star))
    return CovarianceResult.from_matrix(cov, tuple(pair_indices(spec.n)))


def empirical_type_covariance_oracle(spec: DenseModelSpec, N: int, *,
                                     guard: int | None = ORACLE_TYPE_GUARD) -> CovarianceResult:
    """Exact covariance of sqrt(N)(v/N - nu*) at finite N, by full summation.

    Weights every type v by multinomial(v) * exp{sum_x v(x) f(x) + N g(q(v))}
    and computes the centered covariance of the scaled fluctuation.  The
    centering removes the maximizer, so nu* never enters: shifting by any
    constant leaves a covariance unchanged.  Validation plumbing for
    dense_type_covariance; cost grows like the number of types, which
    ``guard`` bounds (``guard=None`` lifts it).
    """
    from .dense import type_log_weights

    blocks = list(type_array_blocks(N, len(spec.symbols), guard=guard))
    V = np.concatenate(blocks, axis=0)
    logw = type_log_weights(spec, N, V)
    w = np.exp(logw - logsumexp(logw))
    freq = V / N
    mean = w @ freq
    X = np.sqrt(N) * (freq - mean)
    cov = (X * w[:, None]).T @ X
    return CovarianceResult.from_matrix(cov, tuple(map(tuple, spec.symbols)))


def fg_type_covariances(ensemble, mu_star, nu_star, kind: str) -> CovarianceResult:
    """The factor- or variable-type covariance of a random regular ensemble,
    as ``kind`` names; only that one is built.

    factor:   (T' - T)(I - K C K^T (T' - T))^{-1}   on the X^r word basis
    variable: (V' - V)(I - C (V' - V))^{-1}          on the X letter basis

    with T' = diag(mu*), T = mu* mu*^T, K the per-word letter frequencies,
    V' = K^T T' K, V = nu* nu*^T and C the variable-entropy curvature.
    Words outside the factor support carry zero rows and columns.

    Both matrices describe fluctuations scaled by sqrt(M), M = Nl/r the
    number of factor nodes: sqrt(M)(u/M - mu*) and sqrt(M)(v/N - nu*).
    Under sqrt(N) scaling the variable covariance picks up a factor r/l
    (check: a trivial factor makes v exactly multinomial, so the
    sqrt(N)-scaled covariance is diag(nu*) - nu* nu*^T, which is r/l
    times what the formula gives).
    """
    from .factor_graph import fg_fluctuation

    if kind not in ("factor", "variable"):
        raise ValueError(f"kind must be 'factor' or 'variable', got {kind!r}")
    variable_bare, curvature = fg_fluctuation(ensemble, mu_star, nu_star)
    if kind == "variable":
        variable = _resolvent_covariance(variable_bare, curvature)
        return CovarianceResult.from_matrix(variable, ensemble.alphabet.values)
    mu = np.asarray(mu_star, dtype=float)
    Kf = ensemble.letter_counts / ensemble.r
    factor = _resolvent_covariance(np.diag(mu) - np.outer(mu, mu), Kf @ curvature @ Kf.T)
    return CovarianceResult.from_matrix(factor, ensemble.word_labels)
