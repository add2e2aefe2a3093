"""Oracles that only the tests call, kept out of the package: the literal
configuration sum and the windowed type sum of a dense model, and the
expected count of one (variable-type, factor-type) pair of a factor-graph
ensemble, as a log and as an exact rational."""

import math
from fractions import Fraction

import numpy as np

from central_approx.dense import EXACT_GUARD, DenseModelSpec, type_log_weights
from central_approx.errors import GuardError, ValidationFailure
from central_approx.factor_graph import EnsembleSpec
from central_approx.types_core import (
    log_multinomial,
    logsumexp,
    multinomial,
    type_array_blocks,
)

BRUTE_FORCE_BATCH = 1 << 15
EXACT_COUNT_MAX_STUBS = 60


# ------------------------------------------------------------ dense models

def brute_force_expectation(spec: DenseModelSpec, N: int, *,
                            guard: int | None = EXACT_GUARD) -> float:
    """log of the configuration sum, enumerated literally, BRUTE_FORCE_BATCH
    configurations at a time.

    Guarded to |X|^(n N) <= guard configurations; ``guard=None`` lifts it.
    """
    K = spec.num_symbols
    total = K**N
    if guard is not None and total > guard:
        raise GuardError(f"brute force would enumerate {total} configurations (guard {guard})")
    powers = K ** np.arange(N - 1, -1, -1, dtype=np.int64)
    pieces = []
    for start in range(0, total, BRUTE_FORCE_BATCH):
        idx = np.arange(start, min(start + BRUTE_FORCE_BATCH, total), dtype=np.int64)
        digits = (idx[:, None] // powers) % K
        fsum = spec.f_values[digits].sum(axis=1)
        q = spec.pair_products[digits].mean(axis=1)
        lw = fsum + N * spec.g.derivative_batch(q)
        pieces.append(logsumexp(lw))
    return logsumexp(pieces)


def windowed_type_sum(spec: DenseModelSpec, N: int, alpha: float, nu_star,
                      *, guard: int | None = EXACT_GUARD) -> float:
    """Type sum restricted to the window ||v - N nu*||_2 <= N^alpha.

    alpha must lie strictly between 1/2 (below the fluctuation scale) and
    2/3 (where cubic corrections enter).  Returns -inf for an empty window.
    Enumerates every type, guarded as type_array_blocks.
    """
    if not (0.5 < alpha < 2.0 / 3.0):
        raise ValueError("alpha must lie in (1/2, 2/3)")
    center = N * np.asarray(nu_star, dtype=float)
    if center.size != spec.num_symbols:
        raise ValueError("nu_star has the wrong number of cells")
    radius = float(N) ** alpha
    pieces = []
    for V in type_array_blocks(N, spec.num_symbols, guard=guard):
        dist2 = ((V - center) ** 2).sum(axis=1)
        mask = dist2 <= radius * radius
        if mask.any():
            pieces.append(logsumexp(type_log_weights(spec, N, V[mask])))
    return logsumexp(pieces)


# ------------------------------------------ factor-graph type-pair counts

def _as_counts(vec, cells: int, total: int, what: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.int64)
    if arr.shape != (cells,) or np.any(arr < 0) or (
            arr is not vec and not np.array_equal(arr, vec)):
        raise ValidationFailure(f"{what} must be {cells} nonnegative integer counts")
    if arr.sum() != total:
        raise ValidationFailure(f"{what} must total {total}, got {arr.sum()}")
    return arr


def check_consistency(ensemble: EnsembleSpec, v, u, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (v, u) pair: totals and the per-letter edge-count balance.

    Every letter z is seen l*v(z) times from the variable side and
    sum_x N_z(x) u(x) times from the factor side; the two must agree.
    """
    M = ensemble.num_factors(N)
    K = len(ensemble.alphabet)
    v = _as_counts(v, K, N, "variable-type")
    u = _as_counts(u, K**ensemble.r, M, "factor-type")
    lhs = ensemble.letter_counts.T @ u
    if not np.array_equal(lhs, ensemble.l * v):
        raise ValidationFailure(
            f"inconsistent type pair: factor side sees {lhs.tolist()} letters, "
            f"variable side provides {(ensemble.l * v).tolist()}"
        )
    return v, u


def log_expected_type_count(ensemble: EnsembleSpec, v, u, N: int) -> float:
    """log E[N(v,u)]: multinomial(v) * multinomial(u) * prod (v(x)l)! / (Nl)!."""
    v, u = check_consistency(ensemble, v, u, N)
    l = ensemble.l
    out = log_multinomial(v) + log_multinomial(u) - math.lgamma(N * l + 1)
    out += sum(math.lgamma(int(c) * l + 1) for c in v)
    return out


def expected_type_count_exact(ensemble: EnsembleSpec, v, u, N: int) -> Fraction:
    """E[N(v,u)] as an exact rational; guarded by the (Nl)! size."""
    if N * ensemble.l > EXACT_COUNT_MAX_STUBS:
        raise GuardError(
            f"exact path is guarded at N*l <= {EXACT_COUNT_MAX_STUBS}, got {N * ensemble.l}"
        )
    v, u = check_consistency(ensemble, v, u, N)
    l = ensemble.l
    num = multinomial(v.tolist()) * multinomial(u.tolist())
    for c in v:
        num *= math.factorial(int(c) * l)
    return Fraction(num, math.factorial(N * l))
