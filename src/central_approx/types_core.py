"""Combinatorics over empirical types plus the Gaussian term at a maximizer.

Everything downstream reduces to weighted sums over types (int64 count
rows with a fixed total) and to small (covariance, curvature) pairs at a
maximizer.  This module owns both primitives, and the solver machinery that
the dense and factor-graph sides share:

* exact and log-gamma multinomial coefficients of integer counts, entropy,
  and the local (Gaussian) approximation of a multinomial around a measure;
* all types of a total, lexicographic, in guarded int64 array blocks;
* the one exact contraction kernel, the terms of a polynomial power that a
  caller's row selector keeps, packed or expanded over types, with plain
  coefficients (``power_terms``);
* one symmetric eigendecomposition per (M, B) pair (``fluctuation_root``):
  R, the PSD root of M, and S = I - R B R, whose eigenvalue product is
  ``det``; S must be positive definite (a maximum), else the pair raises;
  plus ``logsumexp`` and log-factorials of integer counts (no scipy on the
  runtime path);
* the multi-start solve shared by the variational and Bethe solvers (batched
  fixed-point loop with one stop rule from RESTARTS + 1 starts, co-maximizer
  selection, one result record), the one boundary rule for a maximizer
  (``require_interior``), and both models' central-approximation record
  ``CentralApprox`` (``at(N)`` is N F + log C), built by ``central_approx``.

A measure is a plain float row, nonnegative and summing to one by
construction of the solver that returns it; the co-maximizers of a solve are
the rows of one read-only array, best first.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Iterator

import numpy as np

from .errors import (
    ATInstabilityError,
    BoundaryMaximizerError,
    GuardError,
    NonConvergenceError,
)

# Tolerances and guards used by the constructors below.  Kept module level
# so tests can reference the same numbers.
TYPE_ENUM_GUARD = 10**8
TYPE_BLOCK_ROWS = 1 << 20
# the smallest eigenvalue of I - R B R a maximum needs, relative to its scale
STABILITY_RTOL = 1e-12

# Settings of the multi-start solve, shared by both solvers: RESTARTS
# Dirichlet starts after the uniform one.
RESTARTS = 32
DAMPING = 0.5
FIXED_POINT_TOL = 1e-12
MAX_ITER = 100_000
OBJECTIVE_GAP = 1e-9
DEDUP_TOL = 1e-8
BOUNDARY_TOL = 1e-10


class Alphabet:
    """Ordered finite set of distinct real symbol values, immutable; equal
    alphabets have equal ``values``."""

    __slots__ = ("values", "_index")

    def __init__(self, values):
        vals = tuple(float(v) for v in values)
        if len(vals) == 0:
            raise ValueError("alphabet must be nonempty")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("alphabet values must be finite")
        if len(set(vals)) != len(vals):
            raise ValueError("alphabet values must be distinct")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(vals)})

    def __setattr__(self, name, value):
        raise AttributeError(f"Alphabet is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Alphabet(values={self.values!r})"

    def index(self, value) -> int:
        try:
            return self._index[float(value)]
        except KeyError:
            raise ValueError(f"{value!r} is not a symbol of this alphabet") from None

    def __len__(self) -> int:
        return len(self.values)


def _int_counts(counts) -> np.ndarray:
    """counts as an int64 array: ValueError for an entry that is not an integer."""
    c = np.asarray(counts)
    ints = c.astype(np.int64, copy=False)
    if ints is not c and not np.array_equal(ints, c):
        raise ValueError("counts must be integers")
    return ints


def multinomial(counts) -> int:
    """Exact multinomial coefficient of a sequence of nonnegative ints, uncapped."""
    coef, total = 1, 0
    try:
        for k in counts:
            total += k
            coef *= math.comb(total, k)
    except TypeError:
        raise ValueError("counts must be integers") from None
    return coef


def log_factorials(counts) -> np.ndarray:
    """log(k!) for every entry k of a nonnegative integer array.

    Each value comes from math.lgamma once: from a table up to the largest
    count, or per distinct count when that table would outgrow the input.
    """
    c = _int_counts(counts)
    if c.size and int(c.min()) < 0:
        raise ValueError("counts must be nonnegative")
    top = int(c.max(initial=0))
    if top < max(c.size, 1024):
        return np.array([math.lgamma(k + 1.0) for k in range(top + 1)])[c]
    values, inverse = np.unique(c, return_inverse=True)
    return np.array([math.lgamma(k + 1.0) for k in values.tolist()])[inverse].reshape(c.shape)


def log_multinomial_rows(type_rows: np.ndarray) -> np.ndarray:
    """Row-wise log multinomial for an (m, cells) array of count vectors."""
    V = _int_counts(type_rows)
    if V.ndim != 2:
        raise ValueError("type rows must form a 2-d array")
    return log_factorials(V.sum(axis=1)) - log_factorials(V).sum(axis=1)


def log_multinomial(counts) -> float:
    """log of the multinomial coefficient of one count vector."""
    return float(log_multinomial_rows([counts])[0])


def logsumexp(a) -> float:
    """log sum exp(a) over all entries, shifted by the largest: -inf for an
    empty input, and a non-finite largest entry (inf, -inf, nan) as is."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    top = float(a.max())
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.exp(a - top).sum()))


def entropy(measure) -> float:
    """Shannon entropy in nats, with the 0 * log 0 = 0 convention."""
    w = np.asarray(measure, dtype=float)
    pos = w[w > 0]
    return float(-(pos * np.log(pos)).sum())


def local_approx_log_multinomial(nu, v, N) -> float:
    """Gaussian-order local approximation of log multinomial(N nu + sqrt(N) v).

    ``nu`` is a strictly positive measure, ``v`` a balanced (zero-sum)
    displacement in units of sqrt(N).  Returns

        log[ sqrt(2 pi N) / prod_x sqrt(2 pi N nu(x)) ]
        + N H(nu) - sqrt(N) sum_x v(x) log nu(x) - (1/2) sum_x v(x)^2 / nu(x)

    i.e. the expansion without its relative error factor.  The quadratic
    coefficient 1/2 is validated against the exact binomial in the tests
    (both the central value and the e^{-2 d^2/N} Gaussian width).
    """
    w = np.asarray(nu, dtype=float)
    vv = np.asarray(v, dtype=float)
    if w.shape != vv.shape:
        raise ValueError("nu and v must have the same number of cells")
    if np.any(w <= 0):
        raise ValueError("local approximation requires a strictly positive measure")
    if abs(float(vv.sum())) > 1e-12 * max(1.0, float(np.abs(vv).max(initial=0.0))):
        raise ValueError("displacement v must sum to zero")
    N = float(N)
    if N <= 0:
        raise ValueError("N must be positive")
    prefactor = 0.5 * math.log(2 * math.pi * N) - 0.5 * float(np.log(2 * math.pi * N * w).sum())
    return float(
        prefactor
        + N * entropy(w)
        - math.sqrt(N) * float((vv * np.log(w)).sum())
        - 0.5 * float((vv * vv / w).sum())
    )


def num_types(N: int, cells: int) -> int:
    """Number of types: compositions of N into ``cells`` nonnegative parts."""
    if cells < 1 or N < 0:
        raise ValueError("need cells >= 1 and N >= 0")
    return math.comb(N + cells - 1, cells - 1)


def _compositions(total: int, cells: int, prefix=()) -> np.ndarray:
    """All compositions of total into cells parts, each row led by the counts
    in prefix, as an int64 array in lexicographic order: built column by
    column, each row spawning one row per value from 0 to its remainder."""
    columns = [np.array([k], dtype=np.int64) for k in prefix]
    rest = np.array([total], dtype=np.int64)
    for _ in range(cells - 1):
        spawned = rest + 1
        parent = np.repeat(np.arange(rest.size), spawned)
        value = np.arange(parent.size) - np.repeat(np.cumsum(spawned) - spawned, spawned)
        columns = [col[parent] for col in columns] + [value]
        rest = rest[parent] - value
    return np.column_stack(columns + [rest])


def type_array_blocks(N: int, cells: int, *,
                      guard: int | None = TYPE_ENUM_GUARD) -> Iterator[np.ndarray]:
    """Yield all types of total N over ``cells`` cells as int64 array blocks,
    split on the leading counts until a block has at most TYPE_BLOCK_ROWS
    rows or three cells.

    Blocks arrive in global lexicographic order and concatenate to the full
    enumeration.  Raises GuardError when the total count exceeds ``guard``;
    ``guard=None`` lifts it.
    """
    count = num_types(N, cells)
    if guard is not None and count > guard:
        raise GuardError(f"type enumeration would produce {count} types (guard {guard})")

    def rec(prefix: list[int], total: int, c: int) -> Iterator[np.ndarray]:
        if c <= 3 or num_types(total, c) <= TYPE_BLOCK_ROWS:
            yield _compositions(total, c, prefix)
        else:
            for k in range(total + 1):
                yield from rec(prefix + [k], total - k, c - 1)

    yield from rec([], N, cells)


def enumerate_types(N: int, cells: int, *,
                    guard: int | None = TYPE_ENUM_GUARD) -> Iterator[np.ndarray]:
    """The rows of type_array_blocks, one at a time."""
    for block in type_array_blocks(N, cells, guard=guard):
        yield from block


# ---------------------------------------------------------------------------
# The exact contraction kernel behind the dense and factor-graph exact sums.

def _packing(E: np.ndarray, weights, M: int) -> tuple:
    """Per integer column of E the shift (minimum), the step (gcd after the shift)
    and the slot count span * M + 1, a Python int (it may pass int64); and the
    bytes a slot of the exact M-th power needs, which (sum of the weights)^M
    bounds (0 for log weights)."""
    low = E.min(axis=0)
    step = np.maximum(np.gcd.reduce(E - low, axis=0), 1)
    width = 0 if isinstance(weights, np.ndarray) else -(-M * sum(weights).bit_length() // 8)
    return low, step, [span * M + 1 for span in ((E - low).max(axis=0) // step).tolist()], width


# The block log power: slots in blocks of LOG_BLOCK linear values, one
# power-of-two scale per block.  A step's products span at most
# LOG_BLOCK_RANGE nats, so each stays a normal float (e^-708 is the least).
LOG_BLOCK = 32
LOG_BLOCK_RANGE = 650.0


def _log_power(at: np.ndarray, weights: np.ndarray, M: int) -> np.ndarray:
    """Log coefficients of the M-th power of sum_t e^{w_t} t^{at_t} (distinct
    offsets at >= 0, finite log weights): M products with the base, in which
    each slot adds its shifted terms scaled by the largest and takes one log."""
    terms = list(zip(at.tolist(), weights.tolist()))
    power = np.zeros(1)
    for _ in range(M):
        top = np.full(len(power) + int(at.max()), -np.inf)
        for a, w in terms:
            np.maximum(top[a:a + len(power)], power + w, out=top[a:a + len(power)])
        top[top == -np.inf] = 0.0
        total = np.zeros_like(top)
        for a, w in terms:
            total[a:a + len(power)] += np.exp(power + w - top[a:a + len(power)])
        with np.errstate(divide="ignore"):
            power = top + np.log(total)
    return power


def _block_log_power(at: np.ndarray, weights: np.ndarray, M: int) -> np.ndarray | None:
    """_log_power for a base whose offsets run from 0 to A < B = LOG_BLOCK,
    as linear values in blocks of B slots: block b, column b of X, holds its
    slots' values over 2^E_b times the weights' common scale.

    Each step multiplies by the base's c-th power, c = (B - 1) // A (fewer
    when its log weights would span over LOG_BLOCK_RANGE / 2; the base itself
    for the last M mod c): block b becomes T0 X_b + 2^(E_{b-1} - E_b) T1 X_{b-1},
    T0 and T1 the bands of that power's weights scaled by the largest, and is
    rescaled by the power of two of its largest value, exactly.  Before each
    step, the positive values of every block and its left neighbour, with the
    weights, must lie within LOG_BLOCK_RANGE nats of the larger of the two
    blocks' scales: then no product underflows and no positive slot is lost.
    None when that fails, for the caller to run _log_power instead."""
    B, A = LOG_BLOCK, int(at.max())
    span = float(weights.max() - weights.min())
    # a tiny span makes the quotient inf, which min() passes over
    c = max(1, int(min((B - 1) // A, M, LOG_BLOCK_RANGE / 2 / span if span else M)))
    X = np.zeros((B, M * A // B + 1))
    X[0, 0] = 1.0
    E = np.zeros(X.shape[1], dtype=np.int64)
    scale = 0.0  # log of the weights' common scale
    length = 1  # slots of the power so far
    for k, count in ((c, M // c), (1, M % c)):
        if not count:
            continue
        # the two-block band: new slot i takes term a = B + i - j from slot j of
        # [left block, block] (a negative a reads the zero tail of lin); T0 is
        # its right half, T1 the left block's corner
        q = _log_power(at, weights, k)
        top, K = q.max(), k * A
        wspan = top - q[q > -np.inf].min()
        lin = np.zeros(2 * B)
        lin[:K + 1] = np.exp(q - top)
        band = lin[B + np.arange(B)[:, None] - np.arange(2 * B)]
        T0, T1 = band[:, B:], band[:K, B - K:B]
        for _ in range(count):
            old, hi = (length - 1) // B + 1, (length + K - 1) // B + 1
            E[old:hi] = E[old - 1]
            low = E[:hi] + np.log2(np.min(X[:, :hi], axis=0, where=X[:, :hi] > 0, initial=1.0))
            left = np.maximum(np.arange(hi) - 1, 0)
            if (np.maximum(E[:hi], E[left]) - np.minimum(low, low[left])).max() * math.log(2) \
                    + wspan > LOG_BLOCK_RANGE:
                return None
            V = T0 @ X[:, :hi]
            V[:K, 1:] += T1 @ X[B - K:, :hi - 1] * np.ldexp(1.0, E[:hi - 1] - E[1:hi])
            e = np.frexp(V.max(axis=0))[1]
            X[:, :hi] = V * np.ldexp(1.0, -e)
            E[:hi] += e
            length += K
        scale += count * top
    with np.errstate(divide="ignore"):
        return np.log(X.T.ravel()[:length]) + (np.repeat(E, B)[:length] * math.log(2) + scale)


def _packed_power(E: np.ndarray, weights, M: int, packing: tuple, select) -> tuple:
    """Exponent rows and coefficients of the M-th power, one term per nonzero
    slot whose row ``select`` keeps, packed by _packing into one flat
    polynomial (strides: products of the lower columns' slot counts).

    Exact weights run J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
    with the lowest term q_0 t^a factored out, the coefficients of the power
    satisfy k q_0 p_k = sum_j ((M+1) j - k) q_j p_{k-j}, and every division
    is exact.  Log weights of a base in which one column varies, over fewer
    than LOG_BLOCK slots, take the block power (_block_log_power); other
    bases, and a base the block power declines, the M log-domain products of
    _log_power."""
    low, step, spans, width = packing
    spans = np.array(spans)
    strides = np.cumprod(spans) // spans
    at = (E - low) // step @ strides
    if width:
        base = sorted((a, w) for a, w in zip(at.tolist(), weights) if w)
        a0, q0 = base[0]
        terms = [(a - a0, w, (M + 1) * (a - a0) * w) for a, w in base[1:]]
        p = [q0**M] + [0] * (M * (base[-1][0] - a0))
        for k in range(1, len(p)):
            s = 0
            for j, w, c in terms:
                if j > k:
                    break
                q = p[k - j]
                if q:  # skip zero slots
                    s += (c - k * w) * q
            p[k] = s // (k * q0)
        slots = np.flatnonzero([c != 0 for c in p]) + M * a0
        coefs = [c for c in p if c]
    else:
        power = None
        if np.count_nonzero(spans > 1) == 1 and at.max() < LOG_BLOCK:  # one column varies
            power = _block_log_power(at, weights, M)
        if power is None:
            power = _log_power(at, weights, M)
        slots = np.flatnonzero(power > -np.inf)
        coefs = power[slots]
    rows = slots[:, None] // strides % spans * step + M * low
    keep = select(rows)
    return rows[keep], [c for c, k in zip(coefs, keep.tolist()) if k] if width else coefs[keep]


def _expanded_power(E: np.ndarray, weights, M: int, select) -> Iterator[tuple]:
    """Blocks of exponent rows and coefficients of the M-th power by the
    multinomial theorem: one term u @ E per type u of type_array_blocks(M, T)
    whose row ``select`` keeps; only those types' coefficients are built."""
    for U in type_array_blocks(M, len(E), guard=None):
        U = U[select(U @ E)]
        if isinstance(weights, np.ndarray):
            coefs = log_multinomial_rows(U) + U @ weights
        else:
            coefs = [multinomial(u) * math.prod(map(pow, weights, u)) for u in U.tolist()]
        yield U @ E, coefs


def _every_row(rows: np.ndarray) -> np.ndarray:
    return np.ones(len(rows), dtype=bool)


def power_terms(exponents, weights, M: int, *, guard: int | None,
                select=_every_row) -> Iterator[tuple]:
    """Terms of (sum_t w_t y^{E_t})^M, E_t the rows of ``exponents``, in blocks of
    (exponent rows, coefficients): a list of Python ints for Python-int
    weights, a float array of logs for a float array of log weights.  Rows
    may repeat; a caller sums over them.  ``select(rows)`` gives a bool mask
    per block of exponent rows, and only the terms it keeps are returned (the
    expansion builds only their coefficients); by default every term.

    Equal rows are merged first and rows of weight zero (log weight -inf)
    dropped; T rows remain, and T = 0 gives one empty block.  Integer
    exponents (up to 2^31 in size) can be packed (_packing, _packed_power):
    shifted by its minimum and divided by its gcd, column d spans
    0..span_d, so the power fits prod(span_d M + 1) slots, packable while
    that count, an int64 slot index, is below 2^63.  The expansion
    (_expanded_power) goes block by block, in bounded memory.  The side
    needing fewer numbers is built (packed 64-bit words, or types; the
    expansion on a tie); GuardError when both exceed ``guard``, and even
    when ``guard`` is None where both counts reach 2^63 or a row passes
    int64.
    """
    exact = not isinstance(weights, np.ndarray)
    E, group = np.unique(np.asarray(exponents), axis=0, return_inverse=True)
    if exact:
        merged = [0] * len(E)
        for t, w in zip(group.tolist(), weights):
            merged[t] += w
        keep = np.array([w != 0 for w in merged], dtype=bool)
        merged = [w for w in merged if w]
    else:
        merged = np.full(len(E), -np.inf)
        np.logaddexp.at(merged, group, weights)
        keep = merged != -np.inf
        merged = merged[keep]
    E = E[keep]  # a zero weight adds no term, and the recurrence needs none
    if not len(E):
        yield E, merged  # the zero polynomial
        return
    expanded, packed, reach = num_types(M, len(E)), math.inf, M  # reach: an int64 row entry
    if np.all(np.abs(E) <= 2**31) and np.array_equal(E, np.round(E)):  # int64-safe
        E = E.astype(np.int64)
        reach = M * int(np.abs(E).max(initial=1))  # type rows hold M, exponent rows M max|E|
        packing = _packing(E, merged, M)
        slots = math.prod(packing[2])
        if slots < 2**63:  # packable: an int64 indexes every slot
            packed = slots * max(1, -(-packing[3] // 8))
    wide = max(reach, min(packed, expanded)) >= 2**63  # past int64 at any guard
    if wide or guard is not None and min(packed, expanded) > guard:
        words = f"{packed} packed coefficient words or " if packed < math.inf else ""
        limit = "past int64, at any guard" if wide else f"guard {guard}"
        raise GuardError(f"exact sum needs {words}{expanded} types ({limit})")
    if packed < expanded:
        yield _packed_power(E, merged, M, packing, select)
    else:
        yield from _expanded_power(E, merged, M, select)


# ---------------------------------------------------------------------------
# The Gaussian term at a maximizer: one symmetric eigendecomposition.

def fluctuation_root(cov, curvature) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, S, eigenvalues of S) for a covariance M and a curvature B of one
    size: R the PSD root of M (np.linalg.eigh, negative eigenvalues as 0) and
    S = I - R B R, with det S = det(I - B M) and M (I - B M)^{-1} = R S^-1 R.

    ATInstabilityError unless S is positive definite, the test of a maximum:
    an eigenvalue within STABILITY_RTOL times the scale (the largest
    |eigenvalue|, at least 1) of 0 makes S singular, and one below that makes
    the point not a maximum, whatever the sign of the determinant."""
    M, B = np.asarray(cov, dtype=float), np.asarray(curvature, dtype=float)
    if M.ndim != 2 or M.shape != M.T.shape or B.shape != M.shape \
            or not (np.isfinite(M).all() and np.isfinite(B).all()):
        raise ValueError("expected a finite square covariance and a curvature of its size")
    lam, V = np.linalg.eigh(M)
    R = (V * np.sqrt(np.maximum(lam, 0.0))) @ V.T
    S = np.eye(len(M)) - R @ B @ R
    eigs = np.linalg.eigvalsh(S)
    tol = STABILITY_RTOL * float(np.abs(eigs).max(initial=1.0))
    low = float(eigs.min(initial=1.0))
    if low <= tol:
        what = "is singular" if low >= -tol else f"{float(np.prod(eigs)):.6e}: not a maximum"
        raise ATInstabilityError(
            f"fluctuation determinant {what} (smallest eigenvalue {low:.3e} of "
            f"I - R B R, tolerance {tol:.3e})")
    return R, S, eigs


def det(cov, curvature) -> float:
    """det(I - B M) at a maximum, the product of the eigenvalues of S
    (fluctuation_root, which raises where S is not positive definite)."""
    return float(np.prod(fluctuation_root(cov, curvature)[2]))


# ---------------------------------------------------------------------------
# Multi-start fixed-point loop: every start is a row of one (S, K) array,
# so each iteration is a handful of numpy operations for all starts at once.

def dirichlet_starts(K: int, restarts: int, seed: int) -> np.ndarray:
    """Uniform start, then restart k: K Exp(1) draws from the stdlib generator
    random.Random((seed << 32) | k), normalized, a Dirichlet(1) point that
    depends on (seed, k) alone."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rows = [np.full(K, 1.0 / K)]
    for k in range(restarts):
        rng = random.Random((seed << 32) | k)
        draws = np.array([rng.expovariate(1.0) for _ in range(K)])
        rows.append(draws / draws.sum())
    return np.array(rows)


def select_maximizers(points: np.ndarray, objectives) -> list[int]:
    """Indices of the distinct co-maximizers, best first (ties in start order):
    within OBJECTIVE_GAP of the best and more than DEDUP_TOL apart.  Each is
    given as the lowest-index point within DEDUP_TOL of it, so a last-ulp
    objective tie between starts that reached one point does not pick it."""
    obj = np.asarray(objectives, dtype=float)
    order = np.argsort(-obj, kind="stable")
    kept: list[int] = []
    for i in order:
        if obj[order[0]] - obj[i] > OBJECTIVE_GAP:
            break
        if all(float(np.abs(points[i] - points[j]).max()) > DEDUP_TOL for j in kept):
            kept.append(int(i))
    return [int(np.argmax(np.abs(points - points[i]).max(axis=1) <= DEDUP_TOL)) for i in kept]


def require_interior(weights) -> None:
    """The one boundary rule: BoundaryMaximizerError when a weight lies below
    BOUNDARY_TOL, where the Gaussian expansion around a maximizer (its
    constant and its covariances) does not hold."""
    margin = float(np.min(weights))
    if margin < BOUNDARY_TOL:
        raise BoundaryMaximizerError(
            f"maximizer touches the simplex boundary (min weight {margin:.2e}); "
            "the Gaussian expansion needs an interior maximizer"
        )


class MaximizerRecord:
    """Result of a multi-start solve: the co-maximizers, best first, and how
    the solve went.  ``co_maximizers`` is a read-only (m, K) float array, one
    measure per row.  ``diagnostics`` holds exactly ``restarts`` (starts
    run), ``converged`` (starts that stopped) and ``iterations_best``.  The
    fields are plain attributes, in that order in ``vars(record)``."""

    def __init__(self, co_maximizers: np.ndarray, F: float, residual: float,
                 diagnostics: dict):
        self.co_maximizers = co_maximizers
        self.F = F
        self.residual = residual
        self.diagnostics = diagnostics

    @property
    def nu_star(self) -> np.ndarray:
        return self.co_maximizers[0]

    @property
    def unique(self) -> bool:
        return len(self.co_maximizers) == 1

    @property
    def boundary(self) -> bool:
        """Whether a co-maximizer breaks require_interior's rule."""
        return float(np.min(self.co_maximizers)) < BOUNDARY_TOL


def solve_multistart(starts: np.ndarray, fmap, objectives) -> MaximizerRecord:
    """Iterate x <- (1 - DAMPING) x + DAMPING fmap(x) from every start and keep
    the co-maximizers; ``objectives(X)`` gives one value per converged row.

    All starts are rows of one array.  Each iteration takes every running
    start's residual |fmap(x) - x| and applies the damped update; a start
    whose residual was at most FIXED_POINT_TOL stops there, one update past
    the point tested.  Each co-maximizer is the lowest-index converged start
    within DEDUP_TOL of it (select_maximizers); F, the residual
    |fmap(x) - x| and ``iterations_best`` (the updates before the stop) are
    those of the best one.  A start whose map value is not finite (an
    overflow) can never converge, so it is dropped there.  NonConvergenceError
    when no start is left, or, carrying the smallest residual, when no start
    stops within MAX_ITER.
    """
    X = np.array(starts, dtype=float)
    iterations = np.full(len(X), MAX_ITER)
    rows = np.arange(len(X))
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(MAX_ITER):
            current = X[rows]
            target = fmap(current)
            X[rows] = (1.0 - DAMPING) * current + DAMPING * target
            done = np.abs(target - current).max(axis=1) <= FIXED_POINT_TOL
            iterations[rows[done]] = it
            rows = rows[~done & np.isfinite(target).all(axis=1)]
            if not rows.size:
                break
    ok = iterations < MAX_ITER
    if not ok.any():
        if not rows.size:
            raise NonConvergenceError(
                f"the fixed-point map is not finite at any of the {len(X)} starts")
        raise NonConvergenceError(
            f"no restart converged within {MAX_ITER} iterations",
            residual=float(np.abs(fmap(X[rows]) - X[rows]).max(axis=1).min()),
        )
    X, iterations = X[ok], iterations[ok]
    obj = objectives(X)
    kept = select_maximizers(X, obj)
    best = kept[0]
    co_maximizers = X[kept]
    co_maximizers.setflags(write=False)
    return MaximizerRecord(
        co_maximizers=co_maximizers,
        F=float(obj[best]),
        residual=float(np.abs(fmap(X[best:best + 1]) - X[best]).max()),
        diagnostics={
            "restarts": len(starts),
            "converged": len(X),
            "iterations_best": int(iterations[best]),
        },
    )


class CentralApprox(namedtuple("CentralApprox", "F log_constant det_value")):
    """log E[Z] = N F + log_constant + o(1): the growth rate, the log of the
    N-free constant, and det(I - B M) at the best co-maximizer."""
    __slots__ = ()

    def at(self, N: int) -> float:
        return N * self.F + self.log_constant


def central_approx(F: float, fluctuations, lattice_log: float = 0.0) -> CentralApprox:
    """The record for growth rate F and the (M_m, B_m) pairs (covariance and
    curvature) at the co-maximizers, best first: log_constant is lattice_log
    (the model's N-free lattice term) + log sum_m det(I - B_m M_m)^(-1/2).
    ATInstabilityError where a pair is singular or not a maximum; the
    builders of the pairs apply require_interior."""
    dets = [det(cov, curvature) for cov, curvature in fluctuations]
    return CentralApprox(F, lattice_log + logsumexp([-0.5 * math.log(d) for d in dets]),
                         dets[0])
