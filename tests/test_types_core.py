"""Types, multinomials, the local Gaussian approximation, the Gaussian term
det(I - B M), and the multi-start solve."""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.special import logsumexp as scipy_logsumexp

from central_approx import types_core
from central_approx.config import build_dense, build_ensemble, load_config
from central_approx.dense import solve_variational
from central_approx.errors import (
    ATInstabilityError,
    BoundaryMaximizerError,
    GuardError,
    NonConvergenceError,
)
from central_approx.factor_graph import make_ensemble, solve_bethe
from central_approx.types_core import (
    BOUNDARY_TOL,
    STABILITY_RTOL,
    Alphabet,
    CentralApprox,
    MaximizerRecord,
    central_approx,
    det,
    dirichlet_starts,
    entropy,
    enumerate_types,
    fluctuation_root,
    local_approx_log_multinomial,
    log_factorials,
    log_multinomial,
    log_multinomial_rows,
    logsumexp,
    multinomial,
    num_types,
    power_terms,
    require_interior,
    select_maximizers,
    solve_multistart,
    type_array_blocks,
)
from central_approx.types_core import (
    LOG_BLOCK,
    _block_log_power,
    _compositions,
    _every_row,
    _expanded_power,
    _log_power,
    _packed_power,
    _packing,
)

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------- alphabets

def test_alphabet_basicindexing():
    a = Alphabet((-1.0, 1.0))
    assert len(a) == 2
    assert a.index(1) == 1
    assert a.index(-1.0) == 0
    with pytest.raises(ValueError):
        a.index(0.5)


def test_alphabet_is_a_value():
    # a plain class with the value semantics of the frozen record it replaced
    a = Alphabet((0, 1))
    assert a.values == (0.0, 1.0) and a == Alphabet(values=[0.0, 1.0])
    assert hash(a) == hash(Alphabet((0.0, 1.0))) and a != Alphabet((1.0, 0.0))
    assert repr(a) == "Alphabet(values=(0.0, 1.0))"
    for name in ("values", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, (2.0,))


def test_alphabet_rejects_duplicates_and_nonfinite():
    with pytest.raises(ValueError):
        Alphabet((1.0, 1.0))
    with pytest.raises(ValueError):
        Alphabet((0.0, float("inf")))
    with pytest.raises(ValueError):
        Alphabet(())


# ------------------------------------------------------------- multinomials

def test_multinomial_frozen_values():
    # oracle: exact big-integer binomial
    c = math.comb(100, 50)
    assert c == 100891344545564193334812497256
    assert multinomial([50, 50]) == c
    expected = math.log(c)  # 66.78384165201743
    assert expected == pytest.approx(66.78384165201743, rel=1e-14)
    assert log_multinomial([50, 50]) == pytest.approx(expected, rel=1e-12)
    # small exact case
    assert multinomial([1, 2, 3]) == 60
    assert log_multinomial([1, 2, 3]) == pytest.approx(math.log(60), rel=1e-12)
    assert multinomial([0, 0]) == 1
    assert log_multinomial([0, 0]) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=6))
def test_multinomial_paths_agree(counts):
    # exact path and log-gamma path agree to 1e-9 relative in the log
    exact = math.log(multinomial(counts))
    approx = log_multinomial(counts)
    assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))


def test_multinomial_paths_agree_large():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cells = rng.integers(2, 7)
        counts = rng.multinomial(300, np.ones(cells) / cells)
        exact = math.log(multinomial(counts.tolist()))
        assert abs(log_multinomial(counts) - exact) <= 1e-9 * abs(exact)


def test_log_multinomial_rows_matches_scalar():
    V = np.array([[0, 5], [2, 3], [5, 0]])
    rows = log_multinomial_rows(V)
    for row, val in zip(V, rows):
        assert val == pytest.approx(log_multinomial(row), abs=1e-12)
    with pytest.raises(ValueError, match="2-d"):
        log_multinomial(V)  # one count vector, not a stack of them


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 10**4), min_size=1, max_size=5), min_size=1,
                max_size=6).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_log_multinomial_rows_matches_gammaln(rows):
    # scipy is the independent oracle; counts up to 1e4 reach both the table
    # and the per-distinct-count branch of log_factorials
    V = np.array(rows)
    ref = gammaln(V.sum(axis=1) + 1.0) - gammaln(V + 1.0).sum(axis=1)
    got = log_multinomial_rows(V)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("fn", [multinomial, log_multinomial, log_factorials,
                                lambda c: log_multinomial_rows([c])])
def test_counts_must_be_nonnegative_integers(fn):
    # [2.5, 2.5] used to be read as [2, 2]
    with pytest.raises(ValueError, match="integers"):
        fn([2.5, 2.5])
    with pytest.raises(ValueError):
        fn([-1, 6])


@pytest.mark.parametrize("a", [
    [0.5, -1.0, 2.0],
    np.array([[1.0, 2.0], [3.0, -4.0]]),
    [],
    np.array([]),
    [-np.inf, -np.inf],
    [np.inf],
    [np.inf, 1.0, -np.inf],
    [800.0, 799.5, 790.0],
    [-800.0, -801.0, -1e4],
    np.linspace(-800.0, 800.0, 101),
    [3.0],
])
def test_logsumexp_matches_scipy(a):
    ref = float(scipy_logsumexp(a))
    got = logsumexp(a)
    assert isinstance(got, float)
    if math.isfinite(ref):
        assert got == pytest.approx(ref, rel=1e-14, abs=1e-14)
    else:
        assert got == ref


# ------------------------------------------------------------------ entropy

def test_entropy_values():
    assert entropy([1.0]) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), rel=1e-14)
    # oracle: direct evaluation of -sum p log p
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert expected == pytest.approx(0.5623351446188083, rel=1e-14)
    assert entropy(np.array([0.25, 0.75])) == pytest.approx(expected, rel=1e-14)
    # 0 log 0 = 0 convention
    assert entropy([0.0, 1.0]) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=8))
def test_entropy_bounds(raw):
    w = np.array(raw, dtype=float)
    w /= w.sum()
    h = entropy(w)
    assert -1e-12 <= h <= math.log(len(w)) + 1e-12


# ------------------------------------------------- local approximation

def test_local_approx_frozen_center_value():
    # oracle: exact binomial at the center, nu = (1/2, 1/2), v = 0, N = 100
    approx = local_approx_log_multinomial([0.5, 0.5], [0.0, 0.0], 100)
    assert approx == pytest.approx(66.78634161037477, rel=1e-12)
    exact = math.log(math.comb(100, 50))
    relerr = math.exp(approx - exact) - 1.0
    assert relerr == pytest.approx(2.503086e-03, rel=1e-4)  # ~0.25%, positive


def test_local_approx_error_decays_like_1_over_N():
    errs = {}
    for N in (50, 100, 200, 400, 800):
        exact = math.log(math.comb(N, N // 2))
        approx = local_approx_log_multinomial([0.5, 0.5], [0.0, 0.0], N)
        errs[N] = abs(math.exp(approx - exact) - 1.0)
    for N in (50, 100, 200):
        assert errs[4 * N] <= 0.3 * errs[N]


def test_local_approx_gaussian_width():
    # The quadratic coefficient must reproduce the binomial's local CLT
    # width: C(N, N/2 + d) / C(N, N/2) ~ exp(-2 d^2 / N).
    N = 400
    for d in (5, 10, 20):
        v = d / math.sqrt(N)
        exact = math.log(math.comb(N, N // 2 + d))
        approx = local_approx_log_multinomial([0.5, 0.5], [-v, v], N)
        # coefficient 1/2 keeps the defect tiny; coefficient 1 would be off
        # by 2 d^2 / N (0.125 .. 2.0 here)
        assert abs(exact - approx) < 0.05 * (2 * d * d / N)


def test_local_approx_rejects_bad_inputs():
    with pytest.raises(ValueError):
        local_approx_log_multinomial([1.0, 0.0], [0.0, 0.0], 10)
    with pytest.raises(ValueError):
        local_approx_log_multinomial([0.5, 0.5], [0.5, 0.0], 10)  # not balanced


# -------------------------------------------------------------- enumeration

def test_enumerate_types_small_lexicographic():
    got = [tuple(t.tolist()) for t in enumerate_types(2, 2)]
    assert got == [(0, 2), (1, 1), (2, 0)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(1, 4))
def test_enumerate_types_complete_and_sorted(N, cells):
    got = [tuple(t.tolist()) for t in enumerate_types(N, cells)]
    assert len(got) == num_types(N, cells)
    assert len(set(got)) == len(got)
    assert got == sorted(got)
    assert all(sum(g) == N for g in got)


def _stars_and_bars(total, cells):
    """Compositions read off the cells - 1 bar positions among total + cells - 1
    slots, in the order itertools.combinations lists the bars: lexicographic."""
    rows = []
    for bars in itertools.combinations(range(total + cells - 1), cells - 1):
        edges = (-1, *bars, total + cells - 1)
        rows.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    return np.array(rows, dtype=np.int64).reshape(-1, cells)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(0, 30))
def test_compositions_match_stars_and_bars(cells, total):
    assume(num_types(total, cells) <= 20_000)
    got = _compositions(total, cells)
    want = _stars_and_bars(total, cells)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_type_array_blocks_concatenate_to_enumeration(monkeypatch):
    monkeypatch.setattr(types_core, "TYPE_BLOCK_ROWS", 16)
    for cells in (4, 5, 6):
        blocks = list(type_array_blocks(9, cells))
        assert len(blocks) > 1  # actually exercises the splitting path
        assert np.array_equal(np.vstack(blocks), _stars_and_bars(9, cells))


def test_enumeration_guard():
    with pytest.raises(GuardError):
        list(enumerate_types(10**6, 6))
    # override works (use a small case so it stays fast)
    n = sum(1 for _ in enumerate_types(5, 3, guard=None))
    assert n == num_types(5, 3)


# ------------------------------------------------------- polynomial powers

def _grouped(blocks, exact):
    """Coefficient per exponent row, summed over the blocks' repeated rows."""
    terms: dict = {}
    for rows, coefs in blocks:
        for row, c in zip(map(tuple, np.asarray(rows).tolist()), coefs):
            terms.setdefault(row, []).append(c)
    return {row: sum(cs) if exact else float(scipy_logsumexp(cs)) for row, cs in terms.items()}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.data())
def test_packed_and_expanded_powers_agree(M, exact, data):
    # the two halves of power_terms on the same distinct integer rows, with
    # negative entries and, for the first column when drawn, a constant one
    D = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=D, max_size=D),
                              min_size=1, max_size=5))
    E = np.unique(np.array(rows, dtype=np.int64), axis=0)
    if data.draw(st.booleans()):
        E[:, 0] = -2
        E = np.unique(E, axis=0)
    T = len(E)
    if exact:
        weights = data.draw(st.lists(st.integers(1, 5), min_size=T, max_size=T))
    else:
        # log weights up to 800 apart: e^800 overflows, so the log product
        # must shift each slot by its largest term
        scale = data.draw(st.sampled_from([2.0, 800.0]))
        weights = np.array(data.draw(st.lists(st.floats(-scale, scale), min_size=T, max_size=T)))
    packed = _grouped([_packed_power(E, weights, M, _packing(E, weights, M), _every_row)], exact)
    expanded = _grouped(_expanded_power(E, weights, M, _every_row), exact)
    assert packed.keys() == expanded.keys()
    for row, c in expanded.items():
        if exact:
            assert packed[row] == c
        else:
            assert packed[row] == pytest.approx(c, rel=1e-12, abs=1e-12)


def test_power_terms_merges_rows_and_guards_both_sides():
    # (y + y + y^-1)^3 = (2y + 1/y)^3: the two equal rows merge into one term
    blocks = list(power_terms(np.array([[1], [1], [-1]]), [1, 1, 1], 3, guard=4))
    assert _grouped(blocks, True) == {(3,): 8, (1,): 12, (-1,): 6, (-3,): 1}
    logs = _grouped(power_terms(np.array([[1], [1], [-1]]), np.zeros(3), 3, guard=4), False)
    assert logs[(1,)] == pytest.approx(math.log(12), rel=1e-14)
    # 7 packed slots and num_types(3, 3) = 10 types: both above a guard of 6
    with pytest.raises(GuardError):
        list(power_terms(np.array([[0], [1], [2]]), [1, 1, 1], 3, guard=6))
    assert len(list(power_terms(np.array([[0], [1], [2]]), [1, 1, 1], 3, guard=None))) == 1


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "log"])
@pytest.mark.parametrize("rows, M, side", [
    ([[0], [1], [2]], 5, "_packed_power"),  # 11 packed words against 21 types
    ([[0, 0], [1, 3], [2, 1]], 4, "_expanded_power"),  # 117 words against 15 types
])
def test_power_terms_returns_only_the_selected_terms(monkeypatch, exact, rows, M, side):
    # the terms whose first exponent is even, in the order of the whole
    # power, with plain coefficients: a list of ints, or a float array of logs
    E = np.array(rows)
    weights = [3, 1, 2] if exact else np.log([3.0, 1.0, 2.0])
    ran = []
    real = getattr(types_core, side)
    monkeypatch.setattr(types_core, side, lambda *args: ran.append(side) or real(*args))

    def terms(blocks):
        out = []
        for rows, coefs in blocks:
            assert type(coefs) is (list if exact else np.ndarray)
            out += zip(map(tuple, rows.tolist()), coefs)
        return out

    every = terms(power_terms(E, weights, M, guard=None))
    even = terms(power_terms(E, weights, M, guard=None, select=lambda rows: rows[:, 0] % 2 == 0))
    assert even == [(row, c) for row, c in every if row[0] % 2 == 0]
    assert 0 < len(even) < len(every) and ran == [side, side]


def _bignum_power(E, weights, M, packing):
    """The exact packed power as one big integer raised to the M-th power and
    cut back into slots of the packing's width: the recurrence's oracle."""
    low, step, spans, width = packing
    strides = np.cumprod(spans) // spans
    at = (E - low) // step @ strides
    packed = sum(w << (8 * width * a) for a, w in zip(at.tolist(), weights))
    data = (packed**M).to_bytes(int(np.prod(spans)) * width, "little")
    slots = np.flatnonzero(np.frombuffer(data, np.uint8).reshape(-1, width).any(axis=1))
    coefs = [int.from_bytes(data[i * width:(i + 1) * width], "little")
             for i in slots.tolist()]
    return slots[:, None] // strides % spans * step + M * low, coefs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 40), st.data())
def test_recurrence_power_equals_the_bignum_power(D, M, data):
    # distinct integer rows with negative entries and, when drawn, a constant
    # last column; weights 0-50 with at least one nonzero, so the lowest
    # term can be zero and must be skipped
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=D, max_size=D),
                              min_size=1, max_size=5))
    E = np.unique(np.array(rows, dtype=np.int64), axis=0)
    if data.draw(st.booleans()):
        E[:, -1] = -2
        E = np.unique(E, axis=0)
    weights = data.draw(st.lists(st.integers(0, 50), min_size=len(E), max_size=len(E))
                        .filter(any))
    # the oracle builds the whole box: lower M until it has at most 4096 slots
    while M > 1 and math.prod(_packing(E, weights, M)[2]) > 4096:
        M -= 1
    packing = _packing(E, weights, M)
    rows, coefs = _packed_power(E, weights, M, packing, _every_row)
    oracle_rows, oracle_coefs = _bignum_power(E, weights, M, packing)
    assert np.array_equal(rows, oracle_rows)
    assert coefs == oracle_coefs


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "log"])
@pytest.mark.parametrize("M", [1, 2, 5])
def test_zero_weight_rows_add_no_terms(exact, M):
    # rows 0, 2 and 5 add nothing: a zero weight on a row below every other,
    # and two equal rows whose weights cancel (exact) or are log 0
    E = np.array([[-1, 0], [1, 1], [0, 2], [2, 0], [0, 3], [0, 2]])
    kept = [1, 3, 4]
    if exact:
        weights = [0, 3, 5, 1, 2, -5]
    else:
        weights = np.array([-np.inf, 0.5, -np.inf, -1.0, 2.0, -np.inf])
    bare = [weights[i] for i in kept] if exact else weights[kept]
    without = list(power_terms(E[kept], bare, M, guard=None))
    with_zeros = list(power_terms(E, weights, M, guard=None))
    assert len(with_zeros) == len(without)
    for (rows, coefs), (bare_rows, bare_coefs) in zip(with_zeros, without):
        assert np.array_equal(rows, bare_rows)
        assert list(coefs) == list(bare_coefs)
    # every weight zero: the zero polynomial, one empty block
    zeros = [0] * len(E) if exact else np.full(len(E), -np.inf)
    [(rows, coefs)] = power_terms(E, zeros, M, guard=None)
    assert rows.shape == (0, 2) and len(coefs) == 0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, LOG_BLOCK - 1), st.integers(1, 400), st.data())
def test_block_log_power_keeps_the_support_of_the_slot_loop(A, M, data):
    # one-column bases: 2-8 taps at offsets 0..A (divided by their gcd, as
    # packed), log weights spanning 0 to 1500 nats, sometimes with one tap
    # 800+ nats below the rest
    inner = data.draw(st.sets(st.integers(1, A - 1), max_size=6)) if A > 1 else set()
    at = np.array(sorted({0, A} | inner))
    at //= np.gcd.reduce(at)
    span = data.draw(st.sampled_from([0.0, 1.0, 30.0, 300.0, 1500.0]))
    weights = np.array(data.draw(st.lists(st.floats(-span, 0.0), min_size=len(at),
                                          max_size=len(at))))
    if data.draw(st.booleans()):
        weights[data.draw(st.integers(0, len(at) - 1))] = -800.0 - data.draw(
            st.floats(0.0, 700.0))
    loop = _log_power(at, weights, M)
    block = _block_log_power(at, weights, M)
    # a weight below the least normal float, relative to the largest, is lost
    # or rounded in linear form: the block power must decline
    spread = float(weights.max() - weights.min())
    if spread > -math.log(sys.float_info.min):
        assert block is None
    elif spread <= 1.0:  # flat bases stay far inside the range
        assert block is not None
    if block is not None:
        assert np.array_equal(block > -np.inf, loop > -np.inf)
        finite = loop > -np.inf
        # one unit roundoff of the largest log per product
        tol = np.finfo(float).eps * M * (1.0 + np.abs(loop[finite]).max())
        assert np.abs(block[finite] - loop[finite]).max() <= tol
    # through the packing: the block power or, when it declines, the loop's
    # bits, the same whatever power was built before
    E = np.column_stack([at, np.full(len(at), 3)])  # a constant second column
    rows, logs = _packed_power(E, weights, M, _packing(E, weights, M), _every_row)
    assert np.array_equal(rows[:, 0], np.flatnonzero(loop > -np.inf))
    assert logs.tobytes() == (loop if block is None else block)[loop > -np.inf].tobytes()
    _packed_power(E[:2], weights[:2], M + 1, _packing(E[:2], weights[:2], M + 1), _every_row)
    assert _packed_power(E, weights, M, _packing(E, weights, M),
                         _every_row)[1].tobytes() == logs.tobytes()


# ------------------------------------------- the Gaussian term: det(I - B M)

def test_det_known_values():
    assert det(np.eye(3), np.zeros((3, 3))) == 1.0
    assert det(np.diag([1.0, 4.0]), np.diag([0.5, 0.125])) == pytest.approx(0.25, rel=1e-14)
    assert det(np.eye(2), -2.0 * np.eye(2)) == pytest.approx(9.0, rel=1e-14)
    # a rank-one multinomial covariance: det(I - B M) = 1 - b1 - b2
    binary = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert det(binary, np.diag([0.25, 0.5])) == pytest.approx(0.25, rel=1e-14)
    assert det(np.zeros((0, 0)), np.zeros((0, 0))) == 1.0


def test_det_accuracy_moderate_size():
    # M and B share eigenvectors, so det(I - B M) = prod(1 - m b) = prod(d)
    rng = np.random.default_rng(3)
    for n in (5, 20, 80):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = np.exp(rng.uniform(-0.5, 0.5, size=n))
        d = np.exp(rng.uniform(-0.5, 0.5, size=n))
        cov, curvature = (q * m) @ q.T, (q * ((1.0 - d) / m)) @ q.T
        assert det(cov, curvature) == pytest.approx(float(np.prod(d)), rel=1e-11)


def test_det_signals_singularity():
    singular = [
        (np.eye(4), np.eye(4)),  # S = 0
        (np.array([[1.0, -1.0], [-1.0, 1.0]]), np.diag([0.5, 0.5])),  # 1 - b1 - b2 = 0
        (np.ones((3, 3)), np.full((3, 3), 1.0 / 9.0)),  # R B R = the projector on 1
    ]
    for cov, curvature in singular:
        with pytest.raises(ATInstabilityError, match="^fluctuation determinant is singular "):
            det(cov, curvature)
    # with M = I, S = diag(s); one eigenvalue at half / twice STABILITY_RTOL
    # times the scale 4 (1 - (1 - x) is x to about 1e-4 here)
    tiny = STABILITY_RTOL * 4.0
    with pytest.raises(ATInstabilityError, match="is singular"):
        det(np.eye(4), np.eye(4) - np.diag([4.0, 1.0, 0.5 * tiny, 2.0]))
    assert det(np.eye(4), np.eye(4) - np.diag([4.0, 1.0, 2.0 * tiny, 2.0])) == pytest.approx(
        16.0 * tiny, rel=1e-3)


def test_det_takes_one_square_finite_matrix():
    non_finite = np.eye(2)
    non_finite[0, 1] = np.inf
    message = "^expected a finite square covariance and a curvature of its size$"
    for bad in (np.ones((4, 2, 3)), np.ones(3), np.stack([np.eye(2)] * 2), np.ones((2, 3))):
        with pytest.raises(ValueError, match=message):
            det(bad, bad)
    for cov, curvature in ((non_finite, np.eye(2)), (np.eye(2), non_finite),
                           (np.eye(3), np.eye(2)), (np.eye(2), np.ones(2))):
        with pytest.raises(ValueError, match=message):
            det(cov, curvature)


def test_solve_checks_its_inputs():
    # the one solve left is M (I - B M)^-1 = R S^-1 R from fluctuation_root:
    # a mismatched pair, a non-square or a non-finite matrix is refused, and
    # the empty pair gives the empty matrix with determinant 1
    from central_approx.clt import _resolvent_covariance

    with pytest.raises(ValueError):
        _resolvent_covariance(np.eye(3), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        det(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        det([[1.0, np.nan], [0.0, 1.0]], np.zeros((2, 2)))
    assert _resolvent_covariance(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)
    assert det(np.zeros((0, 0)), np.zeros((0, 0))) == 1.0


def _random_pair(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A PSD M = A A^T of a random rank 0..n (so often singular) and a
    symmetric B at a random scale, so that S = I - R B R is positive
    definite in some draws and not in others."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, int(rng.integers(0, n + 1))))
    b = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-1.5, 0.5)
    return a @ a.T, b + b.T


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_det_matches_numpy(n, seed):
    # numpy is the oracle: LAPACK's LU determinant of I - B M and the real
    # parts of its general eigenvalues (real here: B M is similar to R B R on
    # the range of M, and is 0 off it)
    cov, curvature = _random_pair(n, seed)
    middle = np.eye(n) - curvature @ cov
    eigs = np.linalg.eigvals(middle).real
    scale = max(1.0, float(np.abs(eigs).max()))
    low = float(eigs.min())
    assume(abs(low) > 1e-6 * scale)  # clear of the tolerance
    if low < 0:
        with pytest.raises(ATInstabilityError, match="not a maximum"):
            det(cov, curvature)
        return
    assert det(cov, curvature) == pytest.approx(float(np.linalg.det(middle)), rel=1e-9)
    R, S, spectrum = fluctuation_root(cov, curvature)
    assert np.allclose(R @ R, cov, atol=1e-12 * max(1.0, float(np.abs(cov).max())))
    assert np.array_equal(spectrum, np.linalg.eigvalsh(S))
    assert np.prod(spectrum) == det(cov, curvature)


def test_det_product_identity_sylvester():
    # det(I_n - B A A^T) = det(I_m - A^T B A) for rectangular A (n x m): M = A A^T
    # on one side, M = I and the curvature A^T B A on the other; the two S
    # share their eigenvalues apart from ones, so both raise or neither does
    rng = np.random.default_rng(2024)
    worst, refused = 0.0, 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, size=(n, m))
        b = rng.uniform(-0.3, 0.3, size=(n, n))
        b = b + b.T
        try:
            d1 = det(a @ a.T, b)
        except ATInstabilityError:
            refused += 1
            with pytest.raises(ATInstabilityError):
                det(np.eye(m), a.T @ b @ a)
            continue
        d2 = det(np.eye(m), a.T @ b @ a)
        worst = max(worst, abs(d1 - d2) / (1.0 + abs(d1)))
    assert worst <= 1e-9
    assert 100 < refused < 900  # both branches are exercised


def test_central_approx_sums_the_co_maximizers_and_adds_the_lattice_term():
    # det(I - B M) = 1/4 and 1/16: log(2 + 4) plus the lattice term; det_value
    # is the first pair's, and at(N) is N F + log_constant
    pairs = [(np.eye(1), [[0.75]]), (np.eye(2) / 2, np.eye(2) * 1.5)]
    approx = central_approx(0.5, iter(pairs), -math.log(3.0))
    assert approx == pytest.approx((0.5, math.log(2.0), 0.25), rel=1e-14)
    assert approx.at(10) == 10 * 0.5 + approx.log_constant
    assert isinstance(approx, CentralApprox) and approx._fields == ("F", "log_constant",
                                                                   "det_value")
    assert central_approx(0.0, pairs[:1]).log_constant == pytest.approx(math.log(2.0))
    with pytest.raises(ATInstabilityError):
        central_approx(0.0, [(np.eye(1), [[1.0]])])


# ---------------------------------------------- multi-start fixed point

def _pull_to_nearest(targets, sizes):
    """A map that sends each row to the nearest of ``targets`` (by first weight)
    and records how many rows each call saw."""
    def fmap(X):
        sizes.append(len(X))
        return targets[np.abs(X[:, :1] - targets[:, 0]).argmin(axis=1)]
    return fmap


def test_multistart_freezes_each_row_at_its_own_stop(monkeypatch):
    # a start 2^-j from its target halves that distance per update, so with
    # FIXED_POINT_TOL 1e-12 (between 2^-40 and 2^-39) it stops after j - 40
    targets = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
    offsets = 2.0 ** -np.array([40, 38, 30])
    starts = targets + offsets[:, None] * np.array([1.0, -1.0])
    for sign, best, updates in ((1.0, 2, 10), (-1.0, 0, 0)):
        sizes = []
        sol = solve_multistart(starts, _pull_to_nearest(targets, sizes),
                               lambda X: sign * X[:, 0])
        # each row leaves the batch after its own stop; the last call is the residual
        assert sizes == [3, 2, 2] + [1] * 8 + [1]
        assert sol.diagnostics == {"restarts": 3, "converged": 3, "iterations_best": updates}
        # one update past the test: 2^-41 from the target, far beyond OBJECTIVE_GAP
        # from the other two
        assert sol.co_maximizers.tolist() == [
            (targets[best] + 2.0**-41 * np.array([1.0, -1.0])).tolist()]
        assert sol.residual == 2.0**-41
    monkeypatch.setattr(types_core, "MAX_ITER", 3)
    with pytest.raises(NonConvergenceError) as info:
        solve_multistart(starts[2:], _pull_to_nearest(targets, []), lambda X: X[:, 0])
    assert info.value.residual == 2.0**-33


def test_iterations_best_is_the_first_start_at_the_best_point():
    # start 0 ends 2^-41 on one side of the target after 10 updates, start 1
    # 3 * 2^-43 on the other after none; start 1 wins the objective by one
    # ulp, and the point, F, residual and count all stay start 0's
    target = np.array([[0.5, 0.5]])
    starts = target + np.array([[2.0**-30], [-3 * 2.0**-42]]) * np.array([1.0, -1.0])
    objectives = np.array([0.5, np.nextafter(0.5, 1.0)])
    sol = solve_multistart(starts, lambda X: np.repeat(target, len(X), axis=0),
                           lambda X: objectives)
    assert sol.co_maximizers.tolist() == [
        (target[0] + 2.0**-41 * np.array([1.0, -1.0])).tolist()]
    assert sol.F == objectives[0]
    assert sol.residual == 2.0**-41
    assert sol.diagnostics == {"restarts": 2, "converged": 2, "iterations_best": 10}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 20), st.integers(0, 2**40))
def test_dirichlet_starts_are_simplex_points_fixed_by_seed_and_index(K, restarts, seed):
    starts = dirichlet_starts(K, restarts, seed)
    assert starts.shape == (restarts + 1, K)
    assert (starts >= 0).all()
    assert np.abs(starts.sum(axis=1) - 1.0).max() <= 1e-12
    assert starts[0].tolist() == [1.0 / K] * K
    # restart k depends on (seed, k) alone, not on how many restarts follow it
    for fewer in range(restarts):
        assert np.array_equal(dirichlet_starts(K, fewer, seed), starts[:fewer + 1])
    assert np.array_equal(dirichlet_starts(K, restarts, seed), starts)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        dirichlet_starts(K, restarts, -1 - seed)


@pytest.mark.parametrize("solver", ["bethe-parity36", "variational-sk2"])
def test_solvers_return_the_uniform_start_at_every_seed(solver):
    # the uniform start reaches the best point, so the seed of the other 32
    # moves nothing: records bit-identical at seeds 0, 11 and 41
    if solver == "bethe-parity36":
        ens = make_ensemble(3, 6, Alphabet((0.0, 1.0)), "parity")
        records = [solve_bethe(ens, seed=seed) for seed in (0, 11, 41)]
    else:
        spec = build_dense(load_config(str(ROOT / "perfbench" / "inputs" / "sk2.json")))
        records = [solve_variational(spec, seed=seed) for seed in (0, 11, 41)]

    def fields(record):
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in vars(record).items()}

    assert fields(records[0]) == fields(records[1]) == fields(records[2])
    assert records[0].diagnostics["iterations_best"] == 0


def _solve(model: str, seed: int):
    """The solver record of an example model from configs/ or perfbench/inputs/."""
    if model == "ternary22":
        table = f"table:{ROOT}/perfbench/inputs/ternary22.txt"
        return solve_bethe(make_ensemble(2, 2, Alphabet((0.0, 1.0, 2.0)), table), seed=seed)
    if model == "parity36":
        return solve_bethe(build_ensemble(load_config(str(ROOT / "configs" / "parity36.json"))),
                           seed=seed)
    path = ROOT / ("configs" if model == "cw" else "perfbench/inputs") / f"{model}.json"
    return solve_variational(build_dense(load_config(str(path))), seed=seed)


@pytest.mark.parametrize("seed", [0, 7, 41])
@pytest.mark.parametrize("model", ["cw", "sk2", "sk3", "parity36", "ternary22"])
def test_solver_measures_are_read_only_probability_rows(model, seed):
    # a measure is a plain float row: the solvers return them normalized by
    # construction, as the rows of one read-only array
    record = _solve(model, seed)
    rows = record.co_maximizers
    assert rows.ndim == 2 and rows.dtype == np.float64 and len(rows) >= 1
    assert np.isfinite(rows).all() and (rows >= 0).all()
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0.5
    assert not record.nu_star.flags.writeable


def test_selection_dedups_within_the_objective_gap():
    points = np.array([[0.5, 0.5], [0.2, 0.8], [0.5 + 1e-12, 0.5 - 1e-12], [0.0, 1.0]])
    # OBJECTIVE_GAP 1e-9, DEDUP_TOL 1e-8
    assert select_maximizers(points, [1.0, 1.0, 1.0, 0.5]) == [0, 1]
    # ties keep start order
    assert select_maximizers(points, [1.0, 1.0 + 1e-10, 1.0, 1.0]) == [1, 0, 3]


@pytest.mark.parametrize("weight", [0.0, 5e-324, 1e-11, 0.99 * BOUNDARY_TOL])
def test_boundary_rule(weight):
    # one comparison behind both the record's flag and the builders' check
    inside = np.array([[0.5, 0.5], [BOUNDARY_TOL, 1.0 - BOUNDARY_TOL]])
    touching = np.array([weight, 1.0 - weight])
    record = MaximizerRecord(co_maximizers=inside, F=0.0, residual=0.0, diagnostics={})
    assert not record.boundary
    for m in inside:
        require_interior(m)
    record.co_maximizers = np.vstack([inside, touching])
    assert record.boundary
    with pytest.raises(BoundaryMaximizerError, match=r"^maximizer touches the simplex "
                       r"boundary \(min weight [0-9.e+-]+\); the Gaussian expansion"):
        require_interior(touching)
