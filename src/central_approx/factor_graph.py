"""Random (l,r)-regular factor-graph ensembles, exact and asymptotic.

A graph draws its edges as a uniform permutation of the N*l variable stubs
onto the M*r factor stubs, M = N*l/r.  Everything averages cleanly over
that permutation: the expected number of assignments with a given
variable-type v and factor-type u is a ratio of multinomials, so E[Z] is
an exact finite sum, and its sum over u at each v is one coefficient of a
polynomial power.  The growth rate is the Bethe maximum, and the
constant factor combines the variable-type Gaussian, which reads only the
|X| x |X| pair of fg_fluctuation, with an integer step size s: the
consistency constraints confine the factor-type lattice to a sublattice,
and s is its index, computed from the congruence system via Smith normal
form and cross-checked against the prime-field rank and binary gcd
special cases.

Factor functions are arrays over all words in X^r, order significant.
Words are enumerated lexicographically by symbol index; the support is
wherever f is strictly positive.  A table of rationals takes the exact
route: its Fractions are built when first read (``EnsembleSpec.f_exact``),
so ``fractions`` loads only where a rational is built (an exact sum, a
table file, the permutation oracle, the box density), never for a solve.
Its records are a plain class and named tuples, which import nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections import defaultdict, namedtuple
from collections.abc import Iterator
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .errors import GuardError, NonConvergenceError, ValidationFailure
from .types_core import (
    RESTARTS,
    Alphabet,
    CentralApprox,
    MaximizerRecord,
    central_approx,
    dirichlet_starts,
    entropy,
    log_factorials,
    log_multinomial_rows,
    logsumexp,
    power_terms,
    require_interior,
    solve_multistart,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "EnsembleSpec",
    "make_ensemble",
    "PermutationOracleResult",
    "brute_force_permutation_oracle",
    "exact_expected_Z",
    "exact_expected_Z_exact",
    "BetheSolution",
    "solve_bethe",
    "fg_fluctuation",
    "smith_normal_form_divisors",
    "lattice_step_s",
    "step_size_methods",
    "fg_constant_log",
    "fg_asymptotic_estimate",
    "LdpcResult",
    "ldpc_expected_codewords",
    "expected_codewords_at_weight",
]

PERMUTATION_GUARD_STUBS = 8
PERMUTATION_MAX_STUBS = 12
SOCKET_MAP_BLOCK = 256
SOCKET_MAP_MERGE_BLOCKS = 64
TYPE_PAIR_GUARD = 10**7
WORD_TABLE_GUARD = 1 << 20
# columns x l values x l^(rows) states: the residue walk's work, about a
# second for both of its routes at the guard
RESIDUE_WALK_GUARD = 1 << 18
MARGINAL_TOL = 1e-8

BUILTIN_FACTORS = ("parity", "all-equal", "uniform", "table:<path>")


def check_word_table(l: int, r: int, K: int) -> None:
    """Degrees at least 2, and K^r words within WORD_TABLE_GUARD."""
    if l < 2 or r < 2:
        raise ValidationFailure(f"degrees must be at least 2, got l={l}, r={r}")
    # with K >= 2, K^r exceeds the guard once r reaches its bit length; the
    # cap keeps a huge r from building a huge integer
    if K ** min(r, WORD_TABLE_GUARD.bit_length()) > WORD_TABLE_GUARD:
        raise GuardError(f"word table |X|^r = {K}^{r} exceeds the guard ({WORD_TABLE_GUARD})")


class EnsembleSpec:
    """An (l,r)-regular ensemble: degrees, alphabet, and the factor table.

    ``table`` is a sequence of K^r numbers in word order.  ``f_values`` holds
    them as read-only floats and ``log_f`` their logs (-inf off the support),
    computed once for the Bethe map.  ``f_exact``, built on first read, holds
    them as Fractions when every one is a rational (an int, a bool, a numpy
    integer or a Fraction: the exact route), else None (the float route); so
    only code that reads it imports ``fractions``.
    """

    def __init__(self, l: int, r: int, alphabet: Alphabet, table,
                 factor_name: str | None = None):
        K = len(alphabet)
        check_word_table(l, r, K)
        self.l = int(l)
        self.r = int(r)
        self.alphabet = alphabet
        self.words = np.array(
            list(itertools.product(range(K), repeat=r)), dtype=np.int64
        )
        self.letter_counts = np.stack(
            [(self.words == z).sum(axis=1) for z in range(K)], axis=1
        )
        try:
            vals = list(table)
            f = np.array([float(x) for x in vals])
        except (TypeError, ValueError):
            raise ValidationFailure(
                f"factor must be a name or a sequence of {K**r} numbers") from None
        except OverflowError:  # a rational past the float range
            raise ValidationFailure("factor values must be finite and nonnegative") from None
        if f.shape != (K**r,):
            raise ValidationFailure(
                f"factor table needs {K**r} values (|alphabet|^r), got shape {f.shape}"
            )
        if not np.all(np.isfinite(f)) or np.any(f < 0):
            raise ValidationFailure("factor values must be finite and nonnegative")
        if any(vals[i] > 0 for i in np.flatnonzero(f == 0).tolist()):  # below the float range
            raise ValidationFailure("positive factor values must not round to 0.0 as floats")
        if not np.any(f > 0):
            raise ValidationFailure("factor function has empty support")
        f.setflags(write=False)
        self.f_values = f
        with np.errstate(divide="ignore"):
            self.log_f = np.log(f)
        self.log_f.setflags(write=False)
        self._table = vals
        self.factor_name = factor_name
        self.support = np.flatnonzero(f > 0)

    @functools.cached_property
    def f_exact(self) -> tuple | None:
        """The table as Fractions when every value is rational, else None."""
        if not all(isinstance(x, numbers.Rational) for x in self._table):
            return None
        from fractions import Fraction

        return tuple(Fraction(int(x.numerator), int(x.denominator)) for x in self._table)

    @functools.cached_property
    def step_s(self) -> int:
        """The lattice step size, lattice_step_s(self), computed once per ensemble."""
        return lattice_step_s(self)

    @property
    def word_labels(self) -> tuple:
        vals = self.alphabet.values
        return tuple(tuple(vals[i] for i in w) for w in self.words)

    def is_admissible(self, N: int) -> bool:
        return N >= 1 and (N * self.l) % self.r == 0

    def require_admissible(self, N: int) -> None:
        if not self.is_admissible(N):
            raise ValidationFailure(
                f"N={N} is not admissible for (l,r)=({self.l},{self.r}): "
                f"r must divide N*l"
            )

    def num_factors(self, N: int) -> int:
        self.require_admissible(N)
        return N * self.l // self.r

    def __repr__(self) -> str:
        name = self.factor_name or "custom"
        return (f"EnsembleSpec(l={self.l}, r={self.r}, |X|={len(self.alphabet)}, "
                f"factor={name}, |S|={len(self.support)})")


def load_factor_table(path: str, alphabet: Alphabet, r: int) -> list:
    """Read a factor value table: one line per word, word then value.

    Tokens are whitespace-separated; the first r are alphabet symbols, read
    as floats and matched by value ("0", "0.0" and "0e0" all name 0), the
    last is the value.  Values parse as exact rationals when they can
    ("2", "1/3", "0.25") and as floats otherwise, and come back as parsed:
    a table of rationals alone keeps the big-rational paths available.
    Blank lines and #-comments are skipped.  Every word must appear
    exactly once.
    """
    from fractions import Fraction

    K = len(alphabet)
    vals: list = [None] * (K**r)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationFailure(f"cannot read factor table {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != r + 1:
            raise ValidationFailure(
                f"{path}:{lineno}: expected {r} symbols and a value, got {len(tokens)} tokens"
            )
        pos = 0  # the word's place in lexicographic order over symbol indices
        for token in tokens[:r]:
            try:
                pos = pos * K + alphabet.index(float(token))
            except ValueError:
                raise ValidationFailure(f"{path}:{lineno}: unknown symbol {token!r}") from None
        try:
            val = Fraction(tokens[r])
        except (ValueError, ZeroDivisionError):
            try:
                val = float(tokens[r])
            except ValueError:
                raise ValidationFailure(
                    f"{path}:{lineno}: bad value {tokens[r]!r}"
                ) from None
        if vals[pos] is not None:
            raise ValidationFailure(f"{path}:{lineno}: word listed twice")
        vals[pos] = val
    missing = sum(1 for v in vals if v is None)
    if missing:
        raise ValidationFailure(f"{path}: {missing} of {K**r} words missing")
    return vals


def make_ensemble(l: int, r: int, alphabet: Alphabet, factor) -> EnsembleSpec:
    """Build an ensemble from a named factor or a value table.

    Named factors: "parity" (two-letter alphabets, indicator that the
    second symbol appears an even number of times), "all-equal" (indicator
    that all r letters agree), "uniform" (f identically one), and
    "table:<path>" (load_factor_table format); the indicators are int
    tables, so they take the exact route.  A table is a sequence of K^r
    numbers in word order (EnsembleSpec); anything else raises
    ValidationFailure.
    """
    K = len(alphabet)
    check_word_table(l, r, K)  # before any K^r word list is built
    if not isinstance(factor, str):
        return EnsembleSpec(l, r, alphabet, factor)
    if factor.startswith("table:"):
        return EnsembleSpec(l, r, alphabet, load_factor_table(factor[6:], alphabet, r))
    words = np.array(list(itertools.product(range(K), repeat=r)), dtype=np.int64)
    if factor == "parity":
        if K != 2:
            raise ValidationFailure("parity factors need a two-letter alphabet")
        vals = words.sum(axis=1) % 2 == 0
    elif factor == "all-equal":
        vals = np.all(words == words[:, :1], axis=1)
    elif factor == "uniform":
        vals = np.ones(K**r, dtype=bool)
    else:
        raise ValidationFailure(
            f"unknown factor name {factor!r}; built-ins are {BUILTIN_FACTORS}"
        )
    return EnsembleSpec(l, r, alphabet, vals.astype(np.int64), factor)


# --------------------------------------------------------------------------
# brute-force oracle over all edge permutations


PermutationOracleResult = namedtuple(
    "PermutationOracleResult", "expected_Z log_expected_Z type_counts permutations")
PermutationOracleResult.__doc__ = """Exact averages over every edge permutation and
every assignment: E[Z] (a Fraction on an exact table, else a float), its log,
E[N(v,u)] per (variable type, factor type) key, and the (Nl)! permutations."""


def brute_force_permutation_oracle(ensemble: EnsembleSpec, N: int, *,
                                   guard: int | None = PERMUTATION_GUARD_STUBS
                                   ) -> PermutationOracleResult:
    """Average over all (Nl)! stub permutations, exactly.

    A permutation reaches the tally only through its socket map, the
    variable that owns the stub sent to each factor socket.  Permuting a
    variable's own l stubs among themselves leaves that map unchanged, so
    each of the (Nl)!/(l!)^N distinct maps comes from exactly (l!)^N
    permutations, and the average over maps is the average over
    permutations.  The oracle walks the maps (_socket_maps), not the
    permutations.  For each map and each of the |X|^N assignments, it reads
    off the variable- and factor-type and tallies them; E[N(v,u)] is the
    tally divided by the number of maps, and E[Z] follows by weighting each
    pair with the factor values.  Maps are tallied SOCKET_MAP_BLOCK at a
    time: each (assignment, map) row packs its variable-type index and its
    sorted factor words into one int64 key, base W = |X|^r, and np.unique
    counts the keys.  Block tallies are merged every SOCKET_MAP_MERGE_BLOCKS
    blocks, so memory stays flat however many maps run.  Feasible only for a
    handful of stubs: ``guard`` caps N*l, at 8 by default, and no guard
    (``None`` included) lifts the cap past PERMUTATION_MAX_STUBS = 12.  Key
    spaces past int64 are refused too.  ``permutations`` is the (Nl)! that
    the average stands for.
    """
    from fractions import Fraction

    l = ensemble.l
    stubs = N * l
    M = ensemble.num_factors(N)
    limit = PERMUTATION_MAX_STUBS if guard is None else min(guard, PERMUTATION_MAX_STUBS)
    if stubs > limit:
        raise GuardError(
            f"permutation oracle needs (N*l)! enumeration; N*l={stubs} exceeds {limit}"
        )
    K = len(ensemble.alphabet)
    r = ensemble.r
    W = K**r
    # one key per (variable type, sorted words); checked before the K^N
    # assignments are built, from the number of variable types
    if math.comb(N + K - 1, K - 1) * W**M >= 2**63:
        raise GuardError(
            f"permutation oracle keys (|X|^r)^M = {W}^{M} per variable type overflow int64"
        )
    assigns = np.array(list(itertools.product(range(K), repeat=N)), dtype=np.int64)
    v_types, v_idx = np.unique((assigns[:, :, None] == np.arange(K)).sum(axis=1),
                               axis=0, return_inverse=True)
    radix = K ** np.arange(r - 1, -1, -1)
    place = W ** np.arange(M - 1, -1, -1)
    v_base = v_idx.reshape(-1, 1) * W**M

    maps = _socket_maps(N, l)
    tallies = []
    while True:
        block = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(maps, SOCKET_MAP_BLOCK)), np.int64
        )
        if not block.size:
            break
        words = assigns[:, block.reshape(-1, stubs)].reshape(len(assigns), -1, M, r) @ radix
        words.sort(axis=2)
        tallies.append(np.unique(v_base + words @ place, return_counts=True))
        if len(tallies) == SOCKET_MAP_MERGE_BLOCKS:
            tallies = [_merge_tallies(tallies)]
    keys, counts = _merge_tallies(tallies)

    v_at, packed = np.divmod(keys, W**M)
    u = np.zeros((len(keys), W), dtype=np.int64)
    np.add.at(u, (np.arange(len(keys))[:, None], packed[:, None] // place % W), 1)
    nmaps = math.factorial(stubs) // math.factorial(l) ** N
    v_list = v_types.tolist()
    type_counts = {
        (tuple(v_list[i]), tuple(u_row)): Fraction(count, nmaps)
        for i, u_row, count in zip(v_at.tolist(), u.tolist(), counts.tolist())
    }

    f = ensemble.f_values if ensemble.f_exact is None else ensemble.f_exact
    terms = [math.prod((f[w] ** c for w, c in enumerate(u_key) if c), start=weight)
             for (_, u_key), weight in type_counts.items()]
    if ensemble.f_exact is not None:
        ez = sum(terms, Fraction(0))
        logez = _log_fraction(ez)
    else:
        ez = math.fsum(terms)
        logez = math.log(ez) if ez > 0 else -math.inf
    return PermutationOracleResult(ez, logez, type_counts, math.factorial(stubs))


def _socket_maps(N: int, l: int) -> Iterator[tuple[int, ...]]:
    """Each sequence of N*l socket owners in which every variable 0..N-1
    appears l times, once, in lexicographic order: the distinct values of
    (arange(N*l) // l)[perm] over the stub permutations perm.  Successive
    maps come from the next-permutation step on a multiset (Knuth's
    Algorithm L), which never repeats a map."""
    owners = [v for v in range(N) for _ in range(l)]
    while True:
        yield tuple(owners)
        i = len(owners) - 2
        while i >= 0 and owners[i] >= owners[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(owners) - 1
        while owners[j] <= owners[i]:
            j -= 1
        owners[i], owners[j] = owners[j], owners[i]
        owners[i + 1:] = owners[:i:-1]


def _merge_tallies(tallies: list) -> tuple[np.ndarray, np.ndarray]:
    """Sum (keys, counts) pairs into one pair with unique, sorted keys."""
    keys, inverse = np.unique(np.concatenate([k for k, _ in tallies]), return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse, np.concatenate([c for _, c in tallies]))
    return keys, counts


def _log_fraction(x: Fraction) -> float:
    if x == 0:
        return -math.inf
    return math.log(x.numerator) - math.log(x.denominator)


# --------------------------------------------------------------------------
# exact E[Z]: one generating-function contraction over the variable types
#
# At a fixed variable type v, the sum over consistent factor types is one
# coefficient, [y^{l v}] (sum_{w in S} f(w) y^{N(w)})^M, with N(w) the letter
# counts of w (letter 0 implied).  types_core.power_terms builds the power's
# terms at the rows l v alone.


def _type_sum(ensemble: EnsembleSpec, N: int, exact: bool, guard: int | None,
              only: tuple | None = None) -> Fraction | float:
    """E[Z] summed over every variable type or just `only`; its log unless exact.
    Exact arithmetic runs on the table scaled to integers by its LCD D."""
    l = ensemble.l
    M = ensemble.num_factors(N)
    S = ensemble.support
    if exact:
        vals = [ensemble.f_exact[w] for w in S]
        D = math.lcm(*(x.denominator for x in vals))
        weights = [x.numerator * (D // x.denominator) for x in vals]
    else:
        weights = ensemble.log_f[S]

    def lattice(rows):  # the rows l v, or only the row l * only
        return ~np.any(rows % l if only is None else rows - l * np.asarray(only[1:]), axis=1)

    Vs, coefs = [], []
    for rows, coef in power_terms(ensemble.letter_counts[S, 1:], weights, M, guard=guard,
                                  select=lattice):
        V = rows // l
        Vs.append(np.column_stack([N - V.sum(axis=1), V]))
        coefs += coef if exact else [coef]
    V = np.concatenate(Vs)
    if exact:
        # multinomial(v) prod (l v_z)! / (Nl)! = prod ratio[v_z] / ratio[N]
        from fractions import Fraction

        ratio = [1]  # ratio[x] = (l x)! / x!
        for x in range(1, N + 1):
            ratio.append(ratio[-1] * math.prod(range(l * x - l + 1, l * x + 1)) // x)
        total = sum(c * math.prod(ratio[x] for x in v) for v, c in zip(V.tolist(), coefs))
        return Fraction(total, ratio[N] * D**M)
    terms = np.concatenate(coefs) + log_multinomial_rows(V) + log_factorials(l * V).sum(axis=1)
    return logsumexp(terms - math.lgamma(N * l + 1))


def exact_expected_Z(ensemble: EnsembleSpec, N: int, *,
                     guard: int | None = TYPE_PAIR_GUARD) -> float:
    """log E[Z] by one generating-function contraction over variable types.

    At each variable type, the sum over factor types is one coefficient of
    a polynomial power, packed into a flat array or, on sparse supports,
    expanded over the factor types (types_core.power_terms).  Rational
    tables are summed exactly, float tables in the log domain.  GuardError
    when both the packed array (64-bit words) and the type count exceed
    `guard`; `guard=None` lifts it.
    """
    if ensemble.f_exact is not None:
        return _log_fraction(_type_sum(ensemble, N, True, guard))
    return _type_sum(ensemble, N, False, guard)


def exact_expected_Z_exact(ensemble: EnsembleSpec, N: int, *,
                           guard: int | None = TYPE_PAIR_GUARD) -> Fraction:
    """E[Z] as an exact rational, for any alphabet; needs an exact factor table.

    Same contraction as exact_expected_Z, in integer arithmetic on the
    table scaled by its common denominator; same guard.
    """
    if ensemble.f_exact is None:
        raise ValidationFailure(
            "exact arithmetic needs an exact factor table (integer or rational values)"
        )
    return _type_sum(ensemble, N, True, guard)


# --------------------------------------------------------------------------
# Bethe maximization


class BetheSolution(MaximizerRecord):
    """The Bethe maximum: the shared record over letter marginals, plus the
    maximizing word measure of each co-maximizer, as the rows of one
    read-only array."""

    def __init__(self, co_maximizers: np.ndarray, F: float, residual: float,
                 diagnostics: dict, word_measures: np.ndarray):
        super().__init__(co_maximizers, F, residual, diagnostics)
        self.word_measures = word_measures

    @property
    def mu_star(self) -> np.ndarray:
        return self.word_measures[0]


def _bethe_mu(ensemble: EnsembleSpec, nu: np.ndarray) -> np.ndarray:
    """Maximizing word measure for a fixed letter marginal (one per row of nu),
    mu(x) ∝ f(x) prod_z nu(z)^((l-1) N_z(x)/l); summed letter by letter, not
    by a matrix product, so that a row rounds the same whatever else shares
    its batch."""
    loggain = (ensemble.l - 1) / ensemble.l * np.log(np.clip(nu, 1e-300, None))
    expo = ensemble.log_f + sum(loggain[..., z, None] * counts
                                for z, counts in enumerate(ensemble.letter_counts.T))
    e = np.exp(expo - expo.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _bethe_marginal(ensemble: EnsembleSpec, mu: np.ndarray) -> np.ndarray:
    """Letter marginal of word measures, each row on its own as in _bethe_mu."""
    return np.stack([(mu * counts).sum(axis=-1) for counts in ensemble.letter_counts.T],
                    axis=-1) / ensemble.r


def _bethe_objective(ensemble: EnsembleSpec, nu: np.ndarray, mu: np.ndarray) -> float:
    lr = ensemble.l / ensemble.r
    on = mu > 0
    flog = float(mu[on] @ ensemble.log_f[on])
    return float(lr * (entropy(mu) + flog) - (ensemble.l - 1) * entropy(nu))


def solve_bethe(ensemble: EnsembleSpec, *, seed: int = 0) -> BetheSolution:
    """Damped fixed-point iteration for the Bethe maximum, multi-started.

    Iterates nu <- marginal(mu(nu)) where mu(nu) is the entropy-maximizing
    word measure with letter gain nu^((l-1)/l); stationary points of the
    iteration are exactly the stationary points of the constrained
    maximization.  A field theta on letter z is the factor table tilted to
    f(x) e^(theta N_z(x)/l).
    """
    K = len(ensemble.alphabet)

    def objectives(nus):
        return [_bethe_objective(ensemble, nu, mu)
                for nu, mu in zip(nus, _bethe_mu(ensemble, nus))]

    record = solve_multistart(
        dirichlet_starts(K, RESTARTS, seed),
        lambda nus: _bethe_marginal(ensemble, _bethe_mu(ensemble, nus)),
        objectives,
    )
    mus = _bethe_mu(ensemble, record.co_maximizers)
    mus.setflags(write=False)
    return BetheSolution(**vars(record), word_measures=mus)


# --------------------------------------------------------------------------
# fluctuation matrices and the constant factor


def fg_fluctuation(ensemble: EnsembleSpec, mu_star, nu_star) -> tuple[np.ndarray, np.ndarray]:
    """(V' - V, C) at a marginal-consistent pair (mu*, nu*): the bare
    variable-type covariance K^T diag(mu*) K - nu* nu*^T, with K the
    per-word letter frequencies N_z(x)/r, and the diagonal variable-entropy
    curvature r(l-1)/(l nu*), both |X| x |X|; nothing |X|^r x |X|^r is built.
    BoundaryMaximizerError at a boundary nu* (require_interior),
    ValidationFailure when the marginal of mu* is more than MARGINAL_TOL
    from nu*."""
    mu = np.asarray(mu_star, dtype=float)
    nu = np.asarray(nu_star, dtype=float)
    require_interior(nu)
    curvature = ensemble.r * (ensemble.l - 1) / (ensemble.l * nu)
    marg = _bethe_marginal(ensemble, mu)
    if np.max(np.abs(marg - nu)) > MARGINAL_TOL:
        raise ValidationFailure(
            "mu and nu are not marginal-consistent "
            f"(max gap {np.max(np.abs(marg - nu)):.2e})"
        )
    Kf = ensemble.letter_counts / ensemble.r
    return Kf.T @ (mu[:, None] * Kf) - np.outer(nu, nu), np.diag(curvature)


# --------------------------------------------------------------------------
# the lattice step size s


def smith_normal_form_divisors(A) -> list[int]:
    """Elementary divisors of an integer matrix, d1 | d2 | ..., zeros last."""
    M = [[int(x) for x in row] for row in np.atleast_2d(np.asarray(A, dtype=object))]
    m = len(M)
    n = len(M[0]) if m else 0
    size = min(m, n)
    divisors = []
    t = 0
    while t < size:
        # locate the smallest nonzero entry in the trailing block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] and (pivot is None or abs(M[i][j]) < abs(M[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        M[t], M[pi] = M[pi], M[t]
        for row in M:
            row[t], row[pj] = row[pj], row[t]
        p = M[t][t]
        dirty = False
        for i in range(t + 1, m):
            q = M[i][t] // p
            if q:
                for j in range(t, n):
                    M[i][j] -= q * M[t][j]
            if M[i][t]:
                dirty = True
        for j in range(t + 1, n):
            q = M[t][j] // p
            if q:
                for i in range(t, m):
                    M[i][j] -= q * M[i][t]
            if M[t][j]:
                dirty = True
        if dirty:
            continue  # remainders became new, smaller pivot candidates
        # pivot must divide the whole trailing block for the divisor chain
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if M[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, n):
                M[t][j] += M[offender][j]
            continue
        divisors.append(abs(p))
        t += 1
    divisors += [0] * (size - len(divisors))
    return divisors


def _step_matrix(ensemble: EnsembleSpec) -> np.ndarray:
    """Coefficient matrix of the congruences: rows letters 1..K-1, columns
    the letter-count shifts of the other support words from the first."""
    counts = ensemble.letter_counts[ensemble.support, 1:]
    return (counts[1:] - counts[0]).T


def _rank_mod_prime(A: np.ndarray, p: int) -> int:
    M = (np.array(A, dtype=np.int64) % p).tolist()
    m = len(M)
    n = len(M[0]) if m else 0
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if M[i][col] % p), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = pow(M[rank][col], -1, p)
        M[rank] = [(x * inv) % p for x in M[rank]]
        for i in range(m):
            if i != rank and M[i][col]:
                c = M[i][col]
                M[i] = [(a - c * b) % p for a, b in zip(M[i], M[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def _residue_sum(A: np.ndarray, l: int, weight) -> int:
    """Sum over eps in (Z/l)^n with A eps = 0 (mod l) of prod_j weight[eps_j],
    by column DP over the residue vectors of the rows: GuardError past
    RESIDUE_WALK_GUARD steps (columns x l values x l^rows states)."""
    m, n = A.shape
    # with l >= 2, l^m exceeds the guard once m reaches its bit length
    if n * l * l ** min(m, RESIDUE_WALK_GUARD.bit_length()) > RESIDUE_WALK_GUARD:
        raise GuardError(f"residue walk of {n} columns x {l} values x {l}^{m} states "
                         f"exceeds the guard ({RESIDUE_WALK_GUARD})")
    states = {(0,) * m: 1}
    for j in range(n):
        col = [int(x) % l for x in A[:, j]]
        new: dict = defaultdict(int)
        for state, cnt in states.items():
            for val in range(l):
                if weight[val]:
                    key = tuple((state[i] + col[i] * val) % l for i in range(m))
                    new[key] += cnt * weight[val]
        states = dict(new)
    return states.get((0,) * m, 0)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(math.isqrt(p)) + 1))


def step_size_methods(ensemble: EnsembleSpec) -> dict:
    """All available routes to the step size s, for cross-validation.

    Always: "snf" (Smith normal form of the congruence matrix) and
    "residue_count" (exact count of solutions modulo l).  When l is prime:
    "prime_rank" = l^rank over the field.  For two-letter alphabets:
    "binary_gcd" = l / gcd(differences, l).  When l is odd:
    "box_density", the exact fraction of solutions in the integer box
    [-L, L]^n with L = (3l - 1)/2; its width 2L + 1 = 3l covers every
    residue class evenly, so it equals 1/s exactly.
    """
    A = _step_matrix(ensemble)
    l = ensemble.l
    out: dict = {"snf": lattice_step_s(ensemble)}
    kernel = _residue_sum(A, l, [1] * l)
    n = A.shape[1]
    total = l**n
    if kernel == 0 or total % kernel:
        raise NonConvergenceError("residue kernel count is inconsistent")
    out["residue_count"] = total // kernel
    if _is_prime(l):
        out["prime_rank"] = l ** _rank_mod_prime(A, l)
    if len(ensemble.alphabet) == 2:
        g = l
        for x in A[0] if A.size else []:
            g = math.gcd(g, int(x))
        out["binary_gcd"] = l // g
    if l % 2:
        L = (3 * l - 1) // 2
        in_box = [0] * l  # points of [-L, L] in each residue class
        for e in range(-L, L + 1):
            in_box[e % l] += 1
        from fractions import Fraction

        out["box_density"] = Fraction(_residue_sum(A, l, in_box), (2 * L + 1) ** n)
    return out


def lattice_step_s(ensemble: EnsembleSpec) -> int:
    """Step size s: the index of the consistency sublattice.

    The factor-type fluctuations can only move on the sublattice where
    every letter-balance shift is a multiple of l; s is the index of that
    sublattice, the size of the image of the congruence map, read off its
    Smith normal form.  step_size_methods cross-checks it by other routes.
    """
    l = ensemble.l
    A = _step_matrix(ensemble)
    return math.prod(l // math.gcd(d, l) for d in smith_normal_form_divisors(A))


# --------------------------------------------------------------------------
# asymptotic estimate and the LDPC application


def fg_constant_log(ensemble: EnsembleSpec, solution: BetheSolution) -> CentralApprox:
    """The central approximation at the Bethe maximum (types_core.central_approx):
    F, and the log of the N-free constant, the lattice factor l^((K-1)/2) / s
    (its log is ``lattice_log``) times the sum over the co-maximizers of
    det(I - C(V'-V))^(-1/2).  The name is older than the record, which it now
    returns: perfbench/traced.py times this function by name, so renaming it
    is a benchmark change."""
    return central_approx(
        solution.F,
        (fg_fluctuation(ensemble, mu, nu)
         for mu, nu in zip(solution.word_measures, solution.co_maximizers)),
        0.5 * (len(ensemble.alphabet) - 1) * math.log(ensemble.l) - math.log(ensemble.step_s))


def fg_asymptotic_estimate(ensemble: EnsembleSpec, N: int,
                           solution: BetheSolution | None = None) -> float:
    """log E[Z] up to (1+o(1)): the record's at(N), solving if no solution is given."""
    ensemble.require_admissible(N)
    return fg_constant_log(ensemble, solution or solve_bethe(ensemble)).at(N)


LdpcResult = namedtuple("LdpcResult",
                        "N omega log_expected_count growth_rate log_constant theta",
                        defaults=(0.0,))
LdpcResult.__doc__ = """Expected-codeword asymptotics: count, growth rate, constant,
and the field theta on letter 1 (0 unless a weight fraction omega is fixed)."""


def expected_codewords_at_weight(l: int, r: int, N: int, w: int, *,
                                 guard: int | None = TYPE_PAIR_GUARD) -> Fraction:
    """Exact expected number of weight-w codewords of the (l,r) ensemble, guarded as E[Z]."""
    ens = make_ensemble(l, r, Alphabet((0.0, 1.0)), "parity")
    ens.require_admissible(N)
    if not 0 <= w <= N:
        raise ValidationFailure(f"weight {w} outside 0..{N}")
    return _type_sum(ens, N, True, guard, only=(N - w, w))


def _weight_tilt(ensemble: EnsembleSpec, omega: float) -> tuple[float, np.ndarray]:
    """(lam, mu): the maximizer of H(mu) + <log f>_mu over word measures on a
    binary alphabet with letter marginal (1 - omega, omega) is
    mu(x) ∝ f(x) e^(lam N_1(x)).  Its mean N_1/r rises with lam, so one
    bisection over the support finds lam to machine precision; omega must
    lie strictly inside the range of N_1/r there."""
    on = ensemble.support
    logf, ones = ensemble.log_f[on], ensemble.letter_counts[on, 1]

    def measure(lam: float) -> np.ndarray:
        expo = logf + lam * ones
        e = np.exp(expo - expo.max())
        return e / e.sum()

    def mean(lam: float) -> float:
        return float(measure(lam) @ ones) / ensemble.r

    lo, hi = -1.0, 1.0
    while mean(lo) > omega:
        lo *= 2.0
    while mean(hi) < omega:
        hi *= 2.0
    while hi - lo > 4.0 * math.ulp(max(1.0, -lo, hi)):
        mid = 0.5 * (lo + hi)
        if mean(mid) < omega:
            lo = mid
        else:
            hi = mid
    mu = np.zeros(len(ensemble.f_values))
    mu[on] = measure(hi)
    return hi, mu


def ldpc_expected_codewords(l: int, r: int, N: int, omega: float | None = None) -> LdpcResult:
    """Expected codeword count of the random (l,r) LDPC ensemble.

    With omega = None, counts all codewords: growth rate F from the Bethe
    maximum and the constant from the fluctuation determinant and step
    size.  A weight fraction omega fixes the letter marginal
    nu = (1 - omega, omega), so no Bethe iteration runs: the growth rate is
    the Bethe objective at (mu, nu) with mu from _weight_tilt, and
    theta = l lam - (l-1) log(omega/(1-omega)) is the field on letter 1
    that makes nu stationary.  The constant is the theta-tilted ensemble's
    total-count constant at (mu, nu), ATInstabilityError where (mu, nu) is
    not a maximum of that ensemble (types_core.fluctuation_root; omega <= 0.15
    on (3,6)); the weight-localization normalization of a local limit is not
    included.

    omega = 0 is handled exactly: the all-zeros word is always the unique
    weight-0 codeword.  Weights outside the support range have expected
    count zero.
    """
    ens = make_ensemble(l, r, Alphabet((0.0, 1.0)), "parity")
    ens.require_admissible(N)
    if omega is None:
        approx = fg_constant_log(ens, solve_bethe(ens))
        return LdpcResult(N, None, approx.at(N), approx.F, approx.log_constant)
    if not 0.0 <= omega <= 1.0:
        raise ValidationFailure(f"weight fraction must lie in [0, 1], got {omega:g}")
    omega_max = float(np.max(ens.letter_counts[ens.support, 1])) / r
    if omega == 0.0:
        return LdpcResult(N, 0.0, 0.0, 0.0, 0.0)
    if omega > omega_max:
        return LdpcResult(N, omega, -math.inf, -math.inf, 0.0)
    if omega == omega_max:
        if r % 2 == 0:
            # the all-ones assignment: every factor sees an even word
            return LdpcResult(N, omega, 0.0, 0.0, 0.0)
        raise ValidationFailure(
            f"weight fraction {omega:g} sits on the support boundary; "
            "use expected_codewords_at_weight for exact counts there"
        )
    lam, mu = _weight_tilt(ens, omega)
    nu = np.array([1.0 - omega, omega])
    growth = _bethe_objective(ens, nu, mu)
    theta = l * lam - (l - 1) * math.log(omega / (1.0 - omega))
    # the one pair and its growth rate, all that fg_constant_log reads
    approx = fg_constant_log(ens, SimpleNamespace(F=growth, co_maximizers=[nu],
                                                  word_measures=[mu]))
    return LdpcResult(N, omega, approx.at(N), approx.F, approx.log_constant, theta)
