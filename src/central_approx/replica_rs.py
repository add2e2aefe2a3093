"""Replica-symmetric closed forms on the two-letter spin alphabet.

With x in {+1,-1} the diagonal products x^(a)x^(a) are identically one, so
the curvature matrices reduce to the n(n-1)/2 unordered replica pairs
(a,b), a < b.  On the RS assumption both factors of the fluctuation
determinant take the same three-parameter pattern form: the entry depends
only on how many indices the two pairs share.  Such matrices commute and
share eigenspaces, which collapses the determinant to a product of three
scalar factors and gives the n -> 0 finite-size correction in closed form.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import InstabilityError, ValidationFailure

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RSParams",
    "build_pqr_matrix",
    "pqr_eigenvalues",
    "rs_moment_patterns",
    "rs_determinant",
    "rs_correction_n0",
    "sk_paramagnetic_correction",
]


def build_pqr_matrix(n: int, P: float, Q: float, R: float) -> np.ndarray:
    """Pattern matrix on replica pairs: entry P, Q or R by shared index count.

    Rows and columns are indexed by the unordered replica pairs (a,b),
    a < b, in lexicographic order.  The entry is P when the two pairs
    coincide, Q when they share exactly one replica and R when they are
    disjoint.  n = 2 is allowed and gives the 1x1 matrix [[P]]; the Q and
    R patterns first occur at n = 3 and n = 4.
    """
    import numpy as np  # numpy is loaded only where a pair matrix is built

    if n < 2:
        raise ValueError(f"need at least two replicas, got n={n}")
    return np.array((R, Q, P), dtype=float)[_shared_index_counts(n)]


@functools.lru_cache(maxsize=16)
def _shared_index_counts(n: int) -> np.ndarray:
    """How many replica indices each two pairs share (0, 1 or 2), read-only,
    built once per n."""
    import numpy as np

    a, b = np.triu_indices(n, 1)  # the pairs (a,b), a < b, in lexicographic order
    # a < b and c < d, so each index of (a, b) matches at most one of (c, d)
    shared = sum(x[:, None] == y[None, :] for x in (a, b) for y in (a, b))
    shared.flags.writeable = False
    return shared


def pqr_eigenvalues(n: int, P: float, Q: float, R: float) -> list[tuple[float, int]]:
    """Eigenvalues of build_pqr_matrix(n, P, Q, R) with multiplicities.

    The eigenspaces do not depend on (P, Q, R); only the three eigenvalues
    do.  Multiplicities are 1, n-1 and n(n-3)/2, the latter two dropping
    out at n = 2 and n = 3 where the corresponding patterns are degenerate.
    """
    if n < 2:
        raise ValueError(f"need at least two replicas, got n={n}")
    if n == 2:
        return [(P, 1)]
    out = [
        (P + 2 * (n - 2) * Q + (n - 2) * (n - 3) / 2 * R, 1),
        (P + (n - 4) * Q - (n - 3) * R, n - 1),
    ]
    m3 = n * (n - 3) // 2
    if m3 > 0:
        out.append((P - 2 * Q + R, m3))
    return out


def rs_moment_patterns(q: float, r: float) -> tuple[float, float, float]:
    """Pattern parameters of the centered pair-moment matrix under RS.

    q is the two-replica moment <x^(a) x^(b)> and r the four-replica
    moment with all indices distinct.  The centered second moment of the
    pair products then depends only on the shared-index count:
    1 - q^2 on the diagonal, q(1 - q) for one shared replica, r - q^2
    for disjoint pairs.
    """
    return 1.0 - q * q, q * (1.0 - q), r - q * q


def rs_determinant(n: int, q: float, r: float, P: float, Q: float, R: float) -> float:
    """det(I - A_g A_u) for the RS pattern pair, as a three-factor product.

    A_g is the curvature pattern (P, Q, R) and A_u the centered moment
    pattern from rs_moment_patterns(q, r).  The two matrices share
    eigenspaces, so the determinant is the product of (1 - lam_g * lam_u)
    over the paired eigenvalues, with the pattern multiplicities.
    """
    Pu, Qu, Ru = rs_moment_patterns(q, r)
    g_eigs = pqr_eigenvalues(n, P, Q, R)
    u_eigs = pqr_eigenvalues(n, Pu, Qu, Ru)
    out = 1.0
    for (lg, mult), (lu, _) in zip(g_eigs, u_eigs):
        out *= (1.0 - lg * lu) ** mult
    return out


def rs_correction_n0(N: int, q: float, r: float, P: float, Q: float, R: float) -> float:
    """Finite-size correction of the RS free energy at the replica limit.

    Returns
        -(1/(2N)) [ log(1 - (1-4q+3r)(P-4Q+3R))
                    - (3/2) log(1 - (1-2q+r)(P-2Q+R)) ]

    which is the n -> 0 value of (1/(nN)) log det(...)^{-1/2} for the
    three-factor determinant above.  Both log arguments must be positive;
    a non-positive one means the RS fluctuations are unstable and the
    correction is undefined.
    """
    if N < 1:
        raise ValidationFailure(f"need N >= 1, got N={N}")
    arg1 = 1.0 - (1.0 - 4.0 * q + 3.0 * r) * (P - 4.0 * Q + 3.0 * R)
    arg2 = 1.0 - (1.0 - 2.0 * q + r) * (P - 2.0 * Q + R)
    if arg1 <= 0.0 or arg2 <= 0.0:
        raise InstabilityError(
            f"RS correction undefined (instability): log arguments {arg1:.6g}, {arg2:.6g}"
        )
    return -(math.log(arg1) - 1.5 * math.log(arg2)) / (2.0 * N)


def sk_paramagnetic_correction(beta: float, N: int) -> float:
    """SK-model finite-size correction (1/(4N)) log(1 - beta^2), beta < 1.

    Evaluated through rs_correction_n0 with the paramagnetic values
    q = r = 0, P = beta^2, Q = R = 0, so the two agree to the last bit.
    """
    if not 0.0 < beta < 1.0:
        raise ValidationFailure(
            f"beta={beta:g} is outside (0, 1): critical or RSB regime, out of scope"
        )
    return rs_correction_n0(N, 0.0, 0.0, beta * beta, 0.0, 0.0)


class RSParams(namedtuple("RSParams", "n q r P Q R")):
    """RS inputs: replica count, the two moments, and the curvature pattern.

    Immutable.  A named tuple, not a dataclass, so that the numpy-free
    commands (`sk`, `rs-det`, `rs-correction`) do not import dataclasses and
    inspect; ``_make`` and ``_replace`` go through the same checks.
    """

    __slots__ = ()

    def __new__(cls, n: int, q: float, r: float, P: float, Q: float, R: float):
        if n < 2:
            raise ValidationFailure(f"need at least two replicas, got n={n}")
        if abs(q) > 1.0 or abs(r) > 1.0:
            raise ValidationFailure(
                f"moments of +-1 variables need |q|,|r| <= 1, got q={q:g}, r={r:g}"
            )
        for name, value in zip("qrPQR", (q, r, P, Q, R)):
            if not math.isfinite(value):
                raise ValidationFailure(f"RS parameters must be finite, got {name}={value:g}")
        return super().__new__(cls, n, q, r, P, Q, R)

    @classmethod
    def _make(cls, iterable) -> RSParams:
        return cls(*iterable)

    def determinant(self) -> float:
        return rs_determinant(self.n, self.q, self.r, self.P, self.Q, self.R)

    def correction_n0(self, N: int) -> float:
        return rs_correction_n0(N, self.q, self.r, self.P, self.Q, self.R)
