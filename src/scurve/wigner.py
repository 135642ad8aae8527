"""Wigner rotation functions and exact colatitude quadrature weights.

Conventions used throughout the package:

* Euler angles follow the zyz convention: ``rho = (alpha, beta, gamma)``
  rotates by gamma about z, then beta about y, then alpha about z.
* ``D^ell_mn(rho) = exp(-i m alpha) d^ell_mn(beta) exp(-i n gamma)``.
* Spin spherical harmonics carry the Condon-Shortley phase.

The transforms consume ``halfpi_table``, a three-term recursion in the
degree that tabulates d at beta = pi/2 and stays stable to high degree.
It keeps the m', m >= 0 quadrant of each degree, a quarter of the
values: d_{m',-m} = (-1)^(ell+m') d_{m'm} and d_{-m',m} = (-1)^(ell+m)
d_{m'm} give the rest, which ``HalfPiTable.plane`` expands and the bin
kernel in so3.py folds onto.  ``wigner_d_matrix`` expands those values to
any beta, and ``wigner_d_edge_columns`` evaluates the two outermost
columns in closed form (_edge_nodes), the evaluation the inverse curvelet
transform runs on the flattened columns of its gamma spectrum, one block
of beta nodes at a time.  The exact factorial-sum elements the tests
check these against live in tests/oracles.py.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HalfPiTable",
    "build_halfpi_table",
    "halfpi_table",
    "quadrature_weight",
    "wigner_d_matrix",
    "wigner_d_edge_columns",
]

_IPOW = np.array([1.0, 1.0j, -1.0, -1.0j])
_SIGN = np.array([1.0, -1.0])
_IPOW.setflags(write=False)
_SIGN.setflags(write=False)


def ipow_vec(k) -> np.ndarray:
    """i**k for integer arrays, without trigonometric roundoff."""
    return _IPOW[np.asarray(k) & 3]


def alt_sign(k) -> np.ndarray:
    """(-1)**k for integer arrays."""
    return _SIGN[np.asarray(k) & 1]


def _check_orders(ell: int, m: int, n: int) -> None:
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    if abs(m) > ell or abs(n) > ell:
        raise ValueError(f"orders ({m}, {n}) out of range for degree {ell}")


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _halfpi_edge_row(ell: int, logf: np.ndarray) -> np.ndarray:
    """d^ell_{ell, m}(pi/2) for m = 0..ell, via the log closed form; logf covers 2 ell."""
    m = np.arange(ell + 1)
    logs = 0.5 * (logf[2 * ell] - logf[ell + m] - logf[ell - m]) - ell * math.log(2.0)
    return alt_sign(ell - m) * np.exp(logs)


def _next_halfpi_quadrant(
    ell: int, prev: np.ndarray, prev2: np.ndarray, logf: np.ndarray
) -> np.ndarray:
    """The m', m >= 0 quadrant of degree ell from those of ell-1 and ell-2."""
    cur = np.empty((ell + 1, ell + 1))
    mp = np.arange(ell, dtype=np.float64)[:, None]
    m = np.arange(ell, dtype=np.float64)[None, :]
    # cos(pi/2) = 0 kills the diagonal term of the usual recursion only in
    # part: the product m'*m survives.
    a = -(2.0 * ell - 1.0) * mp * m / ((ell - 1.0) * ell)
    b = np.sqrt(((ell - 1.0) ** 2 - mp**2) * ((ell - 1.0) ** 2 - m**2)) / (ell - 1.0)
    inner2 = np.zeros((ell, ell))
    inner2[:-1, :-1] = prev2
    scale = ell / np.sqrt((ell * ell - mp**2) * (ell * ell - m**2))
    cur[:-1, :-1] = scale * (a * prev - b * inner2)
    # The last row from the closed form, the last column from the transpose
    # symmetry d_{m'm} = (-1)^{m'-m} d_{mm'}; the recursion above never
    # touches them, so no division by the vanishing edge factors.
    top = _halfpi_edge_row(ell, logf)
    cur[-1, :] = top
    cur[:, -1] = alt_sign(np.arange(ell + 1) - ell) * top
    return cur


def _expand(q: np.ndarray) -> np.ndarray:
    """The full plane d^ell(pi/2), rows m' + ell, of its m', m >= 0 quadrant q.

    Reflections: d_{m',-m} = (-1)^(ell+m') d_{m'm} fills the columns m < 0,
    then d_{-m',m} = (-1)^(ell+m) d_{m'm} the rows m' < 0.
    """
    ell = len(q) - 1
    full = np.empty((2 * ell + 1, 2 * ell + 1))
    full[ell:, ell:] = q
    full[ell:, :ell] = q[:, :0:-1] * alt_sign(np.arange(ell, 2 * ell + 1))[:, None]
    full[:ell] = full[:ell:-1] * alt_sign(np.arange(2 * ell + 1))
    return full


@dataclass(frozen=True)
class HalfPiTable:
    """All d^ell_{m'm}(pi/2) for ell < band_limit, one quadrant per degree.

    planes[ell] has shape (ell+1, ell+1) and holds m', m >= 0, row index
    m', column index m; the other three quadrants follow by reflection
    (_expand), so the table takes a quarter of the memory of full planes.
    Immutable and safe to share between threads.
    """

    band_limit: int
    planes: tuple

    def plane(self, ell: int) -> np.ndarray:
        """Read-only full plane of degree ell, row index m' + ell, column m + ell."""
        full = _expand(self.planes[ell])
        full.setflags(write=False)
        return full

    def value(self, ell: int, mp: int, m: int) -> float:
        _check_orders(ell, mp, m)
        return float(self.plane(ell)[mp + ell, m + ell])


def build_halfpi_table(L: int) -> HalfPiTable:
    """Tabulate d^ell_{m'm}(pi/2), m', m >= 0, for every ell < L by degree recursion."""
    if L < 1:
        raise ValueError(f"band limit must be positive, got {L}")
    planes = [np.ones((1, 1))]
    if L > 1:
        r = 1.0 / math.sqrt(2.0)
        planes.append(np.array([[0.0, r], [-r, 0.5]]))
    logf = _log_factorials(2 * L)
    for ell in range(2, L):
        planes.append(_next_halfpi_quadrant(ell, planes[ell - 1], planes[ell - 2], logf))
    for p in planes:
        p.setflags(write=False)
    return HalfPiTable(L, tuple(planes))


_table_lock = threading.Lock()
_table: HalfPiTable | None = None


def halfpi_table(L: int) -> HalfPiTable:
    """Shared read-only table covering at least band limit L.

    The cached table only ever grows; callers index planes by degree and so
    can be handed a larger table than they asked for.
    """
    global _table
    with _table_lock:
        if _table is None or _table.band_limit < L:
            _table = build_halfpi_table(L)
        return _table


def quadrature_weight(mp: int) -> complex:
    """Integral of sin(beta) exp(i mp beta) over beta in [0, pi], exactly."""
    mp = int(mp)
    return complex(weight_kernel(abs(mp))[mp + abs(mp)])


def weight_kernel(half_span: int) -> np.ndarray:
    """quadrature_weight evaluated on [-half_span, half_span] as an array."""
    j = np.arange(-half_span, half_span + 1)
    w = np.zeros(j.shape, dtype=complex)
    even = (j % 2) == 0
    w[even] = 2.0 / (1.0 - j[even].astype(np.float64) ** 2)
    w[j == 1] = 0.5j * math.pi
    w[j == -1] = -0.5j * math.pi
    return w


def wigner_d_matrix(ell: int, beta: float) -> np.ndarray:
    """Dense d^ell(beta), rows m, columns n.

    Assembled from the half-pi table through the Fourier expansion of the
    small-d functions, which is what makes it cheap enough for oracles that
    sweep whole degrees.
    """
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    delta = halfpi_table(ell + 1).plane(ell)
    mp = np.arange(-ell, ell + 1)
    phased = np.exp(1j * mp * float(beta))[:, None] * delta
    core = delta.T @ phased
    fac = ipow_vec(-mp)[:, None] * ipow_vec(mp)[None, :]
    return np.real(fac * core)


def wigner_d_edge_columns(ell: int, beta):
    """Columns d^ell_{k, +ell}(beta) and d^ell_{k, -ell}(beta) over all k.

    Each has shape beta.shape + (2 ell + 1,) for an array of betas.  The
    closed form (_edge_nodes) holds for degrees where factorials overflow.
    """
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    half = 0.5 * np.ravel(beta).astype(float)
    k = np.arange(-ell, ell + 1)
    p = np.r_[ell + k, ell - k]  # the columns n = +ell, then n = -ell as d^l_{-k,l}
    weights = np.r_[np.ones(2 * ell + 1), alt_sign(ell - k)]
    binomials = _edge_binomials(ell)[:, p]
    X = _edge_nodes(p, 2 * ell - p, binomials, np.sin(half), np.cos(half), weights)
    return tuple(col.reshape(np.shape(beta) + k.shape) for col in np.split(X, 2, axis=1))


@lru_cache(maxsize=None)
def _edge_binomials(ell: int) -> np.ndarray:
    """sqrt(C(2 ell, p) / 4^ell), p = 0..2 ell: sqrt(C / 4^e) correctly rounded, times exp(row 1).

    Row 1, (e - ell) log 2, is 0 below degree 512, where 4^-ell is a double.
    """
    c, half = 1, []  # C(2 ell, p) = C(2 ell, 2 ell - p), exact
    for p in range(ell + 1):
        e = ell if ell < 512 else c.bit_length() // 2
        half.append((math.sqrt(c / (1 << 2 * e)), (e - ell) * math.log(2.0)))
        c = c * (2 * ell - p) // (p + 1)
    out = np.array(half + half[-2::-1]).T
    out.setflags(write=False)
    return out


def _edge_nodes(p, q, binomials, sin_half, cos_half, weights, out=None) -> np.ndarray:
    """weights[j] d^l_{m_j, l}(beta_b) over betas b with half-angle sin and cos: (betas, columns).

    Column j, of degree l and order m, is given as p[j] = l + m, q[j] =
    l - m and binomials[:, j], the entry p of _edge_binomials(l); an inverse
    curvelet transform passes the columns of its gamma spectrum flattened
    (so3._edge_columns).
    d^l_{m,l} = sqrt(C(2l, l+m) / 4^l) (sqrt2 cos(beta/2))^(l+m) (sqrt2
    sin(beta/2))^(l-m): the binomial factor, its row 1 added to the
    log-space exponent of the powers, which the sqrt2 keep in range.  A pole
    (a zero sin or cos) is exact, 0 log 0 read as 0.  Written into out when
    given, an array of the result's shape.
    """
    with np.errstate(divide="ignore"):
        lc, ls = np.log(cos_half) + math.log(2.0) / 2, np.log(sin_half) + math.log(2.0) / 2
    poles = np.flatnonzero(np.isinf(lc) | np.isinf(ls))
    lc[poles] = ls[poles] = 0.0
    E = np.multiply.outer(lc, p)
    for e, s in zip(E, ls):
        e += q * s
    if binomials[1].any():
        E += binomials[1]
    X = np.multiply(np.exp(E, out=E), weights * binomials[0], out=out)
    for b in poles.tolist():
        X[b] = np.where((p if cos_half[b] == 0 else q) == 0, weights, 0.0)
    return X
