"""Wigner rotation functions and exact colatitude quadrature weights.

Conventions used throughout the package:

* Euler angles follow the zyz convention: ``rho = (alpha, beta, gamma)``
  rotates by gamma about z, then beta about y, then alpha about z.
* ``wigner_D(ell, m, n, rho) = exp(-i m alpha) d^ell_mn(beta) exp(-i n gamma)``.
* Spin spherical harmonics carry the Condon-Shortley phase.

Two evaluation routes are provided for the small-d functions.
``wigner_d_sum`` evaluates the explicit factorial sum in exact rational
arithmetic; it is slow and exists as the reference oracle.  The transforms
consume ``build_halfpi_table``, a three-term recursion in the degree that
tabulates every d value at beta = pi/2 and stays stable to high degree.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, xlogy

__all__ = [
    "EulerAngles",
    "HalfPiTable",
    "build_halfpi_table",
    "halfpi_table",
    "quadrature_weight",
    "spin_sph_harm",
    "wigner_D",
    "wigner_d_matrix",
    "wigner_d_edge_columns",
    "wigner_d_sum",
]

_IPOW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def ipow(k: int) -> complex:
    """i**k without trigonometric roundoff."""
    return _IPOW[k % 4]


def ipow_vec(k) -> np.ndarray:
    return np.asarray(_IPOW, dtype=complex)[np.mod(np.asarray(k), 4)]


def alt_sign(k) -> np.ndarray:
    """(-1)**k for integer arrays."""
    return np.where(np.mod(np.asarray(k), 2) == 0, 1.0, -1.0)


@dataclass(frozen=True)
class EulerAngles:
    """zyz Euler angles.

    alpha and gamma are reduced modulo 2*pi on construction.  beta outside
    [0, pi] is rejected rather than folded, since folding silently changes
    the rotation.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        beta = float(self.beta)
        if not 0.0 <= beta <= math.pi:
            raise ValueError(f"beta must lie in [0, pi], got {beta!r}")
        two_pi = 2.0 * math.pi
        object.__setattr__(self, "alpha", float(self.alpha) % two_pi)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", float(self.gamma) % two_pi)


def _check_orders(ell: int, m: int, n: int) -> None:
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    if abs(m) > ell or abs(n) > ell:
        raise ValueError(f"orders ({m}, {n}) out of range for degree {ell}")


def _fraction_sqrt(q: Fraction) -> float:
    # Scale by an even power of two first so that neither the float
    # conversion nor the square root can overflow or underflow.
    e = q.numerator.bit_length() - q.denominator.bit_length()
    e -= e % 2
    if e >= 0:
        scaled = Fraction(q.numerator, q.denominator << e)
    else:
        scaled = Fraction(q.numerator << -e, q.denominator)
    return math.ldexp(math.sqrt(scaled.numerator / scaled.denominator), e >> 1)


def wigner_d_sum(ell: int, m: int, n: int, beta: float) -> float:
    """Small-d via the explicit factorial sum, in exact rational arithmetic.

    The sum alternates in sign and cancels catastrophically in floating
    point: a log-factorial evaluation is only good to about 1e-6 by degree
    32 at beta = pi/2, far short of what the table checks need.  Writing
    x = sin^2(beta/2) (a dyadic rational once beta is a double) makes every
    term an exact Fraction; the single square root at the end is then the
    only rounding.  Slow, and intended purely as a reference oracle.
    """
    ell, m, n = int(ell), int(m), int(n)
    _check_orders(ell, m, n)
    beta = float(beta)
    if not 0.0 <= beta <= math.pi:
        raise ValueError(f"beta must lie in [0, pi], got {beta!r}")
    k_lo = max(0, -(m + n))
    k_hi = min(ell - m, ell - n)
    if k_hi < k_lo:
        return 0.0
    if beta == 0.5 * math.pi:
        x = Fraction(1, 2)
    else:
        x = Fraction(math.sin(0.5 * beta) ** 2)
    y = 1 - x
    sigma = (m + n) % 2
    fact = math.factorial
    dens = [
        fact(k) * fact(ell - m - k) * fact(ell - n - k) * fact(m + n + k)
        for k in range(k_lo, k_hi + 1)
    ]
    if x == Fraction(1, 2):
        # Every term carries the same power of two, so the alternating sum
        # reduces to integer arithmetic over a common denominator.
        common = math.lcm(*dens)
        num = sum(
            (-1) ** k * (common // d)
            for k, d in zip(range(k_lo, k_hi + 1), dens)
        )
        ratio = Fraction(num, common * (1 << (ell - sigma)))
    else:
        ratio = Fraction(0)
        for k, den in zip(range(k_lo, k_hi + 1), dens):
            e_sin = (2 * ell - m - n - 2 * k - sigma) // 2
            e_cos = (m + n + 2 * k - sigma) // 2
            ratio += Fraction((-1) ** k, den) * x**e_sin * y**e_cos
    if ratio == 0:
        return 0.0
    amp = fact(ell + m) * fact(ell - m) * fact(ell + n) * fact(ell - n)
    square = ratio * ratio * amp * (x * y) ** sigma
    sign = (1.0 if ratio > 0 else -1.0) * (-1.0 if (ell - n) % 2 else 1.0)
    return sign * _fraction_sqrt(square)


def _halfpi_edge_row(ell: int) -> np.ndarray:
    """d^ell_{ell, m}(pi/2) for all m, via the log closed form."""
    m = np.arange(-ell, ell + 1)
    mf = m.astype(np.float64)
    logs = (
        0.5 * (gammaln(2 * ell + 1) - gammaln(ell + mf + 1) - gammaln(ell - mf + 1))
        - ell * math.log(2.0)
    )
    return alt_sign(ell - m) * np.exp(logs)


def _next_halfpi_plane(ell: int, prev: np.ndarray, prev2: np.ndarray) -> np.ndarray:
    size = 2 * ell + 1
    cur = np.empty((size, size))
    mp = np.arange(-(ell - 1), ell, dtype=np.float64)[:, None]
    m = np.arange(-(ell - 1), ell, dtype=np.float64)[None, :]
    # cos(pi/2) = 0 kills the diagonal term of the usual recursion only in
    # part: the product m'*m survives.
    a = -(2.0 * ell - 1.0) * mp * m / ((ell - 1.0) * ell)
    b = np.sqrt(((ell - 1.0) ** 2 - mp**2) * ((ell - 1.0) ** 2 - m**2)) / (ell - 1.0)
    inner2 = np.zeros((size - 2, size - 2))
    inner2[1:-1, 1:-1] = prev2
    scale = ell / np.sqrt((ell * ell - mp**2) * (ell * ell - m**2))
    cur[1:-1, 1:-1] = scale * (a * prev - b * inner2)
    # Boundary rows from the closed form, boundary columns from the
    # transpose symmetry d_{m'm} = (-1)^{m'-m} d_{mm'}; the recursion above
    # never touches them, so no division by the vanishing edge factors.
    top = _halfpi_edge_row(ell)
    ms = np.arange(-ell, ell + 1)
    flip = alt_sign(ell + ms)
    cur[-1, :] = top
    cur[0, :] = flip * top
    cur[:, -1] = alt_sign(ms - ell) * top
    cur[:, 0] = alt_sign(ms + ell) * (flip * top)
    return cur


@dataclass(frozen=True)
class HalfPiTable:
    """All d^ell_{m'm}(pi/2) for ell < band_limit, one plane per degree.

    planes[ell] has shape (2*ell+1, 2*ell+1), row index m' + ell, column
    index m + ell.  Immutable and safe to share between threads.
    """

    band_limit: int
    planes: tuple

    def plane(self, ell: int) -> np.ndarray:
        return self.planes[ell]

    def value(self, ell: int, mp: int, m: int) -> float:
        _check_orders(ell, mp, m)
        return float(self.planes[ell][mp + ell, m + ell])


def build_halfpi_table(L: int) -> HalfPiTable:
    """Tabulate d^ell_{m'm}(pi/2) for every ell < L by degree recursion."""
    if L < 1:
        raise ValueError(f"band limit must be positive, got {L}")
    planes = [np.ones((1, 1))]
    if L > 1:
        r = 1.0 / math.sqrt(2.0)
        planes.append(
            np.array([[0.5, r, 0.5], [-r, 0.0, r], [0.5, -r, 0.5]])
        )
    for ell in range(2, L):
        planes.append(_next_halfpi_plane(ell, planes[ell - 1], planes[ell - 2]))
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


def wigner_D(ell: int, m: int, n: int, rho: EulerAngles) -> complex:
    """Rotation matrix element exp(-i m alpha) d^ell_mn(beta) exp(-i n gamma)."""
    _check_orders(ell, m, n)
    d = wigner_d_sum(ell, m, n, rho.beta)
    return cmath.exp(-1j * m * rho.alpha) * d * cmath.exp(-1j * n * rho.gamma)


def spin_sph_harm(ell: int, m: int, s: int, omega) -> complex:
    """Spin-s spherical harmonic at omega = (theta, phi).

    Evaluated through the oracle d-sum, so exact but slow; the transforms
    never call this, tests do.
    """
    ell, m, s = int(ell), int(m), int(s)
    _check_orders(ell, m, s)
    theta, phi = omega
    d = wigner_d_sum(ell, m, -s, theta)
    amp = (-1.0 if s % 2 else 1.0) * math.sqrt((2 * ell + 1) / (4.0 * math.pi))
    return amp * d * cmath.exp(1j * m * phi)


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


def wigner_d_edge_columns(ell: int, beta: float):
    """Columns d^ell_{k, +ell}(beta) and d^ell_{k, -ell}(beta) over all k.

    Closed binomial forms evaluated in log space, stable for degrees far
    beyond where the factorials themselves overflow.
    """
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    k = np.arange(-ell, ell + 1)
    kf = k.astype(np.float64)
    half_log_binom = 0.5 * (
        gammaln(2 * ell + 1) - gammaln(ell + kf + 1) - gammaln(ell - kf + 1)
    )
    s = math.sin(0.5 * float(beta))
    c = math.cos(0.5 * float(beta))
    pos = np.exp(half_log_binom + xlogy(ell - kf, s) + xlogy(ell + kf, c))
    neg = np.exp(half_log_binom + xlogy(ell + kf, s) + xlogy(ell - kf, c))
    neg *= alt_sign(ell - k)
    return pos, neg
