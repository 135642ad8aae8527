"""Slow reference computations the test suite checks the library against.

Everything here favours bluntness over speed: term-by-term summation,
exact-arithmetic Wigner elements, brute-force quadrature.  The fast paths
under test are avoided except where a docstring says otherwise.

The exact Wigner elements (``wigner_d_sum``, ``wigner_D``,
``spin_sph_harm`` and their ``EulerAngles``), the dense O(L^4) Wigner
transforms ``so3_forward_general`` and ``so3_inverse_general`` (with
``densify`` and the random coefficient draws they are fed), and the dense
scale-signal route ``analyze_north_validation`` are the references for
the library's half-pi recursion and fast curvelet transforms; the library
itself never calls them.  The dense transforms run on the library's
colatitude-bin kernel, so they check the forward curvelet transform's
column bookkeeping and batching, not the kernel itself, and the inverse's
closed-form beta nodes against the kernel; the direct summations
below pin that down (``outer_column_sum`` sums the curvelet inverse's
series in 30-digit mpmath), and the unpaired forward kernel at the end, which
runs every (alpha order, gamma frequency) plane through its own beta FFTs,
pins the library's pairing of gamma frequencies.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from numpy import fft as sfft

from scurve import HarmonicCoeffs, SphereGrid, SphereSignal, sht_forward, sht_inverse
from scurve.fourier import _kernel_fft, weighted_convolve
from scurve.so3 import (
    CurveletWignerCoeffs,
    SO3Grid,
    SO3Signal,
    WignerCoeffs,
    _add_column_bins,
    _alpha_orders,
    _alpha_samples,
    _batches,
    _beta_to_bins,
    _bins_to_beta,
    _wigner_columns,
)
from scurve.tiling import Tiling
from scurve.transform import _check_signal, _scale_wigner, rotate_to_north, scale_band_limit
from scurve.wigner import _check_orders, alt_sign, halfpi_table, weight_kernel


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
    only rounding.
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


def wigner_D(ell: int, m: int, n: int, rho: EulerAngles) -> complex:
    """Rotation matrix element exp(-i m alpha) d^ell_mn(beta) exp(-i n gamma)."""
    _check_orders(ell, m, n)
    d = wigner_d_sum(ell, m, n, rho.beta)
    return cmath.exp(-1j * m * rho.alpha) * d * cmath.exp(-1j * n * rho.gamma)


def spin_sph_harm(ell: int, m: int, s: int, omega) -> complex:
    """Spin-s spherical harmonic at omega = (theta, phi), through the d-sum."""
    ell, m, s = int(ell), int(m), int(s)
    _check_orders(ell, m, s)
    theta, phi = omega
    d = wigner_d_sum(ell, m, -s, theta)
    amp = (-1.0 if s % 2 else 1.0) * math.sqrt((2 * ell + 1) / (4.0 * math.pi))
    return amp * d * cmath.exp(1j * m * phi)


def random_wigner_coeffs(L: int, rng: np.random.Generator) -> WignerCoeffs:
    """Dense coefficients with real and imaginary parts uniform on [-1, 1]."""
    planes = [
        rng.uniform(-1, 1, (2 * ell + 1, 2 * ell + 1))
        + 1j * rng.uniform(-1, 1, (2 * ell + 1, 2 * ell + 1))
        for ell in range(L)
    ]
    return WignerCoeffs(L, planes)


def random_curvelet_wigner_coeffs(L: int, rng: np.random.Generator) -> CurveletWignerCoeffs:
    """Outer-column coefficients with parts uniform on [-1, 1], degree by degree."""
    out = CurveletWignerCoeffs.zeros(L)
    c = L - 1
    for ell in range(L):
        width = 2 * ell + 1
        out.values[0, ell, c - ell : c + ell + 1] = rng.uniform(
            -1, 1, width
        ) + 1j * rng.uniform(-1, 1, width)
        if ell > 0:
            out.values[1, ell, c - ell : c + ell + 1] = rng.uniform(
                -1, 1, width
            ) + 1j * rng.uniform(-1, 1, width)
    return out


def densify(w: CurveletWignerCoeffs) -> WignerCoeffs:
    """Dense planes holding the outer columns n = +-ell of w, zero elsewhere."""
    dense = WignerCoeffs.zeros(w.band_limit)
    for ell in range(w.band_limit):
        dense.planes[ell][:, 2 * ell] = w.row(ell)
        if ell > 0:
            dense.planes[ell][:, 0] = w.row(-ell)
    return dense


def so3_forward_general(f: SO3Signal, band_limit: int | None = None) -> WignerCoeffs:
    """Dense forward Wigner transform, O(L^4); the reference path."""
    grid = f.grid
    L = grid.L if band_limit is None else band_limit
    if L > grid.L:
        raise ValueError(f"band limit {L} exceeds grid {grid}")
    W1 = _alpha_orders(sfft.fft2(f.values, axes=(0, 2), norm="forward"), L - 1)
    tab = halfpi_table(L)
    out = WignerCoeffs.zeros(L)
    ns = list(range(-(L - 1), L))
    for pair in (ns[i : i + 2] for i in range(0, len(ns), 2)):
        Zs = _beta_to_bins([W1[n % len(W1)] for n in pair], pair, L - 1)
        for n, Z in zip(pair, Zs):
            for ells in _batches(range(abs(n), L)):
                for ell, col in zip(ells, _wigner_columns(Z[None], tab, [n] * len(ells), ells)):
                    out.planes[ell][:, n + ell] = col
    return out


def so3_inverse_general(w: WignerCoeffs, grid: SO3Grid) -> SO3Signal:
    """Dense synthesis onto the grid, O(L^4); the reference path."""
    if isinstance(w, CurveletWignerCoeffs):
        raise TypeError("dense synthesis requires WignerCoeffs; use densify() first")
    L = w.band_limit
    if L > grid.L:
        raise ValueError(f"band limit {L} exceeds grid {grid}")
    tab = halfpi_table(L)
    out = np.zeros(grid.shape, dtype=complex)
    for n in range(-(L - 1), L):
        X = np.zeros((2 * L - 1, 2 * grid.L - 1), dtype=complex)
        for ells in _batches(range(abs(n), L)):
            cols = [w.planes[ell][:, n + ell] for ell in ells]
            _add_column_bins(X, cols, tab, [n] * len(ells), ells, grid.L)
        out[n % (2 * grid.L - 1)] = _alpha_samples(_bins_to_beta(X, grid.L), 2 * grid.L - 1)
    sfft.ifft(out, axis=0, norm="forward", out=out)
    return SO3Signal(grid, out)


def analyze_north_validation(
    f: SphereSignal, t: Tiling, j: int, max_band_limit: int = 32
) -> SO3Signal:
    """Scale-j signal computed the slow way, through the dense frame.

    Builds the scale's coefficients, rotates them to the pole-centred
    frame and synthesises with the dense O(L^4) transform.  The band-limit
    guard keeps a test from running that transform at a size it cannot
    afford by accident.
    """
    _check_signal(f, t)
    p = t.params
    if not p.j_min <= j <= p.j_max:
        raise ValueError(f"scale {j} outside [{p.j_min}, {p.j_max}]")
    Lj = scale_band_limit(p, j)
    if Lj > max_band_limit:
        raise ValueError(
            f"band limit {Lj} exceeds the dense validation cap {max_band_limit}"
        )
    w = _scale_wigner(sht_forward(f), t, j, Lj)
    return so3_inverse_general(rotate_to_north(w, j, t), SO3Grid(Lj))


def direct_sht_inverse(flm: HarmonicCoeffs) -> SphereSignal:
    """Sum the harmonic series term by term at every grid node."""
    L = flm.band_limit
    s = flm.spin
    grid = SphereGrid(L)
    sign = -1.0 if s % 2 else 1.0
    vals = np.zeros(grid.shape, dtype=complex)
    for ti, theta in enumerate(grid.thetas):
        for ell in range(abs(s), L):
            amp = sign * np.sqrt((2 * ell + 1) / (4.0 * np.pi))
            for m in range(-ell, ell + 1):
                d = wigner_d_sum(ell, m, -s, theta)
                if d == 0.0:
                    continue
                vals[ti] += flm.at(ell, m) * amp * d * np.exp(1j * m * grid.phis)
    return SphereSignal(grid, s, vals)


def zero_pad(flm: HarmonicCoeffs, band_limit: int) -> HarmonicCoeffs:
    """The same function viewed at a larger band limit."""
    if band_limit < flm.band_limit:
        raise ValueError("can only pad upwards")
    vals = np.zeros(band_limit * band_limit, dtype=complex)
    vals[: flm.band_limit**2] = flm.values
    return HarmonicCoeffs(band_limit, flm.spin, vals)


def sphere_inner_product(flm: HarmonicCoeffs, glm: HarmonicCoeffs) -> complex:
    """Integral of f conj(g) by quadrature on a grid that holds the product.

    The inputs share a spin, so the integrand is an ordinary scalar field of
    band limit at most 2L - 1; sampling at band limit 2L therefore makes the
    quadrature exact.  Uses the library transforms, but only the scalar
    forward at degree zero, which the direct-summation checks pin down
    independently.
    """
    if flm.spin != glm.spin:
        raise ValueError("spins differ")
    L2 = 2 * max(flm.band_limit, glm.band_limit)
    f = sht_inverse(zero_pad(flm, L2))
    g = sht_inverse(zero_pad(glm, L2))
    h = SphereSignal(SphereGrid(L2), 0, f.values * np.conj(g.values))
    return complex(sht_forward(h).at(0, 0)) * np.sqrt(4.0 * np.pi)


def dense_weighted_convolve(spectrum: np.ndarray, axis: int = 0, even: bool = True) -> np.ndarray:
    """fourier.weighted_convolve through the dense weight matrix.

    Builds matrix[p, q] = w_e(q - p) over the 2L-1 centred bins, w_e(q) =
    (w(q) + w(-q))/2 the even part of the weights, and applies it along
    axis; quadratic in L, with no padding or FFT involved.  even=False
    takes the full weights w instead.
    """
    L = (spectrum.shape[axis] + 1) // 2
    offsets = np.arange(-(L - 1), L)
    w = weight_kernel(2 * (L - 1))
    w = (w + w[::-1]) / 2 if even else w
    matrix = w[offsets[None, :] - offsets[:, None] + 2 * (L - 1)]
    out = np.tensordot(matrix, np.moveaxis(spectrum, axis, 0), axes=(1, 0))
    return np.moveaxis(out, 0, axis)


def simpson_sin_exp(mp: int, panels: int = 100_000) -> complex:
    """Composite-Simpson integral of sin(beta) exp(i mp beta) over [0, pi]."""
    beta = np.linspace(0.0, np.pi, 2 * panels + 1)
    f = np.sin(beta) * np.exp(1j * mp * beta)
    w = np.ones(beta.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((np.pi / (6.0 * panels)) * np.sum(w * f))


def direct_so3_inverse_at(w, node) -> complex:
    """Triple Wigner series at one rotation, every element from the d-sum."""
    rho = EulerAngles(*node)
    acc = 0.0 + 0.0j
    for ell in range(w.band_limit):
        plane = w.planes[ell]
        scale = (2 * ell + 1) / (8.0 * np.pi**2)
        for mi, m in enumerate(range(-ell, ell + 1)):
            for ni, n in enumerate(range(-ell, ell + 1)):
                val = plane[mi, ni]
                if val == 0.0:
                    continue
                acc += scale * val * np.conj(wigner_D(ell, m, n, rho))
    return acc


def outer_column_sum(w: CurveletWignerCoeffs, b: int, nodes) -> np.ndarray:
    """The Wigner series of outer-column coefficients on beta row b, summed to 30 digits.

    nodes are (gamma, alpha) index pairs of SO3Grid(L); the result holds
    so3_inverse_curvelet(w, grid).values[g, b, a] at each.  Every term is
    (2l+1)/(8 pi^2) w_{mn} d^l_{mn}(beta_b) e^{i(m alpha + n gamma)}, n =
    +-l, with d from wigner_d_sum (a correctly rounded double) shared by
    the row's nodes, and the phase a power of one 30-digit root of unity,
    since the grid's angles are multiples of 2 pi/(2L-1).  The sum runs
    in mpmath, so the result's only error beyond d's is its final rounding.
    """
    L = w.band_limit
    K = 2 * L - 1
    beta = float(SO3Grid(L).betas[b])
    with mpmath.workdps(30):
        roots = [mpmath.expjpi(mpmath.mpf(2 * j) / K) for j in range(K)]
        terms = []
        for ell in range(L):
            scale = mpmath.mpf(2 * ell + 1) / (8 * mpmath.pi**2)
            for n in (ell, -ell) if ell else (0,):
                for m, c in zip(range(-ell, ell + 1), w.row(n).tolist()):
                    if c:
                        terms.append((scale * mpmath.mpc(c) * wigner_d_sum(ell, m, n, beta), m, n))
        sums = [mpmath.fsum(t * roots[(m * a + n * g) % K] for t, m, n in terms) for g, a in nodes]
        return np.array([complex(x) for x in sums])


def pole_frame_rows(t, j) -> dict:
    """Harmonic rows of the scale-j analysis function centred on the pole.

    Maps ell to the length 2*ell+1 coefficient row, built from the two
    populated orders of the unrotated function and the exact d-sum at the
    scale's rotation colatitude.
    """
    from scurve import curvelet_harmonics

    pos, neg = curvelet_harmonics(t, j)
    theta = float(t.angles[j - t.params.j_min])
    rows = {}
    for ell in range(t.params.band_limit):
        if pos[ell] == 0.0 and neg[ell] == 0.0:
            continue
        row = np.zeros(2 * ell + 1, dtype=complex)
        for ki, k in enumerate(range(-ell, ell + 1)):
            row[ki] = pos[ell] * wigner_d_sum(ell, k, ell, theta)
            if ell > 0:
                row[ki] += neg[ell] * wigner_d_sum(ell, k, -ell, theta)
        rows[ell] = row
    return rows


def rotate_rows(rows: dict, node) -> dict:
    """Carry a function given by harmonic rows through a rotation.

    Every matrix element comes from the exact sum, so this stays a pure
    reference even though it scales as the fourth power of the band limit.
    """
    rho = EulerAngles(*node)
    out = {}
    for ell, row in rows.items():
        new = np.zeros(2 * ell + 1, dtype=complex)
        for mi, m in enumerate(range(-ell, ell + 1)):
            acc = 0.0 + 0.0j
            for ni, n in enumerate(range(-ell, ell + 1)):
                if row[ni] == 0.0:
                    continue
                acc += wigner_D(ell, m, n, rho) * row[ni]
            new[mi] = acc
        out[ell] = new
    return out


def coeffs_from_rows(rows: dict, band_limit: int, spin: int) -> HarmonicCoeffs:
    vals = np.zeros(band_limit * band_limit, dtype=complex)
    for ell, row in rows.items():
        vals[ell * ell : ell * ell + 2 * ell + 1] = row
    return HarmonicCoeffs(band_limit, spin, vals)

# The forward colatitude-bin kernel as it ran before the library paired its
# gamma frequencies: every (alpha order, gamma frequency) plane through its
# own beta FFTs, then folded.  It is what the paired kernel in so3 is
# checked against, and what its FFT work is counted against.


def unpaired_beta_to_bins(spectra, ns, h: int) -> np.ndarray:
    """Weighted centred (beta bin, alpha bin) planes of alpha spectra.

    spectra[i] is the centred alpha spectrum of gamma frequency ns[i] at
    the L beta nodes: an (L, 2k+1) array of the orders m = -k..k, k <= h,
    such as its columns of a triangle spectrum (k = |n|) or a full-width
    row (k = L-1).  Degree ell reads only the bins |m'|, |m| <= ell, so
    the planes of a stack whose degrees stay at or below h keep only the
    2h+1 beta bins |m'| <= h and the 2h+1 centred alpha orders |m| <= h,
    the orders past k zero.  Each plane is extended through the poles
    with parity (-1)^(m + n), transformed along beta, stripped of the
    node offset and weighted by sin(beta).  All of that runs in one
    buffer, beta-last, at the padded length of the convolution: the
    spectra are copied into its first L entries and extended into the
    next L-1, the beta FFT runs there in place, and the negative bins
    move to the end of the buffer as the node-offset phase is applied,
    which is the FFT-order layout weighted_convolve takes.  The result is
    a (len(ns), 2h+1, 2h+1) transposed view of that buffer.
    """
    L = spectra[0].shape[0]
    K = 2 * L - 1
    pad = _kernel_fft(L, h)[0]
    buf = np.zeros((len(ns), 2 * h + 1, pad), dtype=complex)
    parity = alt_sign(np.asarray(ns)[:, None] + np.arange(-h, h + 1))
    for i, S in enumerate(spectra):
        k = S.shape[1] // 2
        P = buf[i, :, :L]
        P[h - k : h + k + 1] = S.T
        # Beta node b >= L is the reflection of node 2L-2-b through beta = pi.
        np.multiply(P[:, L - 2 :: -1], parity[i, :, None], out=buf[i, :, L:K])
    E = buf[..., :K]
    sfft.fft(E, norm="forward", out=E)
    # The node-offset phase of bin m'' (with the 4 pi^2 of the transform's
    # normalisation); the bins m'' < 0 move from [L, 2L-1) to the end.
    phase = (4.0 * math.pi**2) * np.exp(-1j * np.arange(1 - L, L) * (math.pi / K))
    np.multiply(buf[..., L:K], phase[: L - 1], out=buf[..., pad - L + 1 :])
    buf[..., :L] *= phase[L - 1 :]
    buf[..., L : pad - L + 1] = 0.0
    return weighted_convolve(buf, h, L).swapaxes(1, 2)


def fold_bins(Y: np.ndarray, ns) -> np.ndarray:
    """Fold centred bin rows -p onto p, in place; returns the rows p >= 0.

    Y holds one (2h'+1, 2h+1) plane of centred bins per gamma frequency
    n of ns, over the centred alpha orders |m| <= h.  Delta_{-p m}
    Delta_{-p n} = (-1)^(m+n) Delta_{p m} Delta_{p n}, so row p gains
    (-1)^(m+n) times row -p and the sums over p in _wigner_columns need
    only p >= 0.
    """
    hp = Y.shape[-2] // 2
    h = Y.shape[-1] // 2
    below = Y[:, :hp][:, ::-1]
    below *= alt_sign(np.asarray(ns)[:, None] + np.arange(-h, h + 1))[:, None, :]
    Y[:, hp + 1 :] += below
    return Y[:, hp:]


def unpaired_curvelet_columns(spectra, tab, ns) -> list:
    """so3._curvelet_columns on the unpaired kernel, one plane per gamma frequency, in one run."""
    h = max(abs(int(n)) for n in ns)
    Z = fold_bins(unpaired_beta_to_bins(spectra, ns, h), ns)
    return _wigner_columns(Z, tab, ns, np.abs(ns))
