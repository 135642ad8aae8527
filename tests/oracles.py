"""Slow reference computations the test suite checks the library against.

Everything here favours bluntness over speed: term-by-term summation,
exact-arithmetic Wigner elements, brute-force quadrature.  The fast paths
under test are avoided except where a docstring says otherwise.
"""

import numpy as np

from scurve import HarmonicCoeffs, SphereGrid, SphereSignal, sht_forward, sht_inverse
from scurve.wigner import EulerAngles, weight_kernel, wigner_D, wigner_d_sum


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


def dense_weighted_convolve(spectrum: np.ndarray, axis: int = 0) -> np.ndarray:
    """fourier.weighted_convolve through the dense weight matrix.

    Builds matrix[p, q] = w(q - p) over the 2L-1 centred bins and applies
    it along axis; quadratic in L, with no padding or FFT involved.
    """
    L = (spectrum.shape[axis] + 1) // 2
    offsets = np.arange(-(L - 1), L)
    matrix = weight_kernel(2 * (L - 1))[offsets[None, :] - offsets[:, None] + 2 * (L - 1)]
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
