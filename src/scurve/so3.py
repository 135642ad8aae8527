"""Exact Wigner transforms on the rotation group.

Sampling mirrors the sphere layout: odd counts along the two periodic
Euler angles, offset nodes along the colatitude-like second angle.  A
signal cube is indexed (gamma, beta, alpha).

Two coefficient layouts exist.  WignerCoeffs stores full (2l+1)^2 planes
and pairs with the general transforms, which cost O(L^4) and serve as the
reference path.  CurveletWignerCoeffs keeps only the two outermost
columns n = +-l of every degree, the support of directional analysis
signals; its transforms drop to O(L^3 log L) because each gamma frequency
n then touches exactly one degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

from .fourier import beta_bin_phase, extend_poles, fft_workers, weighted_convolve
from .wigner import alt_sign, halfpi_table, ipow_vec

__all__ = [
    "CurveletWignerCoeffs",
    "SO3Grid",
    "SO3Signal",
    "WignerCoeffs",
    "so3_forward_curvelet",
    "so3_forward_curvelet_real",
    "so3_forward_general",
    "so3_inverse_curvelet",
    "so3_inverse_curvelet_real",
    "so3_inverse_general",
]

# Gamma frequencies are processed in batches so the extension and FFT work
# runs on whole sub-cubes instead of one slice at a time.
_CHUNK = 16


@dataclass(frozen=True)
class SO3Grid:
    """Euler-angle product grid: L colatitudes, 2M-1 alphas, 2N-1 gammas."""

    L: int
    M: int
    N: int

    def __post_init__(self):
        for name in ("L", "M", "N"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @cached_property
    def alphas(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(2 * self.M - 1) / (2 * self.M - 1)

    @cached_property
    def betas(self) -> np.ndarray:
        return math.pi * (2.0 * np.arange(self.L) + 1.0) / (2 * self.L - 1)

    @cached_property
    def gammas(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(2 * self.N - 1) / (2 * self.N - 1)

    @property
    def shape(self):
        return (2 * self.N - 1, self.L, 2 * self.M - 1)


@dataclass
class SO3Signal:
    """Samples on an SO3Grid, shape (2N-1, L, 2M-1), (gamma, beta, alpha)."""

    grid: SO3Grid
    values: np.ndarray
    real: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if self.real and np.iscomplexobj(self.values):
            raise ValueError("real signal carries complex values")


@dataclass
class WignerCoeffs:
    """Dense Wigner coefficients: planes[ell][m + ell, n + ell]."""

    band_limit: int
    planes: list

    def __post_init__(self):
        L = self.band_limit
        if L < 1:
            raise ValueError(f"band limit must be positive, got {L}")
        if len(self.planes) != L:
            raise ValueError(f"expected {L} planes, got {len(self.planes)}")
        for ell, p in enumerate(self.planes):
            if p.shape != (2 * ell + 1, 2 * ell + 1):
                raise ValueError(f"plane {ell} has shape {p.shape}")

    @classmethod
    def zeros(cls, L: int) -> "WignerCoeffs":
        return cls(L, [np.zeros((2 * ell + 1, 2 * ell + 1), complex) for ell in range(L)])

    @classmethod
    def random(cls, L: int, rng: np.random.Generator) -> "WignerCoeffs":
        planes = [
            rng.uniform(-1, 1, (2 * ell + 1, 2 * ell + 1))
            + 1j * rng.uniform(-1, 1, (2 * ell + 1, 2 * ell + 1))
            for ell in range(L)
        ]
        return cls(L, planes)


@dataclass
class CurveletWignerCoeffs:
    """Wigner coefficients restricted to the outermost columns n = +-ell.

    values has shape (2, L, 2L-1): values[0, ell, m + L - 1] is the
    n = +ell entry, values[1] the n = -ell one.  Degree zero lives in the
    first sheet only; the second keeps its row zero.
    """

    band_limit: int
    values: np.ndarray

    def __post_init__(self):
        L = self.band_limit
        if L < 1:
            raise ValueError(f"band limit must be positive, got {L}")
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (2, L, 2 * L - 1):
            raise ValueError(
                f"expected shape {(2, L, 2 * L - 1)}, got {self.values.shape}"
            )

    @classmethod
    def zeros(cls, L: int) -> "CurveletWignerCoeffs":
        return cls(L, np.zeros((2, L, 2 * L - 1), complex))

    @classmethod
    def random(cls, L: int, rng: np.random.Generator) -> "CurveletWignerCoeffs":
        out = cls.zeros(L)
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

    def row(self, n: int) -> np.ndarray:
        """View of the m-row paired with gamma frequency n (degree |n|)."""
        ell = abs(n)
        if ell >= self.band_limit:
            raise ValueError(f"|n| = {ell} out of range")
        c = self.band_limit - 1
        return self.values[0 if n >= 0 else 1, ell, c - ell : c + ell + 1]

    def set_row(self, n: int, row: np.ndarray) -> None:
        self.row(n)[:] = row

    def densify(self) -> WignerCoeffs:
        dense = WignerCoeffs.zeros(self.band_limit)
        for ell in range(self.band_limit):
            dense.planes[ell][:, 2 * ell] = self.row(ell)
            if ell > 0:
                dense.planes[ell][:, 0] = self.row(-ell)
        return dense


def _fft_gamma_inplace(arr: np.ndarray, inverse: bool, scale: float, block: int = 8):
    """FFT along axis 0, run over beta blocks to bound the transient copies."""
    fn = sfft.ifft if inverse else sfft.fft
    for lo in range(0, arr.shape[1], block):
        seg = fn(arr[:, lo : lo + block, :], axis=0, workers=fft_workers())
        if scale != 1.0:
            seg *= scale
        arr[:, lo : lo + block, :] = seg


def _analysis_spectrum(values: np.ndarray, M: int, N: int, real: bool = False) -> np.ndarray:
    """FFT over alpha and gamma, normalised to Fourier coefficients.

    A real signal keeps only the gamma frequencies n >= 0 (rfft first).
    """
    if real:
        values = sfft.rfft(values, axis=0, workers=fft_workers()) / (2 * N - 1)
    W1 = sfft.fft(np.asarray(values, dtype=complex), axis=2, workers=fft_workers())
    W1 /= 2 * M - 1
    if not real:
        _fft_gamma_inplace(W1, inverse=False, scale=1.0 / (2 * N - 1))
    return W1


def _beta_to_bins(S: np.ndarray, L: int, parity, axis: int) -> np.ndarray:
    """Extend beta samples, FFT, recentre and undo the node offset."""
    K = 2 * L - 1
    E = extend_poles(S, parity, axis=axis)
    X = np.fft.fftshift(sfft.fft(E, axis=axis, workers=fft_workers()) / K, axes=axis)
    shape = [1] * X.ndim
    shape[axis] = K
    X *= beta_bin_phase(L, -1).reshape(shape)
    return (4.0 * math.pi**2) * weighted_convolve(X, axis=axis)


def _wigner_column(Y: np.ndarray, tab, n: int, ell: int, cr: int, cc: int) -> np.ndarray:
    """Column n of degree ell's coefficient plane, read off the centred bins Y."""
    delta = tab.plane(ell)
    sub = Y[cr - ell : cr + ell + 1, cc - ell : cc + ell + 1]
    row = np.einsum("pm,p,pm->m", delta, delta[:, n + ell], sub)
    return row * ipow_vec(np.arange(-ell, ell + 1) - n)


def _column_bins(row: np.ndarray, tab, n: int, ell: int) -> np.ndarray:
    """Centred (beta bin, alpha bin) block sourced by column n of degree ell."""
    delta = tab.plane(ell)
    fac = (2 * ell + 1) / (8.0 * math.pi**2)
    row = row * ipow_vec(n - np.arange(-ell, ell + 1))
    return (fac * delta) * delta[:, n + ell, None] * row[None, :]


def _gamma_frequencies(L: int, real: bool) -> list:
    """Gamma frequencies a transform visits: all, or n >= 0 for real signals."""
    return list(range(0 if real else -(L - 1), L))


def so3_forward_curvelet(f: SO3Signal) -> CurveletWignerCoeffs:
    """Forward Wigner transform onto the n = +-ell columns; O(L^3 log L).

    Exact when the signal is a synthesis of such columns, which is the
    only way curvelet analysis produces rotation-group signals.  A
    real-flagged signal runs on half the gamma spectrum.
    """
    grid = f.grid
    L = grid.L
    if not (grid.M == L and grid.N == L):
        raise ValueError("sparse path requires N = M = L")
    K = 2 * L - 1
    W1 = _analysis_spectrum(f.values, grid.M, grid.N, real=f.real)
    out = CurveletWignerCoeffs.zeros(L)
    tab = halfpi_table(L)
    c = L - 1
    m = np.arange(-(L - 1), L)
    ns = _gamma_frequencies(L, f.real)
    for lo in range(0, len(ns), _CHUNK):
        chunk = ns[lo : lo + _CHUNK]
        S = np.fft.fftshift(W1[[n % K for n in chunk]], axes=2)
        par = alt_sign(np.asarray(chunk)[:, None] + m[None, :])
        Y = _beta_to_bins(S, L, par, axis=1)
        for i, n in enumerate(chunk):
            row = _wigner_column(Y[i], tab, n, abs(n), c, c)
            out.set_row(n, row)
            if f.real and n > 0:
                # Reality ties the two columns: the n = -ell row is the
                # conjugate reversal of the n = +ell one up to parity.
                out.set_row(-n, alt_sign(np.arange(2 * n + 1)) * np.conj(row[::-1]))
    return out


def _so3_inverse_curvelet(w: CurveletWignerCoeffs, grid: SO3Grid, real: bool) -> SO3Signal:
    """Sparse synthesis; real=True sums only n >= 0 and ends in an irfft."""
    if not isinstance(w, CurveletWignerCoeffs):
        raise TypeError("sparse synthesis requires CurveletWignerCoeffs")
    L = w.band_limit
    if not (grid.L == L and grid.M == L and grid.N == L):
        raise ValueError("sparse path requires a grid with N = M = L matching the coefficients")
    K = 2 * L - 1
    tab = halfpi_table(L)
    phase = beta_bin_phase(L, +1)
    c = L - 1
    ns = _gamma_frequencies(L, real)
    out = np.empty((len(ns), L, K), dtype=complex)
    # K^2 for the two in-plane axes; the real path takes another K to undo
    # irfft's 1/K.
    scale = float(K * K) * (K if real else 1)
    for lo in range(0, len(ns), _CHUNK):
        chunk = ns[lo : lo + _CHUNK]
        X = np.zeros((len(chunk), K, K), dtype=complex)
        for i, n in enumerate(chunk):
            band = slice(c - abs(n), c + abs(n) + 1)
            X[i, band, band] = _column_bins(w.row(n), tab, n, abs(n)) * phase[band, None]
        B = sfft.ifft2(np.fft.ifftshift(X, axes=(1, 2)), axes=(1, 2), workers=fft_workers())
        B *= scale
        for i, n in enumerate(chunk):
            out[n % K] = B[i, :L, :]
    if real:
        return SO3Signal(grid, sfft.irfft(out, n=K, axis=0, workers=fft_workers()), real=True)
    _fft_gamma_inplace(out, inverse=True, scale=float(K))
    return SO3Signal(grid, out)


def so3_inverse_curvelet(w: CurveletWignerCoeffs, grid: SO3Grid) -> SO3Signal:
    """Synthesis of sparse column coefficients onto the grid; O(L^3 log L)."""
    return _so3_inverse_curvelet(w, grid, real=False)


def so3_forward_general(f: SO3Signal, band_limit: int | None = None) -> WignerCoeffs:
    """Dense forward Wigner transform, O(L^4); the reference path."""
    grid = f.grid
    L = grid.L if band_limit is None else band_limit
    if L > min(grid.L, grid.M, grid.N):
        raise ValueError(f"band limit {L} exceeds grid {grid}")
    Kg = 2 * grid.N - 1
    W1 = _analysis_spectrum(f.values, grid.M, grid.N)
    tab = halfpi_table(L)
    out = WignerCoeffs.zeros(L)
    cr = grid.L - 1
    cc = grid.M - 1
    m = np.arange(-(grid.M - 1), grid.M)
    for n in range(-(L - 1), L):
        S = np.fft.fftshift(W1[n % Kg], axes=1)
        Y = _beta_to_bins(S, grid.L, alt_sign(m + n), axis=0)
        for ell in range(abs(n), L):
            out.planes[ell][:, n + ell] = _wigner_column(Y, tab, n, ell, cr, cc)
    return out


def so3_inverse_general(w: WignerCoeffs, grid: SO3Grid) -> SO3Signal:
    """Dense synthesis onto the grid, O(L^4); the reference path."""
    if isinstance(w, CurveletWignerCoeffs):
        raise TypeError("dense synthesis requires WignerCoeffs; use densify() first")
    L = w.band_limit
    if L > min(grid.L, grid.M, grid.N):
        raise ValueError(f"band limit {L} exceeds grid {grid}")
    Kb = 2 * grid.L - 1
    Ka = 2 * grid.M - 1
    Kg = 2 * grid.N - 1
    tab = halfpi_table(L)
    phase = beta_bin_phase(grid.L, +1)
    cr = grid.L - 1
    cc = grid.M - 1
    out = np.zeros((Kg, grid.L, Ka), dtype=complex)
    for n in range(-(L - 1), L):
        X = np.zeros((Kb, Ka), dtype=complex)
        for ell in range(abs(n), L):
            X[cr - ell : cr + ell + 1, cc - ell : cc + ell + 1] += _column_bins(
                w.planes[ell][:, n + ell], tab, n, ell
            )
        X *= phase[:, None]
        B = sfft.ifft2(np.fft.ifftshift(X, axes=(0, 1)), workers=fft_workers())
        B *= float(Kb * Ka)
        out[n % Kg] = B[: grid.L]
    _fft_gamma_inplace(out, inverse=True, scale=float(Kg))
    return SO3Signal(grid, out)


def so3_forward_curvelet_real(f: SO3Signal) -> CurveletWignerCoeffs:
    """Sparse forward transform that insists on a real-flagged signal."""
    if not f.real:
        raise ValueError("real path requires a real-flagged signal")
    return so3_forward_curvelet(f)


def so3_inverse_curvelet_real(w: CurveletWignerCoeffs, grid: SO3Grid) -> SO3Signal:
    """Sparse synthesis straight to real samples via half the gamma spectrum.

    Assumes the coefficients carry the conjugate symmetry of a real
    signal; the negative gamma frequencies are then implied.
    """
    return _so3_inverse_curvelet(w, grid, real=True)
