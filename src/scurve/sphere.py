"""Exact spin spherical harmonic transforms on offset equiangular grids.

A band limit L fixes the grid: L colatitudes theta_t = pi(2t+1)/(2L-1)
and 2L-1 longitudes phi_p = 2 pi p/(2L-1).  The node layout avoids both
poles' neighbourhood being oversampled and, because every count is odd,
keeps all Fourier bins signed.  Band-limited signals of any spin round
trip through the transforms at machine precision: the forward direction
is exact quadrature, the inverse exact evaluation.
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
    "HarmonicCoeffs",
    "SphereGrid",
    "SphereSignal",
    "lm_index",
    "random_coeffs",
    "sht_forward",
    "sht_forward_real",
    "sht_inverse",
    "sht_inverse_real",
]


def lm_index(ell: int, m: int) -> int:
    """Flat index of (ell, m) in degree-major order: ell^2 + ell + m."""
    return ell * ell + ell + m


@dataclass(frozen=True)
class SphereGrid:
    """Offset equiangular sphere sampling for one band limit."""

    band_limit: int

    def __post_init__(self):
        if self.band_limit < 1:
            raise ValueError(f"band limit must be positive, got {self.band_limit}")

    @cached_property
    def thetas(self) -> np.ndarray:
        L = self.band_limit
        return math.pi * (2.0 * np.arange(L) + 1.0) / (2 * L - 1)

    @cached_property
    def phis(self) -> np.ndarray:
        L = self.band_limit
        return 2.0 * math.pi * np.arange(2 * L - 1) / (2 * L - 1)

    @property
    def shape(self):
        return (self.band_limit, 2 * self.band_limit - 1)


@dataclass
class SphereSignal:
    """Samples of a spin-s function, shape (L, 2L-1), theta-major.

    real=True asserts the values are real (only meaningful for spin 0) and
    lets the transforms take the half-spectrum fast paths.
    """

    grid: SphereGrid
    spin: int
    values: np.ndarray
    real: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if self.real:
            if self.spin != 0:
                raise ValueError("real signals must have spin 0")
            if np.iscomplexobj(self.values):
                raise ValueError("real signal carries complex values")


@dataclass
class HarmonicCoeffs:
    """Spin harmonic coefficients, flat over (ell, m) with lm_index layout.

    Degrees below |spin| carry no content and must be exactly zero.
    real=True asserts the conjugate symmetry f_{l,-m} = (-1)^m conj(f_{lm}).
    """

    band_limit: int
    spin: int
    values: np.ndarray
    real: bool = False

    def __post_init__(self):
        if self.band_limit < 1:
            raise ValueError(f"band limit must be positive, got {self.band_limit}")
        if abs(self.spin) >= self.band_limit:
            raise ValueError(
                f"spin {self.spin} out of range for band limit {self.band_limit}"
            )
        self.values = np.asarray(self.values, dtype=complex)
        L = self.band_limit
        if self.values.shape != (L * L,):
            raise ValueError(
                f"expected {L * L} coefficients, got shape {self.values.shape}"
            )
        low = self.spin * self.spin
        if low and np.any(self.values[: low]):
            raise ValueError("degrees below |spin| must be exactly zero")
        if self.real and self.spin != 0:
            raise ValueError("real coefficient sets must have spin 0")

    def at(self, ell: int, m: int) -> complex:
        if not (0 <= ell < self.band_limit and abs(m) <= ell):
            raise ValueError(f"({ell}, {m}) out of range")
        return complex(self.values[lm_index(ell, m)])

    def degree_slice(self, ell: int) -> np.ndarray:
        return self.values[ell * ell : ell * ell + 2 * ell + 1]


def random_coeffs(
    L: int, spin: int, rng: np.random.Generator, real: bool = False
) -> HarmonicCoeffs:
    """Uniform random coefficients on [-1, 1]^2, zero below degree |spin|."""
    vals = rng.uniform(-1.0, 1.0, L * L) + 1j * rng.uniform(-1.0, 1.0, L * L)
    vals[: spin * spin] = 0.0
    if real:
        if spin != 0:
            raise ValueError("real coefficient sets must have spin 0")
        _impose_real_symmetry(vals, L)
    return HarmonicCoeffs(L, spin, vals, real=real)


def _lm_pairs(L: int):
    """Degree and order arrays of the flat lm_index layout below L."""
    ell = np.repeat(np.arange(L), 2 * np.arange(L) + 1)
    return ell, np.arange(L * L) - ell * ell - ell


def _impose_real_symmetry(vals: np.ndarray, L: int) -> None:
    """Rebuild m < 0 from m >= 0 as f_{l,-m} = (-1)^m conj(f_{lm}), in place.

    The m = 0 entries lose their imaginary part, so the symmetry holds
    exactly even where half-spectrum arithmetic left dust behind.
    """
    _, m = _lm_pairs(L)
    zero = m == 0
    vals[zero] = vals[zero].real
    neg = np.flatnonzero(m < 0)
    vals[neg] = alt_sign(m[neg]) * np.conj(vals[neg - 2 * m[neg]])


def _degree_amplitude(ell: int, spin: int) -> float:
    sign = -1.0 if spin % 2 else 1.0
    return sign * math.sqrt((2 * ell + 1) / (4.0 * math.pi))


def sht_forward(f: SphereSignal) -> HarmonicCoeffs:
    """Forward spin transform; exact for band-limited input.

    A real-flagged signal takes the half spectrum: an rfft along phi, the
    m >= 0 orders, and conjugate symmetry for the rest.
    """
    L = f.grid.band_limit
    s = f.spin
    if abs(s) >= L:
        raise ValueError(f"spin {s} out of range for band limit {L}")
    real = f.real
    K = 2 * L - 1
    c = L - 1
    m0 = 0 if real else c
    if real:
        G = sfft.rfft(f.values, axis=1, workers=fft_workers()) / K
    else:
        G = sfft.fft(np.asarray(f.values, dtype=complex), axis=1, workers=fft_workers()) / K
        G = np.fft.fftshift(G, axes=1)
    m = np.arange(G.shape[1]) - m0
    Ge = extend_poles(G, alt_sign(m + s), axis=0)
    X = np.fft.fftshift(sfft.fft(Ge, axis=0, workers=fft_workers()) / K, axes=0)
    X *= beta_bin_phase(L, -1)[:, None]
    Gw = (2.0 * math.pi) * weighted_convolve(X, axis=0)
    tab = halfpi_table(L)
    out = np.zeros(L * L, dtype=complex)
    for ell in range(abs(s), L):
        lo = 0 if real else -ell
        delta = tab.plane(ell)
        u = delta[:, ell - s]
        sub = Gw[c - ell : c + ell + 1, m0 + lo : m0 + ell + 1]
        row = np.einsum("pm,p,pm->m", delta[:, ell + lo :], u, sub)
        row *= _degree_amplitude(ell, s) * ipow_vec(np.arange(lo, ell + 1) + s)
        out[lm_index(ell, lo) : lm_index(ell, ell) + 1] = row
    if real:
        _impose_real_symmetry(out, L)
    return HarmonicCoeffs(L, s, out, real=real)


def sht_inverse(flm: HarmonicCoeffs) -> SphereSignal:
    """Evaluate coefficients on the grid of the matching band limit.

    Real-flagged coefficients are read on m >= 0 only and evaluate through
    an irfft along phi to a real-flagged signal.
    """
    L = flm.band_limit
    s = flm.spin
    real = flm.real
    K = 2 * L - 1
    c = L - 1
    m0 = 0 if real else c
    tab = halfpi_table(L)
    B = np.zeros((K, L if real else K), dtype=complex)
    for ell in range(abs(s), L):
        lo = 0 if real else -ell
        delta = tab.plane(ell)
        u = delta[:, ell - s]
        row = _degree_amplitude(ell, s) * flm.degree_slice(ell)[ell + lo :]
        B[c - ell : c + ell + 1, m0 + lo : m0 + ell + 1] += (
            u[:, None] * row[None, :]
        ) * delta[:, ell + lo :]
    m = np.arange(B.shape[1]) - m0
    B *= ipow_vec(-(m + s))[None, :]
    B *= beta_bin_phase(L, +1)[:, None]
    if real:
        C = sfft.ifft(np.fft.ifftshift(B, axes=0), axis=0, workers=fft_workers())
        F = sfft.irfft(C[:L] * float(K * K), n=K, axis=1, workers=fft_workers())
    else:
        F = sfft.ifft2(np.fft.ifftshift(B, axes=(0, 1)), workers=fft_workers())[:L]
        F *= float(K * K)
    return SphereSignal(SphereGrid(L), s, F, real=real)


def sht_forward_real(f: SphereSignal) -> HarmonicCoeffs:
    """Forward transform that insists on a real-flagged signal."""
    if not f.real:
        raise ValueError("sht_forward_real requires a real-flagged signal")
    return sht_forward(f)


def sht_inverse_real(flm: HarmonicCoeffs) -> SphereSignal:
    """Inverse transform that insists on real-flagged coefficients."""
    if not flm.real:
        raise ValueError("sht_inverse_real requires real-flagged coefficients")
    return sht_inverse(flm)
