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

# weighted_convolve is not called here: the transforms reach it through
# the shared bin kernel in so3.  It stays bound because perfbench/tracer.py
# wraps scurve.sphere.weighted_convolve by name.
from .fourier import fft_workers, weighted_convolve  # noqa: F401
from .so3 import _beta_to_bins, _bins_to_beta, _check_real, _column_bins, _wigner_column
from .wigner import alt_sign, halfpi_table

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
    real=True asserts the conjugate symmetry f_{l,-m} = (-1)^m conj(f_{lm}),
    which is checked to round-off.
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
        if self.real:
            if self.spin != 0:
                raise ValueError("real coefficient sets must have spin 0")
            _check_real(self.values, _impose_real_symmetry)

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
        _impose_real_symmetry(vals)
    return HarmonicCoeffs(L, spin, vals, real=real)


def _lm_pairs(L: int):
    """Degree and order arrays of the flat lm_index layout below L."""
    ell = np.repeat(np.arange(L), 2 * np.arange(L) + 1)
    return ell, np.arange(L * L) - ell * ell - ell


def _impose_real_symmetry(vals: np.ndarray) -> None:
    """Rebuild m < 0 from m >= 0 as f_{l,-m} = (-1)^m conj(f_{lm}), in place.

    The m = 0 entries lose their imaginary part, so the symmetry holds
    exactly even where arithmetic left dust behind.
    """
    _, m = _lm_pairs(math.isqrt(vals.size))
    zero = m == 0
    vals[zero] = vals[zero].real
    neg = np.flatnonzero(m < 0)
    vals[neg] = alt_sign(m[neg]) * np.conj(vals[neg - 2 * m[neg]])


def _column_scale(ell: int, spin: int) -> float:
    """Wigner column n = -spin of f(beta, alpha) exp(-i spin gamma) over f_lm.

    The sphere transforms are that column of the rotation-group ones:
    (8 pi^2/(2 ell + 1)) (-1)^spin sqrt((2 ell + 1)/(4 pi)).
    """
    sign = -1.0 if spin % 2 else 1.0
    return sign * 8.0 * math.pi**2 / math.sqrt(4.0 * math.pi * (2 * ell + 1))


def sht_forward(f: SphereSignal) -> HarmonicCoeffs:
    """Forward spin transform; exact for band-limited input.

    A real-flagged signal yields real-flagged coefficients, whose m < 0
    half is rebuilt from m >= 0 so the symmetry holds exactly.
    """
    L = f.grid.band_limit
    s = f.spin
    if abs(s) >= L:
        raise ValueError(f"spin {s} out of range for band limit {L}")
    W = sfft.fft(f.values, axis=1, norm="forward", workers=fft_workers())
    Y = _beta_to_bins(W[None], [-s])[0]
    tab = halfpi_table(L)
    out = np.zeros(L * L, dtype=complex)
    for ell in range(abs(s), L):
        out[ell * ell : (ell + 1) ** 2] = _wigner_column(Y, tab, -s, ell) / _column_scale(ell, s)
    if f.real:
        _impose_real_symmetry(out)
    return HarmonicCoeffs(L, s, out, real=f.real)


def sht_inverse(flm: HarmonicCoeffs) -> SphereSignal:
    """Evaluate coefficients on the grid of the matching band limit.

    Real-flagged coefficients evaluate to a real-flagged signal.
    """
    L = flm.band_limit
    s = flm.spin
    tab = halfpi_table(L)
    X = np.zeros((2 * L - 1, 2 * L - 1), dtype=complex)
    for ell in range(abs(s), L):
        _column_bins(X, _column_scale(ell, s) * flm.degree_slice(ell), tab, -s, ell)
    F = _bins_to_beta(X, L)
    return SphereSignal(SphereGrid(L), s, F.real if flm.real else F, real=flm.real)


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
