"""Directional multiscale analysis and synthesis on the sphere.

Analysis lifts a band-limited spin signal into one rotation-group signal
per scale plus a low-frequency sphere signal.  Because the analysis
functions only populate the outermost harmonic columns, every scale
signal lives on the sparse fast path of the Wigner transforms, and the
whole decomposition inverts exactly: synthesis recovers the input to
machine precision whenever the tiling resolves the identity.

Scale signals default to their own reduced band limit (multi-resolution);
pass multires=False to keep everything at the full band limit.

Coefficients come out in the unrotated frame, where the n = +-ell columns
are the native storage.  rotate_to_north moves a scale to the frame whose
analysis function is centred on the North pole, which is the frame the
coefficients are usually pictured in; rotate_from_north undoes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere import (
    HarmonicCoeffs,
    SphereGrid,
    SphereSignal,
    _impose_real_symmetry,
    _lm_pairs,
    sht_forward,
    sht_forward_real,
    sht_inverse,
    sht_inverse_real,
)
from .so3 import (
    CurveletWignerCoeffs,
    SO3Grid,
    WignerCoeffs,
    so3_forward_curvelet,
    so3_forward_curvelet_real,
    so3_inverse_curvelet,
    so3_inverse_curvelet_real,
)
from .tiling import Tiling, TilingParams, curvelet_harmonics
from .wigner import wigner_d_edge_columns

__all__ = [
    "CurveletCoeffs",
    "analyze",
    "analyze_real",
    "rotate_from_north",
    "rotate_to_north",
    "scale_band_limit",
    "scaling_band_limit",
    "synthesize",
    "synthesize_real",
]


def scale_band_limit(params: TilingParams, j: int) -> int:
    """Smallest band limit that holds scale j losslessly."""
    if not params.j_min <= j <= params.j_max:
        raise ValueError(f"scale {j} outside [{params.j_min}, {params.j_max}]")
    return min(math.ceil(params.lam ** (j + 1)), params.band_limit)


def scaling_band_limit(params: TilingParams) -> int:
    """Smallest band limit that holds the low-frequency part losslessly."""
    return min(math.ceil(params.lam**params.j_min), params.band_limit)


@dataclass
class CurveletCoeffs:
    """One scale signal per analysis band plus the low-frequency residue.

    frame is "unrotated" or "north"; only unrotated coefficients can be
    synthesised directly.
    """

    params: TilingParams
    frame: str
    scaling: SphereSignal
    scales: list
    multires: bool = True
    real: bool = False

    def __post_init__(self):
        if self.frame not in ("unrotated", "north"):
            raise ValueError(f"unknown frame {self.frame!r}")
        if len(self.scales) != self.params.scale_count:
            raise ValueError(
                f"expected {self.params.scale_count} scale signals, got {len(self.scales)}"
            )

    def scale(self, j: int):
        if not self.params.j_min <= j <= self.params.j_max:
            raise ValueError(f"scale {j} out of range")
        return self.scales[j - self.params.j_min]


def _sheet_index(Lj: int):
    """Degree and sheet column of every flat lm entry with 1 <= ell < Lj."""
    ell, m = _lm_pairs(Lj)
    return ell[1:], m[1:] + Lj - 1


def _scale_wigner(flm: HarmonicCoeffs, t: Tiling, j: int, Lj: int) -> CurveletWignerCoeffs:
    """Sparse Wigner coefficients of scale j from sphere coefficients."""
    pos, neg = curvelet_harmonics(t, j)
    ell, col = _sheet_index(Lj)
    row = (8.0 * math.pi**2 / (2 * ell + 1)) * flm.values[1 : Lj * Lj]
    w = CurveletWignerCoeffs.zeros(Lj)
    w.values[0, ell, col] = row * pos[ell]
    w.values[1, ell, col] = row * neg[ell]
    return w


def _check_signal(f: SphereSignal, t: Tiling) -> None:
    p = t.params
    if f.grid.band_limit != p.band_limit:
        raise ValueError(
            f"signal band limit {f.grid.band_limit} does not match tiling {p.band_limit}"
        )
    if f.spin != p.spin:
        raise ValueError(f"signal spin {f.spin} does not match tiling spin {p.spin}")


def _scaling_weights(t: Tiling, Ls: int) -> np.ndarray:
    """Factors t.scaling[ell] sqrt(4 pi/(2 ell + 1)) over the flat lm layout."""
    ells = np.arange(Ls)
    amp = t.scaling[:Ls] * np.sqrt(4.0 * math.pi / (2 * ells + 1))
    return np.repeat(amp, 2 * ells + 1)


def _stages(real: bool):
    """Sphere forward/inverse and rotation-group forward/inverse of one path.

    The real path calls the strict *_real names, which perfbench/tracer.py
    wraps under names of their own.
    """
    if real:
        return (sht_forward_real, sht_inverse_real,
                so3_forward_curvelet_real, so3_inverse_curvelet_real)
    return sht_forward, sht_inverse, so3_forward_curvelet, so3_inverse_curvelet


def _analysis_stream(f: SphereSignal, t: Tiling, multires: bool):
    """Yield the scaling signal, then each scale signal from j_min up.

    This is the section order of a coefficient container.  Each scale is
    built from the harmonic coefficients on its own, and the generator
    keeps no reference to a signal it has yielded, so a consumer that
    drops each one before asking for the next holds one scale at a time.
    """
    _check_signal(f, t)
    p = t.params
    L = p.band_limit
    real = f.real
    sht_fwd, sht_inv, _, so3_inv = _stages(real)
    flm = sht_fwd(f)
    Ls = scaling_band_limit(p) if multires else L
    scaling_vals = _scaling_weights(t, Ls) * flm.values[: Ls * Ls]
    yield sht_inv(HarmonicCoeffs(Ls, 0, scaling_vals, real=real))
    for j in range(p.j_min, p.j_max + 1):
        Lj = scale_band_limit(p, j) if multires else L
        yield so3_inv(_scale_wigner(flm, t, j, Lj), SO3Grid(Lj, Lj, Lj))


def analyze(f: SphereSignal, t: Tiling, multires: bool = True) -> CurveletCoeffs:
    """Decompose a band-limited spin signal into directional scale signals.

    A real-flagged signal yields real-flagged coefficients: its scale
    signals are real on the rotation group, so the Wigner stages run on
    half the orientation spectrum and cost roughly half as much.
    """
    scaling, *scales = _analysis_stream(f, t, multires)
    return CurveletCoeffs(t.params, "unrotated", scaling, scales, multires, real=f.real)


def _check_synthesizable(params: TilingParams, frame: str, t: Tiling) -> None:
    if params != t.params:
        raise ValueError("coefficients were built for a different tiling")
    if frame != "unrotated":
        raise ValueError("synthesis needs unrotated coefficients; apply rotate_from_north first")


def _synthesis_from(t: Tiling, scaling: SphereSignal, scales, multires: bool, real: bool):
    """Synthesis from the scaling signal and an iterator of scale signals.

    The scales are taken from j_min up, one at a time, and each is dropped
    once its Wigner rows are summed, so an iterator that reads them from
    a file holds one scale at a time.
    """
    p = t.params
    L = p.band_limit
    sht_fwd, sht_inv, so3_fwd, _ = _stages(real)
    acc = np.zeros(L * L, dtype=complex)
    for j in range(p.j_min, p.j_max + 1):
        sig = next(scales)
        expected = scale_band_limit(p, j) if multires else L
        if sig.grid.L != expected:
            raise ValueError(f"scale {j} stored at band limit {sig.grid.L}, expected {expected}")
        w = so3_fwd(sig)
        del sig  # the cube goes before the next scale is read
        pos, neg = curvelet_harmonics(t, j)
        ell, col = _sheet_index(w.band_limit)
        acc[1 : w.band_limit**2] += (
            w.values[0, ell, col] * pos[ell] + w.values[1, ell, col] * neg[ell]
        )
    slm = sht_fwd(scaling)
    Ls = slm.band_limit
    acc[: Ls * Ls] += _scaling_weights(t, Ls) * slm.values
    acc[: p.spin * p.spin] = 0.0
    if real:
        # Half-spectrum dust can leave the symmetry broken at the last
        # digit; re-impose it exactly before handing the coefficients on.
        _impose_real_symmetry(acc)
    return sht_inv(HarmonicCoeffs(L, p.spin, acc, real=real))


def synthesize(c: CurveletCoeffs, t: Tiling) -> SphereSignal:
    """Reassemble the sphere signal from its scale signals; exact.

    Real-flagged coefficients synthesise through the half-spectrum Wigner
    transforms to a real-flagged signal.
    """
    _check_synthesizable(c.params, c.frame, t)
    return _synthesis_from(t, c.scaling, iter(c.scales), c.multires, c.real)


def analyze_real(f: SphereSignal, t: Tiling, multires: bool = True) -> CurveletCoeffs:
    """analyze() that insists on a real-flagged signal."""
    if not f.real:
        raise ValueError("analyze_real requires a real-flagged signal")
    return analyze(f, t, multires)


def synthesize_real(c: CurveletCoeffs, t: Tiling) -> SphereSignal:
    """synthesize() that insists on real-flagged coefficients."""
    if not c.real:
        raise ValueError("synthesize_real requires real-flagged coefficients")
    return synthesize(c, t)


def rotate_to_north(w: CurveletWignerCoeffs, j: int, t: Tiling) -> WignerCoeffs:
    """Move a scale's coefficients to the frame of the pole-centred function.

    The unrotated analysis function peaks along a ring of colatitude
    vartheta; rotating it onto the North pole densifies the coefficient
    planes, which is why this frame is for inspection rather than storage.
    """
    if not isinstance(w, CurveletWignerCoeffs):
        raise TypeError("rotate_to_north expects sparse coefficients")
    p = t.params
    if not p.j_min <= j <= p.j_max:
        raise ValueError(f"scale {j} outside [{p.j_min}, {p.j_max}]")
    theta = float(t.angles[j - p.j_min])
    L = w.band_limit
    dense = WignerCoeffs.zeros(L)
    c = L - 1
    for ell in range(L):
        dpos, dneg = wigner_d_edge_columns(ell, theta)
        plane = np.outer(w.values[0, ell, c - ell : c + ell + 1], dpos)
        if ell > 0:
            plane += np.outer(w.values[1, ell, c - ell : c + ell + 1], dneg)
        dense.planes[ell][:] = plane
    return dense


def rotate_from_north(w: WignerCoeffs, j: int, t: Tiling) -> CurveletWignerCoeffs:
    """Inverse of rotate_to_north; exact on its image."""
    if not isinstance(w, WignerCoeffs):
        raise TypeError("rotate_from_north expects dense coefficients")
    p = t.params
    if not p.j_min <= j <= p.j_max:
        raise ValueError(f"scale {j} outside [{p.j_min}, {p.j_max}]")
    theta = float(t.angles[j - p.j_min])
    L = w.band_limit
    out = CurveletWignerCoeffs.zeros(L)
    c = L - 1
    for ell in range(L):
        dpos, dneg = wigner_d_edge_columns(ell, theta)
        out.values[0, ell, c - ell : c + ell + 1] = w.planes[ell] @ dpos
        if ell > 0:
            out.values[1, ell, c - ell : c + ell + 1] = w.planes[ell] @ dneg
    return out

