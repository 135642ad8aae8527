"""Directional multiscale analysis and synthesis on the sphere.

Analysis lifts a band-limited spin signal into one rotation-group signal
per scale plus a low-frequency sphere signal.  Because the analysis
functions only populate the outermost harmonic columns, every scale
signal lives on the sparse fast path of the Wigner transforms, and the
whole decomposition inverts exactly: synthesis recovers the input to
machine precision whenever the tiling resolves the identity.

Scale signals default to their own reduced band limit (multi-resolution);
pass multires=False to keep everything at the full band limit.

Coefficients are always in the unrotated frame, where the n = +-ell
columns are the native storage.  rotate_to_north moves a scale's Wigner
coefficients to the frame whose analysis function is centred on the North
pole, which is the frame the coefficients are usually pictured in;
rotate_from_north undoes it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

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


def _coeff_grids(params: TilingParams, multires: bool) -> tuple:
    """(scaling band limit, [SO3Grid of each scale from j_min up]).

    Each at its own reduced band limit with multires, else at the full one.
    """
    L = params.band_limit
    scales = range(params.j_min, params.j_max + 1)
    if not multires:
        return L, [SO3Grid(L) for _ in scales]
    return scaling_band_limit(params), [SO3Grid(scale_band_limit(params, j)) for j in scales]


@dataclass
class CurveletCoeffs:
    """One scale signal per analysis band plus the low-frequency residue.

    A scale is an SO3Signal in memory, or, inside the command line, a
    _PendingSignal not synthesised yet or a section left in an open
    container (container._StoredSignal).
    """

    params: TilingParams
    scaling: SphereSignal
    scales: list
    multires: bool = True
    real: bool = False

    def __post_init__(self):
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


class _PendingSignal(NamedTuple):
    """A scale signal whose rotation-group synthesis has not run yet.

    emit() runs it and returns the SO3Signal.  emit(sink=sink) runs it
    and hands each block of beta rows to sink instead (see
    so3_inverse_curvelet), so no cube of samples is ever held.  Only the
    signal's harmonic coefficients wait in the meantime; the scale's
    Wigner coefficients are built when it is emitted.
    """

    grid: SO3Grid
    real: bool
    emit: Callable


def _emit_scale(so3_inv, flm: HarmonicCoeffs, t: Tiling, j: int, grid: SO3Grid, sink=None):
    """Synthesise scale j; its Wigner coefficients exist only during the call."""
    return so3_inv(_scale_wigner(flm, t, j, grid.L), grid, sink=sink)


def _analysis_stream(f: SphereSignal, t: Tiling, multires: bool) -> CurveletCoeffs:
    """The analysis of f with its scaling signal done and every scale pending.

    Each scale is a _PendingSignal built from the harmonic coefficients on
    its own when emitted, and the consumer chooses where its samples go:
    analyze gathers them, `scurve analyze` writes them to the container
    block by block, `scurve sparsity` reduces them to magnitudes.
    """
    _check_signal(f, t)
    p = t.params
    real = f.real
    sht_fwd, sht_inv, _, so3_inv = _stages(real)
    flm = sht_fwd(f)
    Ls, grids = _coeff_grids(p, multires)
    scaling_vals = _scaling_weights(t, Ls) * flm.values[: Ls * Ls]
    scaling = sht_inv(HarmonicCoeffs(Ls, 0, scaling_vals, real=real))
    scales = [
        _PendingSignal(grid, real, partial(_emit_scale, so3_inv, flm, t, j, grid))
        for j, grid in zip(range(p.j_min, p.j_max + 1), grids)
    ]
    return CurveletCoeffs(p, scaling, scales, multires, real)


def analyze(f: SphereSignal, t: Tiling, multires: bool = True) -> CurveletCoeffs:
    """Decompose a band-limited spin signal into directional scale signals.

    A real-flagged signal yields real-flagged coefficients: its scale
    signals are real on the rotation group, so the Wigner stages run on
    half the orientation spectrum and cost roughly half as much.
    """
    c = _analysis_stream(f, t, multires)
    c.scales = [pending.emit() for pending in c.scales]
    return c


def synthesize(c: CurveletCoeffs, t: Tiling) -> SphereSignal:
    """Reassemble the sphere signal from its scale signals; exact.

    Real-flagged coefficients synthesise through the half-spectrum Wigner
    transforms to a real-flagged signal.  A scale's values are read one
    block of beta rows at a time (so3_forward_curvelet), so scales left in
    their container are never held whole.  A scale or scaling signal with
    a non-finite sample raises ValueError.
    """
    p = t.params
    if c.params != p:
        raise ValueError("coefficients were built for a different tiling")
    if not np.isfinite(c.scaling.values).all():
        raise ValueError("the scaling signal holds non-finite samples")
    L = p.band_limit
    sht_fwd, sht_inv, so3_fwd, _ = _stages(c.real)
    acc = np.zeros(L * L, dtype=complex)
    grids = _coeff_grids(p, c.multires)[1]
    for j, sig, grid in zip(range(p.j_min, p.j_max + 1), c.scales, grids):
        if sig.grid != grid:
            raise ValueError(f"scale {j} stored at band limit {sig.grid.L}, expected {grid.L}")
        pos, neg = curvelet_harmonics(t, j)
        # The scale's Wigner rows below its kernel's lowest degree are
        # multiplied by zero, so the transform does not compute them.
        degrees = np.flatnonzero((pos != 0) | (neg != 0))
        w = so3_fwd(sig, L0=int(degrees[0]) if len(degrees) else L)
        # The FFTs spread a non-finite sample to the coefficients: O(L^2) to check.
        if not np.isfinite(w.values).all():
            raise ValueError(f"scale {j} holds non-finite samples")
        ell, col = _sheet_index(w.band_limit)
        acc[1 : w.band_limit**2] += (
            w.values[0, ell, col] * pos[ell] + w.values[1, ell, col] * neg[ell]
        )
    slm = sht_fwd(c.scaling)
    Ls = slm.band_limit
    acc[: Ls * Ls] += _scaling_weights(t, Ls) * slm.values
    acc[: p.spin * p.spin] = 0.0
    if c.real:
        # Half-spectrum dust can leave the symmetry broken at the last
        # digit; re-impose it exactly before handing the coefficients on.
        _impose_real_symmetry(acc)
    return sht_inv(HarmonicCoeffs(L, p.spin, acc, real=c.real))


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

