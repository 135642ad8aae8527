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

Every transform runs on one colatitude-bin kernel (_beta_to_bins and its
inverse _bins_to_beta), which moves a stack of alpha spectra between the
beta nodes and weighted centred (beta bin, alpha bin) planes.  Degree ell
reads only the alpha bins |m| <= ell, so the kernel is told the largest
degree h its planes serve and transforms only the 2h+1 alpha columns
|m| <= h.  The curvelet transforms batch gamma frequencies in order of
|n| and pass each batch's largest |n|, which brings their beta work
towards half of full width as L grows (0.58 at L = 32, 0.52 at L = 128);
the sphere and general transforms read every degree and pass the full
width.  The batches run on a pool of fft_workers() threads, and so do the
whole-cube FFTs over gamma and alpha, in blocks of beta rows.  Every
batch or block writes only its own rows, so results are bitwise the same
for any worker count.

Those whole-cube FFTs are the only steps that touch the samples, so a
curvelet transform needs one beta block of a cube at a time, not the
cube: the forward transform reads its input as values[rows], block by
block, and the inverse hands each finished block to a sink.  In memory
these are the cube's own rows; the coefficient container supplies a
section that reads or writes each block in its file, which is how
`scurve analyze` and `scurve synthesize` run without holding a cube.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy import fft as sfft

from .fourier import fft_workers, weighted_convolve
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
# runs on whole sub-cubes instead of one slice at a time.  Batches of 8 keep
# two pool workers' planes within what one worker held with batches of 16.
_CHUNK = 8

# Beta rows per block of the whole-cube FFTs, which bounds their transient
# copies and shares them between the pool's threads.
_BETA_BLOCK = 8

# Stacks of _CHUNK bin planes a pool worker holds at its peak in the
# curvelet transforms: _beta_to_bins's extension and recentred copy, then
# the convolution's padded buffer.  Fitted with scripts/cli_peaks.py.
_PLANE_STACKS = 2.5


def _curvelet_peak_parts(L: int, real: bool, workers: int) -> dict:
    """Estimated bytes, by component, of one block-streamed curvelet transform.

    The spectrum over gamma and alpha (half of it on the real path), the
    half-pi table, each worker's bin planes and each worker's beta block
    of samples; a transform that reads or writes its samples block by
    block holds no whole cube.
    """
    K = 2 * L - 1
    return {
        "spectrum": (L if real else K) * L * K * 16,
        "table": 8 * L * (2 * L - 1) * (2 * L + 1) // 3,  # sum of (2l+1)^2 doubles, l < L
        "planes": int(workers * _PLANE_STACKS * _CHUNK * K * K * 16),
        "blocks": workers * K * min(_BETA_BLOCK, L) * K * (8 if real else 16),
    }


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


def _beta_blocks(L: int) -> list:
    """Slices of _BETA_BLOCK beta rows covering L rows."""
    return [np.s_[:, lo : lo + _BETA_BLOCK] for lo in range(0, L, _BETA_BLOCK)]


def _analysis_spectrum(values, real: bool = False) -> np.ndarray:
    """FFT over gamma and alpha, normalised to Fourier coefficients.

    One fft2 per block of beta rows; a real signal keeps only the gamma
    frequencies n >= 0 (an rfft, then the alpha FFT in place).  values is
    read only as values.shape and values[rows], one slice of _beta_blocks
    at a time: an array, or a stored section that reads each block of
    rows from its file.  The caller's values are never overwritten.
    """
    G, L, Ka = values.shape
    W = np.empty((G // 2 + 1 if real else G, L, Ka), dtype=complex)

    def block(rows):
        if real:
            sfft.rfft(values[rows], axis=0, norm="forward", out=W[rows])
            sfft.fft(W[rows], axis=2, norm="forward", out=W[rows])
        else:
            sfft.fft2(values[rows], axes=(0, 2), norm="forward", out=W[rows])

    _run_chunks(block, _beta_blocks(L))
    return W


def _synthesis_blocks(spectrum: np.ndarray, real: bool, sink) -> None:
    """Invert the gamma FFT of a spectrum and hand each block of beta rows to sink.

    spectrum holds all 2N-1 gamma frequencies, or only n >= 0 when real.
    Per block of beta rows, on the pool, sink(rows, fill) is called with
    a function fill(dst) that writes the block's samples into dst, an
    array of the block's shape and dtype (float when real, complex
    otherwise).  The sink decides where the block goes: sampled into a
    cube (_array_sink), written to a file, or reduced.  The ifft of the
    complex path may run in place, so the spectrum is left undefined.
    """
    K = 2 * spectrum.shape[0] - 1  # used by the real path only

    def block(rows):
        def fill(dst):
            if real:
                sfft.irfft(spectrum[rows], n=K, axis=0, norm="forward", out=dst)
            else:
                sfft.ifft(spectrum[rows], axis=0, norm="forward", out=dst)

        sink(rows, fill)

    _run_chunks(block, _beta_blocks(spectrum.shape[1]))


def _array_sink(values: np.ndarray):
    """The in-memory sink: each block is computed straight into values[rows]."""
    return lambda rows, fill: fill(values[rows])


def _gamma_order(L: int, real: bool) -> list:
    """Gamma frequencies of the curvelet transforms in batch order.

    Ordered by |n| so that each batch of _CHUNK spans few degrees and its
    bin planes stay narrow; a real signal needs only n >= 0.
    """
    return sorted(range(0 if real else 1 - L, L), key=abs)


@lru_cache
def _pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="scurve")


# A forked child inherits the cached pool but none of its threads, so work
# handed to it would never run; the child builds its own pool instead.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _gamma_chunks(ns) -> list:
    """Batches of _CHUNK gamma frequencies of ns."""
    return [ns[lo : lo + _CHUNK] for lo in range(0, len(ns), _CHUNK)]


def _run_chunks(task, items) -> None:
    """Call task on each work item: a gamma batch or a block of beta rows.

    The items share fft_workers() threads, since pocketfft releases the
    GIL; with one worker they run inline and no thread starts.  The first
    error is raised only once no task is running any more, so a task never
    outlives its call, nor writes to a file its caller has closed.
    """
    workers = fft_workers()
    if workers == 1:
        for item in items:
            task(item)
        return
    futures = [_pool(workers).submit(task, item) for item in items]
    try:
        for future in futures:
            future.result()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


def _beta_to_bins(W: np.ndarray, ns, h: int) -> np.ndarray:
    """Weighted centred (beta bin, alpha bin) planes of alpha spectra.

    W[n % len(W)] is the alpha spectrum, in FFT order, of gamma frequency
    n at the L beta nodes.  Degree ell reads only the alpha bins
    |m| <= ell, so the planes of a stack whose degrees stay at or below h
    keep only those 2h+1 alpha columns, gathered before any beta work.
    Each plane is extended through the poles with parity (-1)^(m + n),
    transformed along beta, recentred, stripped of the node offset and
    weighted by sin(beta).  The planes are gathered beta-last, so all of
    that runs along the contiguous last axis; the result is a (len(ns),
    2L-1, 2h+1) transposed view.
    """
    L, Ka = W.shape[1:]
    ms = np.arange(-h, h + 1)
    E = np.empty((len(ns), 2 * h + 1, 2 * L - 1), dtype=complex)
    for i, n in enumerate(ns):
        P = W[n % len(W)][:, ms % Ka].T
        E[i, :, :L] = P
        # Beta node b >= L is the reflection of node 2L-2-b through beta = pi.
        np.multiply(P[:, L - 2 :: -1], alt_sign(n + ms)[:, None], out=E[i, :, L:])
    # In place and with E dropped, so a chunk holds fewer stacks of planes;
    # at L = 128 this cut peak RSS by 45 MiB on two workers and the round
    # trip by a quarter on one core (BENCH_9.json, supplementary).
    sfft.fft(E, norm="forward", out=E)
    # Recentre the bins (an fftshift) and strip the node offset in one pass.
    phase = np.exp(-1j * np.arange(1 - L, L) * (math.pi / (2 * L - 1)))
    X = np.empty_like(E)
    np.multiply(E[..., L:], phase[: L - 1], out=X[..., : L - 1])
    np.multiply(E[..., :L], phase[L - 1 :], out=X[..., L - 1 :])
    del E
    Y = weighted_convolve(X, axis=-1)
    Y *= 4.0 * math.pi**2
    return Y.swapaxes(1, 2)


def _bins_to_beta(X: np.ndarray, L: int, Ka: int) -> np.ndarray:
    """Grid samples of centred (beta bin, alpha bin) planes.

    X holds one plane or a stack of them in its last two axes, with the
    node-offset phase already applied (_column_bins does so).  A plane
    holds only the 2h+1 centred alpha bins its degrees reach (|m| <= h),
    so beta is inverted on those columns alone; the L beta nodes on
    (0, pi] are then scattered into a zeroed alpha spectrum of length Ka
    for one alpha inversion.
    """
    h = X.shape[-1] // 2
    # Undo the recentring (an ifftshift) while copying beta-last, so the
    # beta transform runs along the contiguous last axis.
    B = np.empty(X.shape[:-2] + (2 * h + 1, 2 * L - 1), dtype=complex)
    B[..., :L] = X[..., L - 1 :, :].swapaxes(-1, -2)
    B[..., L:] = X[..., : L - 1, :].swapaxes(-1, -2)
    sfft.ifft(B, norm="forward", out=B)
    S = np.zeros(X.shape[:-2] + (L, Ka), dtype=complex)
    S[..., np.arange(-h, h + 1) % Ka] = B[..., :L].swapaxes(-1, -2)
    return sfft.ifft(S, norm="forward", out=S)


def _wigner_column(Y: np.ndarray, tab, n: int, ell: int) -> np.ndarray:
    """Column n of degree ell's coefficient plane, read off the centred bins Y."""
    delta = tab.plane(ell)
    cr, cc = Y.shape[0] // 2, Y.shape[1] // 2
    sub = Y[cr - ell : cr + ell + 1, cc - ell : cc + ell + 1]
    row = np.einsum("pm,p,pm->m", delta, delta[:, n + ell], sub)
    return row * ipow_vec(np.arange(-ell, ell + 1) - n)


def _column_bins(X: np.ndarray, row: np.ndarray, tab, n: int, ell: int) -> None:
    """Add the bin block of column n of degree ell to X, node-offset phase included."""
    delta = tab.plane(ell)
    row = row * ((2 * ell + 1) / (8.0 * math.pi**2)) * ipow_vec(n - np.arange(-ell, ell + 1))
    cr, cc = X.shape[0] // 2, X.shape[1] // 2
    u = delta[:, n + ell] * np.exp(1j * np.arange(-ell, ell + 1) * (math.pi / X.shape[0]))
    X[cr - ell : cr + ell + 1, cc - ell : cc + ell + 1] += delta * u[:, None] * row


def so3_forward_curvelet(f: SO3Signal) -> CurveletWignerCoeffs:
    """Forward Wigner transform onto the n = +-ell columns; O(L^3 log L).

    Exact when the signal is a synthesis of such columns, which is the
    only way curvelet analysis produces rotation-group signals.  A
    real-flagged signal runs on half the gamma spectrum.  f.values is read
    one block of beta rows at a time (_analysis_spectrum), so it may be a
    stored section that reads each block from its file.
    """
    grid = f.grid
    L = grid.L
    if not (grid.M == L and grid.N == L):
        raise ValueError("sparse path requires N = M = L")
    W1 = _analysis_spectrum(f.values, real=f.real)
    out = CurveletWignerCoeffs.zeros(L)
    tab = halfpi_table(L)

    def forward_chunk(chunk):
        Y = _beta_to_bins(W1, chunk, max(map(abs, chunk)))
        for i, n in enumerate(chunk):
            out.set_row(n, _wigner_column(Y[i], tab, n, abs(n)))

    _run_chunks(forward_chunk, _gamma_chunks(_gamma_order(L, f.real)))
    if f.real:
        _impose_real_pairing(out.values)
    return out


def _impose_real_pairing(v: np.ndarray) -> None:
    """Rebuild the n = -ell sheet of curvelet values from the n = +ell one.

    Reality ties the two columns: the n = -ell row is the conjugate
    reversal of the n = +ell one up to parity, and the degree-zero entry
    is real.  Works in place.
    """
    L = v.shape[1]
    v[0, 0] = v[0, 0].real
    v[1, 1:] = alt_sign(np.arange(1, L)[:, None] + np.arange(1 - L, L)) * np.conj(v[0, 1:, ::-1])


def _check_real(values: np.ndarray, impose) -> None:
    """Raise ValueError unless the in-place symmetrizer impose moves values by round-off."""
    sym = values.copy()
    impose(sym)
    sym -= values
    if np.abs(sym).max() > 1e-12 * np.abs(values).max():
        raise ValueError("coefficients lack the conjugate symmetry of a real signal")


def _so3_inverse_curvelet(
    w: CurveletWignerCoeffs, grid: SO3Grid, real: bool, sink=None
) -> SO3Signal | None:
    """Sparse synthesis; real=True sums only n >= 0 and ends in an irfft.

    With a sink, the blocks of beta rows go to sink (_synthesis_blocks)
    instead of into a returned signal, and None is returned.
    """
    if not isinstance(w, CurveletWignerCoeffs):
        raise TypeError("sparse synthesis requires CurveletWignerCoeffs")
    L = w.band_limit
    if not (grid.L == L and grid.M == L and grid.N == L):
        raise ValueError("sparse path requires a grid with N = M = L matching the coefficients")
    if real:
        _check_real(w.values, _impose_real_pairing)
    K = 2 * L - 1
    tab = halfpi_table(L)
    ns = _gamma_order(L, real)
    out = np.empty((len(ns), L, K), dtype=complex)

    def inverse_chunk(chunk):
        h = max(map(abs, chunk))
        X = np.zeros((len(chunk), K, 2 * h + 1), dtype=complex)
        for i, n in enumerate(chunk):
            _column_bins(X[i], w.row(n), tab, n, abs(n))
        out[[n % K for n in chunk]] = _bins_to_beta(X, L, K)

    _run_chunks(inverse_chunk, _gamma_chunks(ns))
    if sink is not None:
        _synthesis_blocks(out, real, sink)
        return None
    # The complex samples overwrite their spectrum in place.
    values = np.empty((K, L, K)) if real else out
    _synthesis_blocks(out, real, _array_sink(values))
    return SO3Signal(grid, values, real=real)


def so3_inverse_curvelet(
    w: CurveletWignerCoeffs, grid: SO3Grid, *, sink=None
) -> SO3Signal | None:
    """Synthesis of sparse column coefficients onto the grid; O(L^3 log L).

    sink, when given, receives the samples one block of beta rows at a
    time, as sink(rows, fill), and nothing is returned; `scurve analyze`
    passes one that writes each block into its container.
    """
    return _so3_inverse_curvelet(w, grid, False, sink)


def so3_forward_general(f: SO3Signal, band_limit: int | None = None) -> WignerCoeffs:
    """Dense forward Wigner transform, O(L^4); the reference path."""
    grid = f.grid
    L = grid.L if band_limit is None else band_limit
    if L > min(grid.L, grid.M, grid.N):
        raise ValueError(f"band limit {L} exceeds grid {grid}")
    W1 = _analysis_spectrum(f.values)
    tab = halfpi_table(L)
    out = WignerCoeffs.zeros(L)
    for n in range(-(L - 1), L):
        Y = _beta_to_bins(W1, [n], grid.M - 1)[0]
        for ell in range(abs(n), L):
            out.planes[ell][:, n + ell] = _wigner_column(Y, tab, n, ell)
    return out


def so3_inverse_general(w: WignerCoeffs, grid: SO3Grid) -> SO3Signal:
    """Dense synthesis onto the grid, O(L^4); the reference path."""
    if isinstance(w, CurveletWignerCoeffs):
        raise TypeError("dense synthesis requires WignerCoeffs; use densify() first")
    L = w.band_limit
    if L > min(grid.L, grid.M, grid.N):
        raise ValueError(f"band limit {L} exceeds grid {grid}")
    tab = halfpi_table(L)
    out = np.zeros(grid.shape, dtype=complex)
    for n in range(-(L - 1), L):
        X = np.zeros((2 * grid.L - 1, 2 * grid.M - 1), dtype=complex)
        for ell in range(abs(n), L):
            _column_bins(X, w.planes[ell][:, n + ell], tab, n, ell)
        out[n % (2 * grid.N - 1)] = _bins_to_beta(X, grid.L, 2 * grid.M - 1)
    _synthesis_blocks(out, False, _array_sink(out))
    return SO3Signal(grid, out)


def so3_forward_curvelet_real(f: SO3Signal) -> CurveletWignerCoeffs:
    """Sparse forward transform that insists on a real-flagged signal."""
    if not f.real:
        raise ValueError("real path requires a real-flagged signal")
    return so3_forward_curvelet(f)


def so3_inverse_curvelet_real(
    w: CurveletWignerCoeffs, grid: SO3Grid, *, sink=None
) -> SO3Signal | None:
    """Sparse synthesis straight to real samples via half the gamma spectrum.

    The coefficients must carry the conjugate symmetry of a real signal,
    which implies the negative gamma frequencies; ValueError otherwise.
    sink works as in so3_inverse_curvelet.
    """
    return _so3_inverse_curvelet(w, grid, True, sink)
