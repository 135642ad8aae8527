"""Exact Wigner transforms on the rotation group.

Sampling mirrors the sphere layout: odd counts along the two periodic
Euler angles, offset nodes along the colatitude-like second angle.  A
signal cube is indexed (gamma, beta, alpha).

The transforms run on CurveletWignerCoeffs, which keep only the two
outermost columns n = +-l of every degree, the support of directional
analysis signals; they cost O(L^3 log L) because each gamma frequency n
then touches exactly one degree.  WignerCoeffs holds full (2l+1)^2
planes, the layout rotate_to_north returns.

The forward transforms run on one colatitude-bin kernel (_beta_to_bins),
which moves a stack of centred alpha spectra at the beta nodes to
weighted centred (beta bin, alpha bin) planes.  Degree ell reads only the
bins |m'|, |m| <= ell, so the kernel is told the largest degree h its
planes serve and transforms only the alpha columns and keeps only the
beta bins up to h, in one buffer padded for the convolution: the
curvelet transforms batch gamma frequencies in order of |n| and pass each
batch's largest |n|, the sphere transforms the full width.  The plane
of alpha order m and gamma frequency n is even or odd in its beta bins,
with parity (-1)^(m+n), and the kernel keeps only its fold onto p >= 0,
so two frequencies of opposite parity share its beta FFT and convolution.
The inverse curvelet transform needs no bins: gamma frequency n holds
only the edge column of degree |n|, whose colatitude profile has a closed
form (wigner._edge_nodes), so _curvelet_nodes evaluates a batch's alpha
spectra at the beta nodes directly, in O(L^3) with no beta FFT.

Each kernel runs a batch by blocks of orders +-m (_Block) in a buffer
within _BIN_BUDGET, and the block width changes no bit.  The batches, and
the whole-cube FFTs over gamma and alpha by blocks of beta rows, run on a
pool of fft_workers() threads; each writes only its own rows, so results
are bitwise the same for any worker count.

Between the bins and the coefficients sits Delta = d(pi/2), of which the
half-pi table keeps the m', m >= 0 quadrant.  _block_columns and
_add_column_bins read it through the reflections Delta_{-m',m} =
(-1)^(ell+m) Delta_{m'm} and Delta_{m',-m} = (-1)^(ell+m') Delta_{m'm},
a batch of columns at once, the quadrants of its degrees zero-padded to
the largest, so the numpy calls per batch do not grow with its size.

The curvelet transforms keep their gamma spectrum in a ragged layout.
A scale signal has Wigner content only in the columns n = +-ell, so at
gamma frequency n its (n, m) Fourier coefficients vanish beyond the
alpha orders |m| <= |n|; the spectrum keeps, for each of the L beta
nodes, only that triangle (_triangle), T = 2L^2 - 1 columns in all
(L^2 when real, n >= 0 only) against (2L-1)^2 for the dense plane, and
one column of zeros for the orders outside it.  Gamma frequency n owns
one run of 2|n|+1 columns, centred on m = 0, which the forward kernel
reads and the inverse writes in place.  The sphere transforms hand the
kernel full-width rows instead, |m| <= L-1.

The FFTs over gamma and alpha are the only steps that touch the
samples, and they run per block of beta rows, each in a dense block of
its own from which the triangle is gathered or into which it is
scattered.  So a curvelet transform needs one beta block of a cube at a
time, not the cube: the forward transform reads its input as
values[rows], block by block, and the inverse hands each finished block
to a sink.  In memory these are the cube's own rows; the coefficient
container supplies a section that reads or writes each block in its
file, which is how `scurve analyze` and `scurve synthesize` run without
holding a cube.  A complex inverse in memory skips the triangle: its
output cube can hold its own dense spectrum (_inverse_in_place).

A curvelet scale has no Wigner content below a degree floor L0, near
lambda^(j-1), where its kernel starts.  Gamma frequency n reaches only
degree |n|, so the transforms run only the gamma batches whose largest
|n| reaches L0 (_live), and the alpha FFTs of the whole cube only on
those batches' gamma rows, which are one range of the dense spectrum.
The inverse reads its floor off the coefficients, the lowest degree with
a nonzero entry, and zeroes the other rows; the forward is told L0 and
returns zero below it.  A batch that runs sees the same values as
without a floor, so its rows do not change by a bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy import fft as sfft

from .fourier import _kernel_fft, _next_fast_len, fft_workers, weighted_convolve
from .wigner import _edge_nodes, alt_sign, halfpi_table, ipow_vec

__all__ = [
    "CurveletWignerCoeffs",
    "SO3Grid",
    "SO3Signal",
    "WignerCoeffs",
    "so3_forward_curvelet",
    "so3_forward_curvelet_real",
    "so3_inverse_curvelet",
    "so3_inverse_curvelet_real",
]

# Gamma frequencies are processed in batches so the extension and FFT work
# runs on whole sub-cubes instead of one slice at a time.
_CHUNK = 8

# Beta rows per block of the whole-cube FFTs, which bounds their transient
# copies and shares them between the pool's threads.
_BETA_BLOCK = 8

# Bytes of one buffer of a gamma batch's bin planes or beta nodes; a batch
# that needs more runs by blocks of alpha orders |m| (_order_blocks), from
# L = 128 forward and L = 256 inverse.  Below 5 MiB the freed blocks no
# longer raise glibc's trim threshold above a worker's dense beta block and
# its samples, and `scurve analyze` at L = 128 refaults their pages for
# every block (82 000 minor faults against 25 000 at 4 MiB, 5% more time).
_BIN_BUDGET = 5 << 20

def _curvelet_peak_parts(L: int, real: bool, workers: int) -> dict:
    """Estimated bytes, by component, of one block-streamed curvelet transform.

    The triangle of the gamma spectrum (_triangle, T+1 columns of L
    beta nodes, T = 2L^2 - 1 or L^2 when real), the half-pi table, the
    scale's Wigner columns with the triangle's index arrays, and the
    workers; a block-streamed transform holds no whole cube.  A worker
    holds, never two at once, the widest block (_order_blocks) of a
    forward batch's bin planes (a padded row per order and pair of
    frequencies, beside its quadrants) or of an inverse batch's beta nodes
    (L per order and frequency, beside their real exponents), or a dense
    beta block of the whole-cube FFTs beside its samples; it is counted as
    the largest, and a quarter more for what its thread's allocator keeps
    resident between blocks (2-worker `scurve analyze` at L = 256 holds 47
    MiB beyond its traced peak).  This fits scripts/cli_peaks.py.
    """
    K = 2 * L - 1
    G = L if real else K
    pad = _next_fast_len(4 * L - 3)  # the widest batch, h = L-1
    row_bytes = (_CHUNK + 1) // 2 * (pad + pad % 2) * 16
    rows = min(2 * _order_width(L - 1, row_bytes), K)
    planes = rows * row_bytes + _CHUNK * L * L * 8
    nodes = min(2 * _order_width(L - 1, _CHUNK * L * 16), K) * _CHUNK * L * 24
    blocks = min(_BETA_BLOCK, L) * K * (G * 16 + K * (8 if real else 16))
    return {
        "spectrum": L * (L * L + 1 if real else 2 * L * L) * 16,
        "table": 8 * L * (L + 1) * (2 * L + 1) // 6,  # sum of (l+1)^2 doubles, l < L
        "coefficients": 2 * L * K * 16 + (L * (L if real else 2 * L) + 1 + G * K) * 8,
        "workers": workers * max(planes, nodes, blocks) * 5 // 4,
    }


@dataclass(frozen=True)
class SO3Grid:
    """Euler-angle product grid: L colatitudes, 2L-1 alphas and 2L-1 gammas."""

    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be positive, got {self.L}")

    @cached_property
    def alphas(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(2 * self.L - 1) / (2 * self.L - 1)

    @cached_property
    def betas(self) -> np.ndarray:
        return math.pi * (2.0 * np.arange(self.L) + 1.0) / (2 * self.L - 1)

    @property
    def gammas(self) -> np.ndarray:
        return self.alphas

    @property
    def shape(self):
        return (2 * self.L - 1, self.L, 2 * self.L - 1)


@dataclass
class SO3Signal:
    """Samples on an SO3Grid, shape (2L-1, L, 2L-1), (gamma, beta, alpha)."""

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

    def row(self, n: int) -> np.ndarray:
        """View of the m-row paired with gamma frequency n (degree |n|)."""
        ell = abs(n)
        if ell >= self.band_limit:
            raise ValueError(f"|n| = {ell} out of range")
        c = self.band_limit - 1
        return self.values[0 if n >= 0 else 1, ell, c - ell : c + ell + 1]

    def set_row(self, n: int, row: np.ndarray) -> None:
        self.row(n)[:] = row


def _beta_blocks(L: int) -> list:
    """Slices of _BETA_BLOCK beta rows covering L rows."""
    return [np.s_[:, lo : lo + _BETA_BLOCK] for lo in range(0, L, _BETA_BLOCK)]


@lru_cache
def _triangle(L: int, real: bool) -> tuple:
    """(cols, gather, scatter) of the ragged layout of a curvelet gamma spectrum.

    The spectrum is an (L, T+1) array: for each beta node, the alpha
    orders |m| <= |n| of every gamma frequency n (n >= 0 only when real),
    then one column of zeros.  Gamma row g of the dense spectrum (n = g,
    or g - (2L-1) past L-1, the FFT order) owns the columns cols[g], its
    orders m = -|n|..|n| in order.  Against a flattened dense (gamma row,
    alpha) plane with the 2L-1 alpha frequencies in FFT order, gather[t]
    is the position column t comes from (a placeholder for the zero
    column) and scatter[i] the column position i takes, the zero column
    outside the triangle; each is one np.take per block of beta rows.
    """
    K = 2 * L - 1
    g = np.arange(L if real else K)
    k = np.where(g < L, g, K - g)
    stops = np.cumsum(2 * k + 1)
    T = int(stops[-1])
    cols = [slice(hi - 2 * kk - 1, hi) for kk, hi in zip(k.tolist(), stops.tolist())]
    rows = np.repeat(g, 2 * k + 1)
    m = np.arange(T) - (stops - k - 1)[rows]
    gather = np.zeros(T + 1, dtype=np.intp)
    gather[:T] = rows * K + m % K
    scatter = np.full(len(g) * K, T, dtype=np.intp)
    scatter[gather[:T]] = np.arange(T)
    gather.setflags(write=False)
    scatter.setflags(write=False)
    return cols, gather, scatter


def _analysis_spectrum(values, real: bool = False, L0: int = 0) -> np.ndarray:
    """Triangle of the FFT over gamma and alpha, normalised to Fourier coefficients.

    Per block of beta rows, an FFT over gamma (rfft for a real signal,
    keeping n >= 0) runs into a dense block of the worker's own, laid
    out (beta, gamma, alpha), then the alpha FFT in place on the gamma
    rows of the batches that reach degree L0 (_live), and one take
    gathers the block's |m| <= |n| columns into its rows of the (L, T+1)
    spectrum (_triangle); the columns of the other frequencies are zero.
    values is read only as values.shape and values[rows], one slice of
    _beta_blocks at a time: an array, or a stored section that reads
    each block of rows from its file.  The caller's values are never
    overwritten.
    """
    G, L, Ka = values.shape
    gather = _triangle(L, real)[1]
    _, gammas, kept = _live(L, real, L0)
    S = np.empty((L, len(gather)), dtype=complex)

    def block(rows):
        V = values[rows]
        D = np.empty((V.shape[1], L if real else G, Ka), dtype=complex)
        (sfft.rfft if real else sfft.fft)(V, axis=0, norm="forward", out=D.transpose(1, 0, 2))
        sfft.fft(D[:, gammas], norm="forward", out=D[:, gammas])
        np.take(D.reshape(len(D), -1), gather, axis=1, out=S[rows[1]], mode="clip")

    _run_chunks(block, _beta_blocks(L))
    S[:, : kept.start] = 0.0
    S[:, kept.stop :] = 0.0
    return S


def _synthesis_blocks(spectrum: np.ndarray, real: bool, sink, L0: int = 0) -> None:
    """Samples of a triangle spectrum, handed to sink one block of beta rows at a time.

    spectrum is the (L, T+1) layout of _triangle, of all 2L-1 gamma
    frequencies, or only n >= 0 when real, its last column zero, and
    zero too in the columns of the batches that do not reach degree L0
    (_live).  Per block of beta rows, on the pool, sink(rows, fill) is
    called with a function fill(dst) that writes the block's samples into
    dst, an array of the block's shape and dtype (float when real,
    complex otherwise): it scatters the block's triangle into a dense
    block of its own, laid out (beta, gamma, alpha) and zero outside the
    triangle, inverts alpha there on the live gamma rows (the others
    stay zero) and then gamma into dst, the order of ifft2.  The sink
    decides where the block goes: sampled into a cube (_array_sink),
    written to a file, or reduced.
    """
    L = spectrum.shape[0]
    K = 2 * L - 1
    scatter = _triangle(L, real)[2]
    gammas = _live(L, real, L0)[1]

    def block(rows):
        def fill(dst):
            D = np.empty((dst.shape[1], L if real else K, K), dtype=complex)
            flat = D.reshape(len(D), -1)
            np.take(spectrum[rows[1]], scatter, axis=1, out=flat, mode="clip")
            sfft.ifft(D[:, gammas], norm="forward", out=D[:, gammas])
            if real:
                sfft.irfft(D, n=K, axis=1, norm="forward", out=dst.transpose(1, 0, 2))
            else:
                sfft.ifft(D, axis=1, norm="forward", out=dst.transpose(1, 0, 2))

        sink(rows, fill)

    _run_chunks(block, _beta_blocks(L))


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


def _batches(items) -> list:
    """Batches of _CHUNK items: gamma frequencies, or degrees of one frequency."""
    return [items[lo : lo + _CHUNK] for lo in range(0, len(items), _CHUNK)]


@lru_cache
def _live(L: int, real: bool, L0: int) -> tuple:
    """(batches, gammas, kept): what a curvelet transform runs above degree floor L0.

    batches are those of _batches(_gamma_order(L, real)) whose largest
    |n| reaches L0: a tail of them, since they run in order of |n|.
    Their frequencies fill one slice of gamma rows of the dense spectrum
    in FFT order, gammas (n >= 0 from its start up, n < 0 below its
    stop), and one slice of columns of the triangle (_triangle), kept.
    """
    batches = [b for b in _batches(_gamma_order(L, real)) if abs(b[-1]) >= L0]
    if not batches:
        return [], slice(0, 0), slice(0, 0)
    K = 2 * L - 1
    rows = [n % K for b in batches for n in b]
    lo, hi = min(rows), max(rows) + 1
    cols = _triangle(L, real)[0]
    return batches, slice(lo, hi), slice(cols[lo].start, cols[hi - 1].stop)


def _degree_floor(w: CurveletWignerCoeffs) -> int:
    """The lowest degree with a nonzero coefficient in w; its band limit when none has one."""
    degrees = np.flatnonzero(w.values.any(axis=(0, 2)))
    return int(degrees[0]) if len(degrees) else w.band_limit


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


class _Block(NamedTuple):
    """The alpha orders |m| = a..b-1 of one buffer of bin planes, as its rows.

    The rows hold the neg negative orders -(b-1)..-max(a, 1), then
    a..b-1; block (0, h+1) is the centred orders -h..h.  orders is the
    order of each row, runs the (first order, first row, rows) of each run
    of consecutive orders: one when a = 0, two otherwise.
    """

    a: int
    b: int
    neg: int
    orders: np.ndarray
    runs: tuple


@lru_cache
def _block(a: int, b: int) -> _Block:
    """The _Block of the alpha orders |m| = a..b-1."""
    if a == 0:
        runs = ((1 - b, 0, 2 * b - 1),)
    else:
        runs = ((1 - b, 0, b - a), (a, b - a, b - a))
    orders = np.concatenate([np.arange(m0, m0 + n) for m0, _, n in runs])
    orders.setflags(write=False)
    return _Block(a, b, b - max(a, 1), orders, runs)


def _order_width(h: int, row_bytes: int) -> int:
    """Orders +-m per block of a gamma batch whose buffer takes row_bytes per order.

    An order holds a padded row of bins per pair of frequencies in the
    forward kernel, L beta nodes per frequency in the inverse.  The 2h+1
    orders |m| <= h run as one block when they fit _BIN_BUDGET, else in
    blocks of as many orders +-m as fit it (at least one).
    """
    if (2 * h + 1) * row_bytes <= _BIN_BUDGET:
        return h + 1
    return max(1, _BIN_BUDGET // (2 * row_bytes))


def _order_blocks(h: int, row_bytes: int) -> list:
    """The _Blocks of alpha orders that cover |m| <= h (_order_width)."""
    width = _order_width(h, row_bytes)
    return [_block(a, min(a + width, h + 1)) for a in range(0, h + 1, width)]


@lru_cache
def _overlap(m0: int, n: int, k: int) -> tuple:
    """Rows lo:hi of a run of n orders from m0 that fall within |m| <= k."""
    return min(max(-k - m0, 0), n), max(min(k + 1 - m0, n), 0)


def _pair_slots(ns) -> list:
    """ns as _beta_to_bins pairs it, slots 2j and 2j+1 sharing a row.

    A placeholder of the other parity leads when ns[0] and ns[1] share
    one, so every run of _gamma_order pairs up; ValueError otherwise.
    """
    ns = [int(n) for n in ns]
    slots = [ns[0] - 1] + ns if len(ns) > 1 and (ns[0] - ns[1]) % 2 == 0 else ns
    if any((x - y) % 2 == 0 for x, y in zip(slots[0::2], slots[1::2])):
        raise ValueError(f"gamma frequencies {ns} do not pair with opposite parity")
    return slots


@lru_cache
def _pair_signs(parities: tuple, a: int, b: int) -> tuple:
    """sigma_x over _block(a, b)'s orders and pairs whose first frequencies have these parities.

    (orders, pairs, 1), then where it is +1 and where -1 as (orders, pairs) masks.
    """
    sign = alt_sign(_block(a, b).orders[:, None] + np.array(parities, dtype=int))
    out = sign[..., None], sign > 0, sign < 0
    for x in out:
        x.setflags(write=False)
    return out


def _beta_to_bins(spectra, ns, h: int, block: _Block | None = None) -> np.ndarray:
    """Weighted centred (beta bin, alpha bin) planes of alpha spectra, folded onto p >= 0.

    spectra[i] is the centred alpha spectrum of gamma frequency ns[i] at
    the L beta nodes: an (L, 2k+1) array of the orders m = -k..k, k <= h,
    such as its columns of a triangle spectrum (k = |n|) or a full-width
    row (k = L-1).  Degree ell reads only the bins |m'|, |m| <= ell, so
    the planes keep only the beta bins |m'| <= h and the alpha orders of
    block (_Block; default all 2h+1, centred), the orders past k zero.
    Each plane is extended through the poles with parity sigma =
    (-1)^(m + n) (an odd one vanishes at beta = pi for a band-limited
    signal, and its sample there is not read), transformed along beta,
    stripped of the node offset and weighted by sin(beta).  Since
    Delta_{-p m} Delta_{-p n} = sigma Delta_{p m} Delta_{p n},
    _block_columns reads only the fold F[p] = Y[p] + sigma Y[-p], p >= 0
    (F[0] only where sigma = +1), of the weighted bins Y, and that sees
    the even part of the weights alone.  So two frequencies x, y of
    opposite parity (_pair_slots) share one beta FFT and one convolution
    per order: the transform Z of their sum gives F_x[p] = Z[p] + sigma_x
    Z[-p] and F_y[p] = Z[p] - sigma_x Z[-p].  It all runs in one buffer
    per block, (orders, pairs, beta), at the padded length and in the
    FFT-order layout of weighted_convolve; F_x and F_y are folded into
    the two halves of each row, and the result is a (len(ns), h+1,
    orders) view of them.
    """
    slots = _pair_slots(ns)
    lead = len(slots) - len(ns)
    block = block or _block(0, h + 1)
    sign, plus, minus = _pair_signs(tuple(n % 2 for n in slots[0::2]), block.a, block.b)
    L = spectra[0].shape[0]
    K = 2 * L - 1
    pad = _kernel_fft(L, h)[0]
    half = (pad + 1) // 2
    buf = np.empty((len(block.orders), (len(slots) + 1) // 2, 2 * half), dtype=complex)
    if lead:
        buf[:, 0, :K] = 0.0
    for i, S in enumerate(spectra, lead):
        k = S.shape[1] // 2
        row, signs = buf[:, i // 2], sign[:, i // 2]
        for m0, r0, n in block.runs:
            lo, hi = _overlap(m0, n, k)
            X = S[:, k + m0 + lo : k + m0 + hi].T
            P, s = row[r0 + lo : r0 + hi], signs[r0 + lo : r0 + hi]
            # Beta node b >= L is sigma_x times the reflection of node 2L-2-b
            # through beta = pi.  Rows odd::2 have sigma = +1; the others'
            # samples at beta = pi are not read.
            odd = (m0 + lo + slots[i]) % 2
            if i % 2:
                P[:, : L - 1] += X[:, : L - 1]
                P[odd::2, L - 1] += X[odd::2, L - 1]
                P[:, L:K] -= s * X[:, : L - 1][:, ::-1]
            else:
                if lo or hi < n:
                    row[r0 : r0 + lo, :K] = row[r0 + hi : r0 + n, :K] = 0.0
                P[:, :L] = X
                P[1 - odd :: 2, L - 1] = 0.0
                np.multiply(X[:, : L - 1][:, ::-1], s, out=P[:, L:K])
    E = buf[..., :K]
    sfft.fft(E, norm="forward", out=E)
    # The node-offset phase of bin m'' (with the 4 pi^2 of the transform's
    # normalisation); the bins m'' < 0 move from [L, 2L-1) to the end.
    phase = (4.0 * math.pi**2) * np.exp(-1j * np.arange(1 - L, L) * (math.pi / K))
    np.multiply(buf[..., L:K], phase[: L - 1], out=buf[..., pad - L + 1 : pad])
    buf[..., :L] *= phase[L - 1 :]
    buf[..., L : pad - L + 1] = 0.0
    weighted_convolve(buf[..., :pad], h, L)
    # Z[p] sits at c + p; F_x[p] goes to L-1+p, F_y[p] to half+L-1+p.
    c = L - 1 + h
    above, below = buf[..., c + 1 : c + h + 1], buf[..., L - 1 : c][..., ::-1]
    Fy = buf[..., half + L : half + L + h]
    np.multiply(below, sign, out=Fy)
    np.multiply(buf[..., c], minus, out=buf[..., half + L - 1])
    np.multiply(buf[..., c], plus, out=buf[..., L - 1])
    np.add(above, Fy, out=buf[..., L : c + 1])
    np.subtract(above, Fy, out=Fy)
    rows = buf.reshape(len(buf), -1, half)[:, lead : lead + len(ns), L - 1 : c + 1]
    return rows.transpose(1, 2, 0)


def _bins_to_beta(B: np.ndarray, L: int) -> np.ndarray:
    """(..., L, orders) view of alpha spectra at the L beta nodes of bin planes; B is overwritten.

    B holds centred alpha orders by the 2L-1 beta bins in FFT order, as _add_column_bins adds them.
    """
    sfft.ifft(B, norm="forward", out=B)
    return B[..., :L].swapaxes(-1, -2)


def _alpha_orders(W: np.ndarray, k: int) -> np.ndarray:
    """The centred orders m = -k..k of alpha spectra in FFT order (last axis)."""
    return W[..., np.arange(-k, k + 1) % W.shape[-1]]


def _alpha_samples(R: np.ndarray, Ka: int) -> np.ndarray:
    """Ka alpha samples of centred alpha spectra R (last axis), the inverse of _alpha_orders."""
    k = R.shape[-1] // 2
    S = np.zeros(R.shape[:-1] + (Ka,), dtype=complex)
    S[..., np.arange(-k, k + 1) % Ka] = R
    return sfft.ifft(S, norm="forward", out=S)


def _quadrants(tab, ns, ells, h: int) -> tuple:
    """The table's quadrants of degrees ells, their column signs and columns n.

    Returns Q, the m', m >= 0 quadrants zero-padded to a (len(ells), h+1,
    h+1) stack; t = (-1)^(ell+p) over p = 0..h, the sign that reflects a
    quadrant's columns m onto -m; and U, Delta^ell_{p n} over p = 0..h
    for each degree and its n of ns.  A block of alpha orders reads the
    columns Q[..., a:b].
    """
    Q = np.zeros((len(ells), h + 1, h + 1))
    for i, ell in enumerate(ells.tolist()):
        Q[i, : ell + 1, : ell + 1] = tab.planes[ell]
    t = alt_sign(ells[:, None] + np.arange(h + 1))
    col = Q[np.arange(len(ns)), :, np.abs(ns)]
    return Q, t, np.where((ns < 0)[:, None], col * t, col)


def _block_columns(Z: np.ndarray, quads, block: _Block, C: np.ndarray) -> None:
    """Orders |m| = a..b-1 of Wigner columns off the folded bins Z of a _Block.

    Column i is sum_p Delta_{p m} Delta_{p n} Y[p, m] over the bin rows p
    of its degree and gamma frequency, read as Z (folded by _beta_to_bins,
    one plane per column or one for all) over p >= 0 and the quadrants of
    quads (_quadrants), whose columns -m follow from m with sign
    (-1)^(ell+p).  The orders +-m go to C, centred, 2h+1 per column.
    """
    Q, t, U = quads
    h = C.shape[1] // 2
    a, b, neg = block.a, block.b, block.neg
    lo = b - neg
    C[:, h + a : h + b] = np.einsum("ipm,ip,ipm->im", Q[..., a:b], U, Z[..., neg:])
    below = np.einsum("ipm,ip,ipm->im", Q[..., lo:b], U * t, Z[..., :neg][..., ::-1])
    C[:, h + 1 - b : h + 1 - lo] = below[:, ::-1]


def _phased_columns(C: np.ndarray, ns, ells) -> list:
    """The columns of C (from _block_columns) with the phase i^(m-n), 2 ell + 1 entries each."""
    h = C.shape[1] // 2
    C *= ipow_vec(np.arange(-h, h + 1) - np.asarray(ns)[:, None])
    return [col[h - ell : h + ell + 1] for col, ell in zip(C, ells)]


def _wigner_columns(Z: np.ndarray, tab, ns, ells) -> list:
    """Columns n of the coefficient planes of degrees ell, off folded bins Z.

    One block of every order (_block_columns) at degrees ells and gamma
    frequencies ns, Z cropped to their largest degree.  Returns the
    columns, 2 ell + 1 entries each.
    """
    ns, ells = np.asarray(ns), np.asarray(ells)
    h = int(ells.max())
    c = Z.shape[-1] // 2
    C = np.empty((len(ns), 2 * h + 1), dtype=complex)
    Z = Z[:, : h + 1, c - h : c + h + 1]
    _block_columns(Z, _quadrants(tab, ns, ells, h), _block(0, h + 1), C)
    return _phased_columns(C, ns, ells)


def _curvelet_columns(spectra, tab, ns) -> list:
    """Columns n = ns[i] of degree |n| off the triangle spectra of a gamma batch.

    The forward curvelet kernel: _beta_to_bins and _block_columns run on
    one block of alpha orders at a time (_order_blocks), so the batch's
    bin planes take at most _BIN_BUDGET whatever L; an order's row of them
    holds one padded row per pair of gamma frequencies.  Returns the
    columns, 2|n| + 1 entries each.
    """
    ns = np.asarray(ns)
    ells = np.abs(ns)
    h = int(ells.max())
    quads = _quadrants(tab, ns, ells, h)
    C = np.empty((len(ns), 2 * h + 1), dtype=complex)
    pad = _kernel_fft(spectra[0].shape[0], h)[0]
    pairs = (len(_pair_slots(ns)) + 1) // 2
    for block in _order_blocks(h, pairs * (pad + pad % 2) * 16):
        Z = _beta_to_bins(spectra, ns, h, block)
        _block_columns(Z, quads, block, C)
        del Z  # so the next block's buffer is not built beside this one
    return _phased_columns(C, ns, ells)


def _add_column_bins(X: np.ndarray, cols, tab, ns, ells, L: int) -> None:
    """Add the summed bin planes of Wigner columns of one gamma frequency to X.

    Column c = cols[i] of degree l = ells[i] and frequency n = ns[i] has
    the planes Delta_{p m} Delta_{p n} e^{i p pi/K} c[m] (2l+1)/(8 pi^2)
    i^(n-m) over beta bins p and alpha orders m, for -p with sign
    (-1)^(m+n) and the conjugate phase.  X is (2c+1, 2L-1), orders |m| <= c
    by bins in FFT order.  One einsum per half of the bins and sign of m.
    """
    ns, ells = np.asarray(ns), np.asarray(ells)
    h = int(ells.max())
    K = 2 * L - 1
    Q, t, U = _quadrants(tab, ns, ells, h)
    m = np.arange(-h, h + 1)
    R = np.zeros((len(ells), 2 * h + 1), dtype=complex)
    for r, col, ell in zip(R, cols, ells.tolist()):
        r[h - ell : h + ell + 1] = col
    R *= ipow_vec(ns[:, None] - m) * ((2 * ells + 1) / (8.0 * math.pi**2))[:, None]
    e = np.exp(1j * np.arange(h + 1) * (math.pi / K))
    mirrored = R * alt_sign(ns[:, None] + m)
    factors = (Q, R, U * e, t), (Q[:, 1:], mirrored, (U * e.conj())[:, 1:], t[:, 1:])
    c = len(X) // 2
    bins = (X[:, : h + 1], X[:, K - h :][:, ::-1])
    for half, (q, r, w, s) in zip(bins, factors):
        half[c : c + h + 1] += np.einsum("ipm,im,ip->mp", q, r[:, h:], w)
        half[c - h : c][::-1] += np.einsum("ipm,im,ip->mp", q[..., 1:], r[:, :h][:, ::-1], w * s)


@lru_cache
def _half_nodes(L: int) -> np.ndarray:
    """Rows sin and cos of beta_b / 2 at the L beta nodes; the cos is exactly 0 at beta = pi."""
    out = np.sin(math.pi * np.r_[1 : 2 * L : 2, 2 * L - 2 : -1 : -2].reshape(2, L) / (4 * L - 2))
    out.setflags(write=False)
    return out


def _curvelet_nodes(w, ns, L: int, put) -> None:
    """Alpha spectra at the beta nodes of the curvelet columns of a gamma batch.

    The inverse curvelet kernel: frequency n = ns[i], of degree l = |n|,
    holds c[m] (2l+1)/(8 pi^2) d^l_{m n}(beta_b) at alpha order m and beta
    node b, c = w.row(n), in the closed form of wigner._edge_nodes, with
    d^l_{m,-l} = (-1)^(l-m) d^l_{-m,l} for n < 0.  put(block, R) receives
    each _Block of _order_blocks and its (len(ns), L, orders) nodes.
    """
    ns = np.asarray(ns)
    ells = np.abs(ns)
    h = int(ells.max())
    R = np.zeros((len(ns), 2 * h + 1), dtype=complex)
    for r, n, ell in zip(R, ns.tolist(), ells.tolist()):
        r[h - ell : h + ell + 1] = w.row(n)
    R *= ((2 * ells + 1) / (8.0 * math.pi**2))[:, None]
    flip = (ns < 0)[:, None]
    for block in _order_blocks(h, len(ns) * L * 16):
        m = block.orders
        weights = R[:, h + m] * np.where(flip, alt_sign(ells[:, None] - m), 1.0)
        put(block, _edge_nodes(ells, np.where(flip, -m, m), *_half_nodes(L), weights))


def so3_forward_curvelet(f: SO3Signal, *, L0: int = 0) -> CurveletWignerCoeffs:
    """Forward Wigner transform onto the n = +-ell columns; O(L^3 log L).

    Exact when the signal is a synthesis of such columns, which is the
    only way curvelet analysis produces rotation-group signals.  A
    real-flagged signal runs on half the gamma spectrum.  f.values is read
    one block of beta rows at a time (_analysis_spectrum), so it may be a
    stored section that reads each block from its file.  The degrees
    below L0 are returned as zero and only the gamma batches that reach
    L0 run (_live); every other degree is bitwise that of L0 = 0.
    """
    L = f.grid.L
    if L0 < 0:
        raise ValueError(f"degree floor must not be negative, got {L0}")
    S = _analysis_spectrum(f.values, f.real, L0)
    cols = _triangle(L, f.real)[0]
    out = CurveletWignerCoeffs.zeros(L)
    tab = halfpi_table(L)

    def forward_chunk(chunk):
        spectra = [S[:, cols[n % len(cols)]] for n in chunk]
        for n, col in zip(chunk, _curvelet_columns(spectra, tab, chunk)):
            out.set_row(n, col)

    _run_chunks(forward_chunk, _live(L, f.real, L0)[0])
    if f.real:
        _impose_real_pairing(out.values)
    out.values[:, :L0] = 0.0
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
    """Raise ValueError unless values are finite and the in-place
    symmetrizer impose moves them by round-off.
    """
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ValueError(
            f"{len(bad)} non-finite coefficient(s), first {values.flat[bad[0]]} at flat index "
            f"{bad[0]}"
        )
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
    instead of into a returned signal, and None is returned.  Without
    one, complex samples are computed in their own cube
    (_inverse_in_place).  Only the gamma batches that reach the lowest
    degree with a nonzero coefficient run (_live); the other gamma
    frequencies hold zeros.
    """
    if not isinstance(w, CurveletWignerCoeffs):
        raise TypeError("sparse synthesis requires CurveletWignerCoeffs")
    L = w.band_limit
    if grid.L != L:
        raise ValueError(f"grid band limit {grid.L} does not match the coefficients' {L}")
    if real:
        _check_real(w.values, _impose_real_pairing)
    L0 = _degree_floor(w)
    if sink is None and not real:
        return SO3Signal(grid, _inverse_in_place(w, L0))
    cols, gather, _ = _triangle(L, real)
    batches, _, kept = _live(L, real, L0)
    S = np.empty((L, len(gather)), dtype=complex)
    S[:, : kept.start] = 0.0
    S[:, kept.stop :] = 0.0

    def inverse_chunk(chunk):
        def put(block, R):
            for n, X in zip(chunk, R):
                # Column of order 0 in gamma frequency n's run of the triangle.
                zero = cols[n % len(cols)].start + abs(n)
                for m0, r0, count in block.runs:
                    lo, hi = _overlap(m0, count, abs(n))
                    S[:, zero + m0 + lo : zero + m0 + hi] = X[:, r0 + lo : r0 + hi]

        _curvelet_nodes(w, chunk, L, put)

    _run_chunks(inverse_chunk, batches)
    if sink is not None:
        _synthesis_blocks(S, real, sink, L0)
        return None
    values = np.empty(grid.shape)
    _synthesis_blocks(S, real, _array_sink(values), L0)
    return SO3Signal(grid, values, real=real)


def _inverse_in_place(w: CurveletWignerCoeffs, L0: int) -> np.ndarray:
    """Complex samples of sparse coefficients, zero below degree L0, in their own cube.

    A complex cube in memory can hold its own dense spectrum, so each
    block of a gamma batch's nodes goes straight into the batch's gamma
    rows, the orders past its degrees are zeroed, the alpha inverse runs
    there in place, then the gamma inverse by blocks of beta rows; the
    triangle would add half a cube of fresh memory (and its page faults)
    without lowering the peak.  Only the batches that reach L0 run
    (_live); the other gamma rows are zeroed.  The result is bitwise that
    of the triangle path, the same 1-D FFTs on the same values.
    """
    L = w.band_limit
    K = 2 * L - 1
    values = np.empty((K, L, K), dtype=complex)
    batches, gammas, _ = _live(L, False, L0)
    values[: gammas.start] = 0.0
    values[gammas.stop :] = 0.0

    def inverse_chunk(chunk):
        rows = [n % K for n in chunk]
        index = np.array(rows)
        h = max(abs(n) for n in chunk)

        def put(block, R):
            # Alpha order m sits in column m % K: the negative orders at the end.
            a, b, neg = block.a, block.b, block.neg
            values[index, :, K + 1 - b : K + 1 - b + neg] = R[..., :neg]
            values[index, :, a:b] = R[..., neg:]

        _curvelet_nodes(w, chunk, L, put)
        if h < L - 1:
            values[index, :, h + 1 : K - h] = 0.0
        # The batch's n >= 0 and n < 0 (_gamma_order) hold two runs of gamma rows.
        for run in ([g for g in rows if g < L], [g for g in rows if g >= L]):
            if run:
                dense = values[min(run) : max(run) + 1]
                sfft.ifft(dense, norm="forward", out=dense)

    def inverse_block(rows):
        sfft.ifft(values[rows], axis=0, norm="forward", out=values[rows])

    _run_chunks(inverse_chunk, batches)
    _run_chunks(inverse_block, _beta_blocks(L))
    return values


def so3_inverse_curvelet(
    w: CurveletWignerCoeffs, grid: SO3Grid, *, sink=None
) -> SO3Signal | None:
    """Synthesis of sparse column coefficients onto the grid; O(L^3 log L).

    sink, when given, receives the samples one block of beta rows at a
    time, as sink(rows, fill), and nothing is returned; `scurve analyze`
    passes one that writes each block into its container.
    """
    return _so3_inverse_curvelet(w, grid, False, sink)


def so3_forward_curvelet_real(f: SO3Signal, *, L0: int = 0) -> CurveletWignerCoeffs:
    """Sparse forward transform that insists on a real-flagged signal."""
    if not f.real:
        raise ValueError("real path requires a real-flagged signal")
    return so3_forward_curvelet(f, L0=L0)


def so3_inverse_curvelet_real(
    w: CurveletWignerCoeffs, grid: SO3Grid, *, sink=None
) -> SO3Signal | None:
    """Sparse synthesis straight to real samples via half the gamma spectrum.

    The coefficients must carry the conjugate symmetry of a real signal,
    which implies the negative gamma frequencies; ValueError otherwise.
    sink works as in so3_inverse_curvelet.
    """
    return _so3_inverse_curvelet(w, grid, True, sink)
