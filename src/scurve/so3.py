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
form (wigner._edge_nodes), so each block of beta rows evaluates its own
alpha spectra at its beta nodes (_edge_rows), in O(L^3) with no beta FFT.

The forward kernel runs a wide batch by runs of whole pairs of gamma
frequencies (_curvelet_columns), each in a buffer within _BIN_BUDGET,
and the run length changes no bit; the curvelet and the sphere forwards
then contract the bins with one function, _wigner_columns.  The
batches, and the whole-cube FFTs over gamma and alpha by blocks of beta
rows, run on a pool of fft_workers() threads; each writes only its own
rows, so results are bitwise the same for any worker count.

Between the bins and the coefficients sits Delta = d(pi/2), of which the
half-pi table keeps the m', m >= 0 quadrant.  _wigner_columns and
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
reads.  The forward transform holds the whole triangle, since each gamma
batch reads all its beta nodes; the inverse evaluates only one block of
beta rows of it at a time, straight from the coefficients.  The sphere
transforms hand the kernel full-width rows instead, |m| <= L-1.

The FFTs over gamma and alpha are the only steps that touch the
samples, and they run per block of beta rows, each in a dense block from
which the triangle is gathered or into which it is scattered: the
forward's own, the inverse's output block itself when complex.  So a
curvelet transform needs one beta block of a cube at a time, not the
cube: the forward transform reads its input as values[rows], block by
block, and the inverse hands each finished block to a sink.  In memory
these are the cube's own rows; the coefficient container supplies a
section that reads or writes each block in its file, which is how
`scurve analyze` and `scurve synthesize` run without holding a cube.

A curvelet scale has no Wigner content below a degree floor L0, near
lambda^(j-1), where its kernel starts.  Gamma frequency n reaches only
degree |n|, so the transforms run only the gamma batches whose largest
|n| reaches L0 (_live), and the alpha FFTs of the whole cube only on
those batches' gamma rows, which are one range of the dense spectrum.
The inverse reads its floor off the coefficients, the lowest degree with
a nonzero entry, evaluates only those batches' columns of the triangle
and zeroes the other rows; the forward is told L0 and
returns zero below it.  A batch that runs sees the same values as
without a floor, so its rows do not change by a bit.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy import fft as sfft

from .fourier import _kernel_fft, _next_fast_len, fft_workers, weighted_convolve
from .wigner import _edge_binomials, _edge_nodes, alt_sign, halfpi_table, ipow_vec

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

# Bytes of one buffer of a gamma batch's bin planes in the forward kernel;
# a batch that needs more is split into runs of whole pairs of frequencies
# (_pairs_per_run), from L = 128.  Below 5 MiB the freed buffers no longer
# raise glibc's trim threshold above a worker's dense beta block and its
# samples, and a transform at L = 128 refaults their pages for every
# buffer (82 000 minor faults against 25 000 at 4 MiB, 5% more time).
_BIN_BUDGET = 5 << 20

def _curvelet_peak_parts(L: int, real: bool, workers: int, forward: bool) -> dict:
    """Estimated bytes, by component, of one block-streamed curvelet transform.

    The forward transform holds the triangle of its gamma spectrum
    (_triangle, T+1 columns of L beta nodes, T = 2L^2 - 1 or L^2 when
    real), the inverse none.  Both hold the half-pi table, the scale's
    Wigner columns with the triangle's index arrays, and the workers, but
    no whole cube.  A forward worker holds the widest run of a batch's
    bin planes (_pairs_per_run) beside its quadrants, or a dense beta
    block beside its samples; an inverse worker a block's samples and
    triangle rows beside their exponents or, when real, a complex dense
    block.  A worker counts as the largest of these, and a
    quarter more for what its thread's allocator keeps resident between
    blocks (2-worker `scurve analyze` at L = 256 holds 34 MiB beyond its
    traced peak).  A complex inverse worker holds less than a forward
    one, so the forward estimate covers a round trip.  This fits
    scripts/cli_peaks.py.
    """
    K = 2 * L - 1
    G = L if real else K
    T = L * L if real else 2 * L * L - 1
    rows = min(_BETA_BLOCK, L)
    samples = rows * K * K * (8 if real else 16)
    parts = {
        "table": 8 * L * (L + 1) * (2 * L + 1) // 6,  # sum of (l+1)^2 doubles, l < L
        "coefficients": 2 * L * K * 16 + (T + 1 + G * K) * 8,
    }
    if forward:
        parts["spectrum"] = L * (T + 1) * 16
        pairs, pair = _pairs_per_run(L, L - 1)  # the widest batch
        bins = min(pairs, (_CHUNK + 1) // 2) * pair + _CHUNK * L * L * 8
        worker = max(bins, rows * G * K * 16 + samples)
    else:
        # The seven arrays of _edge_columns, the weights, the shifted scatter.
        parts["coefficients"] += T * 72 + G * K * 8
        dense = (rows * L * K * 16 if real else 0) + G * K * 16
        worker = samples + rows * (T + 1) * 16 + max(rows * T * 8, dense)
    parts["workers"] = workers * worker * 5 // 4
    return parts


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
    column), one np.take per block of beta rows, and scatter[i] the
    column position i takes, the zero column outside the triangle, one
    gather per beta row.
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


def _synthesis_blocks(L: int, real: bool, triangle_rows, sink, L0: int = 0) -> None:
    """Samples of a triangle spectrum, handed to sink one block of beta rows at a time.

    triangle_rows(b) returns the rows at the beta nodes of slice b of the
    (L, T+1) layout of _triangle (all 2L-1 gamma frequencies, or n >= 0
    when real), cut to the columns kept (_live) of the batches that reach
    degree L0, then a column of zeros.  Per block of beta rows,
    on the pool, sink(rows, fill) is called with a function fill(dst)
    that writes the block's samples into dst, an array of the block's
    shape and dtype (float when real, complex otherwise), and may use it
    as its workspace on the way.  fill scatters the triangle rows into a
    dense block laid out (beta, gamma, alpha), zero outside the triangle,
    one gather per beta row: dst itself when complex, else a complex
    block of its own.  Then it inverts alpha there on the live gamma rows
    (the others are zero) and gamma into dst, the order of ifft2.  The
    sink decides where the block goes: sampled into a cube (_array_sink),
    written to a file, or reduced.
    """
    K = 2 * L - 1
    _, gammas, kept = _live(L, real, L0)
    width = kept.stop - kept.start
    scatter = _triangle(L, real)[2] - kept.start
    scatter[(scatter < 0) | (scatter >= width)] = width
    scatter = scatter.reshape(-1, K)

    def block(rows):
        def fill(dst):
            tri = triangle_rows(rows[1])
            D = np.empty((len(tri), L, K), dtype=complex) if real else dst.transpose(1, 0, 2)
            for r, row in enumerate(tri):
                D[r] = row[scatter]
            sfft.ifft(D[:, gammas], norm="forward", out=D[:, gammas])
            if real:
                sfft.irfft(D, n=K, axis=1, norm="forward", out=dst.transpose(1, 0, 2))
            else:
                sfft.ifft(D, axis=1, norm="forward", out=D)

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
    GIL; with one worker they run inline and no thread starts.  Each runs
    in a copy of the caller's context, so numpy's error state (np.errstate,
    a context variable) holds in the pool's threads too.  The first error
    is raised only once no task is running any more, so a task never
    outlives its call, nor writes to a file its caller has closed.
    """
    workers = fft_workers()
    if workers == 1:
        for item in items:
            task(item)
        return
    pool = _pool(workers)
    futures = [pool.submit(contextvars.copy_context().run, task, item) for item in items]
    try:
        for future in futures:
            future.result()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


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


def _pairs_per_run(L: int, h: int) -> tuple:
    """(pairs, bytes of one pair) of bin planes of degree h that fit _BIN_BUDGET, at least one."""
    pad = _next_fast_len(2 * L - 1 + 2 * h)  # that of fourier._kernel_fft
    pair = (2 * h + 1) * (pad + pad % 2) * 16
    return max(1, _BIN_BUDGET // pair), pair


@lru_cache
def _pair_signs(parities: tuple, h: int) -> tuple:
    """sigma_x over the orders -h..h and pairs whose first frequencies have these parities.

    (orders, pairs, 1), then where it is +1 and where -1 as (orders, pairs) masks.
    """
    sign = alt_sign(np.arange(-h, h + 1)[:, None] + np.array(parities, dtype=int))
    out = sign[..., None], sign > 0, sign < 0
    for x in out:
        x.setflags(write=False)
    return out


def _beta_to_bins(spectra, ns, h: int) -> np.ndarray:
    """Weighted centred (beta bin, alpha bin) planes of alpha spectra, folded onto p >= 0.

    spectra[i] is the centred alpha spectrum of gamma frequency ns[i] at
    the L beta nodes: an (L, 2k+1) array of the orders m = -k..k, k <= h,
    such as its columns of a triangle spectrum (k = |n|) or a full-width
    row (k = L-1).  Degree ell reads only the bins |m'|, |m| <= ell, so
    the planes keep only the beta bins |m'| <= h and the 2h+1 centred
    alpha orders |m| <= h, the orders past k zero.
    Each plane is extended through the poles with parity sigma =
    (-1)^(m + n) (an odd one vanishes at beta = pi for a band-limited
    signal, and its sample there is not read), transformed along beta,
    stripped of the node offset and weighted by sin(beta).  Since
    Delta_{-p m} Delta_{-p n} = sigma Delta_{p m} Delta_{p n},
    _wigner_columns reads only the fold F[p] = Y[p] + sigma Y[-p], p >= 0
    (F[0] only where sigma = +1), of the weighted bins Y, and that sees
    the even part of the weights alone.  So two frequencies x, y of
    opposite parity (_pair_slots) share one beta FFT and one convolution
    per order: the transform Z of their sum gives F_x[p] = Z[p] + sigma_x
    Z[-p] and F_y[p] = Z[p] - sigma_x Z[-p].  It all runs in one buffer,
    (orders, pairs, beta), at the padded length and in the FFT-order
    layout of weighted_convolve; F_x and F_y fold into the two halves of
    each row, and the result is a (len(ns), h+1, 2h+1) view of them.
    """
    slots = _pair_slots(ns)
    lead = len(slots) - len(ns)
    sign, plus, minus = _pair_signs(tuple(n % 2 for n in slots[0::2]), h)
    L = spectra[0].shape[0]
    K = 2 * L - 1
    pad = _kernel_fft(L, h)[0]
    half = (pad + 1) // 2
    buf = np.empty((2 * h + 1, (len(slots) + 1) // 2, 2 * half), dtype=complex)
    if lead:
        buf[:, 0, :K] = 0.0
    for i, S in enumerate(spectra, lead):
        k = S.shape[1] // 2
        X = S.T
        P, s = buf[h - k : h + k + 1, i // 2], sign[h - k : h + k + 1, i // 2]
        # Beta node b >= L is sigma_x times the reflection of node 2L-2-b
        # through beta = pi.  Rows odd::2 have sigma = +1; the others'
        # samples at beta = pi are not read.
        odd = (slots[i] - k) % 2
        if i % 2:
            P[:, : L - 1] += X[:, : L - 1]
            P[odd::2, L - 1] += X[odd::2, L - 1]
            P[:, L:K] -= s * X[:, : L - 1][:, ::-1]
        else:
            if k < h:
                buf[: h - k, i // 2, :K] = buf[h + k + 1 :, i // 2, :K] = 0.0
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
    for each degree and its n of ns.
    """
    Q = np.zeros((len(ells), h + 1, h + 1))
    for i, ell in enumerate(ells.tolist()):
        Q[i, : ell + 1, : ell + 1] = tab.planes[ell]
    t = alt_sign(ells[:, None] + np.arange(h + 1))
    col = Q[np.arange(len(ns)), :, np.abs(ns)]
    return Q, t, np.where((ns < 0)[:, None], col * t, col)


def _wigner_columns(Z: np.ndarray, tab, ns, ells) -> list:
    """Columns n of the coefficient planes of degrees ell, off folded bins Z.

    The contraction of both forward transforms: column i is sum_p Delta_{p m}
    Delta_{p n} Y[p, m] over the bin rows p of degree ells[i] and gamma
    frequency ns[i], read as Z (folded by _beta_to_bins, one plane per
    column or one for all, cropped to the largest degree) over p >= 0 and
    the quadrants of _quadrants, whose columns -m follow from m with sign
    (-1)^(ell+p).  Returns the columns with the phase i^(m-n), 2 ell + 1
    entries each.
    """
    ns, ells = np.asarray(ns), np.asarray(ells)
    h = int(ells.max())
    c = Z.shape[-1] // 2
    Z = Z[:, : h + 1, c - h : c + h + 1]
    Q, t, U = _quadrants(tab, ns, ells, h)
    C = np.empty((len(ns), 2 * h + 1), dtype=complex)
    C[:, h:] = np.einsum("ipm,ip,ipm->im", Q, U, Z[..., h:])
    C[:, :h] = np.einsum("ipm,ip,ipm->im", Q[..., 1:], U * t, Z[..., :h][..., ::-1])[:, ::-1]
    C *= ipow_vec(np.arange(-h, h + 1) - ns[:, None])
    return [col[h - ell : h + ell + 1] for col, ell in zip(C, ells)]


def _curvelet_columns(spectra, tab, ns) -> list:
    """Columns n = ns[i] of degree |n| off the triangle spectra of a gamma batch.

    The forward curvelet kernel: _beta_to_bins and _wigner_columns run on
    runs of whole pairs of gamma frequencies (_pair_slots; one after a lead
    placeholder starts on a pair too) at the batch's largest degree, as
    many pairs as fit _BIN_BUDGET and at least one (_pairs_per_run).
    Returns the columns, 2|n| + 1 entries each.
    """
    ns = np.asarray(ns)
    h = int(np.abs(ns).max())
    step = 2 * _pairs_per_run(spectra[0].shape[0], h)[0]
    out = []
    for lo in range(len(ns) - len(_pair_slots(ns)), len(ns), step):
        run = slice(max(lo, 0), lo + step)
        out += _wigner_columns(_beta_to_bins(spectra[run], ns[run], h), tab, ns[run], abs(ns[run]))
    return out


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


@lru_cache
def _edge_columns(L: int, real: bool) -> tuple:
    """(p, q, binomials, index, sign, factor) of each column of a curvelet triangle (_triangle).

    Column t, of gamma frequency n and alpha order m, holds c[m] (2l+1)/(8
    pi^2) d^l_{m n}(beta) at the beta nodes, l = |n| and c = w.row(n), with
    d^l_{m,-l} = (-1)^(l-m) d^l_{-m,l}: so it is the column p = l + m, or
    l - m when n < 0, of wigner._edge_nodes, with q = 2l - p, its entry of
    _edge_binomials(l), and the weight c[m] times factor (2l+1)/(8 pi^2)
    times sign, (-1)^(l-m) when n < 0 and 1 otherwise.  index is the flat
    index of c[m] in CurveletWignerCoeffs.values.
    """
    K = 2 * L - 1
    parts = []
    for g in range(L if real else K):
        n = g if g < L else g - K
        ell = abs(n)
        m = np.arange(-ell, ell + 1)
        p = ell - m if n < 0 else ell + m
        sign = alt_sign(ell - m) if n < 0 else np.ones(2 * ell + 1)
        index = (int(n < 0) * L + ell) * K + m + L - 1
        factor = np.full(2 * ell + 1, (2 * ell + 1) / (8.0 * math.pi**2))
        parts.append((p, 2 * ell - p, _edge_binomials(ell)[:, p], index, sign, factor))
    out = tuple(np.concatenate(x, axis=-1) for x in zip(*parts))
    for x in out:
        x.setflags(write=False)
    return out


def _edge_rows(w: CurveletWignerCoeffs, real: bool, kept: slice):
    """The triangle_rows of _synthesis_blocks for coefficients w, over the columns kept.

    Each call evaluates its beta nodes' rows in closed form (_edge_columns,
    wigner._edge_nodes) into a fresh (rows, width+1) block, its last column
    zero.
    """
    L = w.band_limit
    p, q, binomials, index, sign, factor = (x[..., kept] for x in _edge_columns(L, real))
    weights = w.values.ravel()[index] * factor * sign
    sin_half, cos_half = _half_nodes(L)

    def rows(b):
        out = np.empty((len(sin_half[b]), len(p) + 1), dtype=complex)
        out[:, -1] = 0.0
        _edge_nodes(p, q, binomials, sin_half[b], cos_half[b], weights, out=out[:, :-1])
        return out

    return rows


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

    Each block of beta rows is evaluated in closed form from the
    coefficients (_edge_rows) and synthesised on its own
    (_synthesis_blocks): into a returned signal, or with a sink, handed to
    sink, and None is returned.  Only the gamma frequencies of the batches
    that reach the lowest degree with a nonzero coefficient are evaluated
    (_live); the others hold zeros.
    """
    if not isinstance(w, CurveletWignerCoeffs):
        raise TypeError("sparse synthesis requires CurveletWignerCoeffs")
    L = w.band_limit
    if grid.L != L:
        raise ValueError(f"grid band limit {grid.L} does not match the coefficients' {L}")
    if real:
        _check_real(w.values, _impose_real_pairing)
    L0 = _degree_floor(w)
    rows = _edge_rows(w, real, _live(L, real, L0)[2])
    if sink is not None:
        _synthesis_blocks(L, real, rows, sink, L0)
        return None
    values = np.empty(grid.shape, dtype=float if real else complex)
    _synthesis_blocks(L, real, rows, _array_sink(values), L0)
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
