"""Shared FFT plumbing for the sphere and rotation-group transforms.

Samples live on odd-length equiangular grids, so every periodic axis maps
onto signed Fourier bins with no Nyquist ambiguity.  Colatitude is the
delicate direction: its nodes only cover half a period, so the bin kernel
in so3.py extends them through the poles before transforming, which makes
each plane even or odd in its bins.  This module holds what the kernel
shares with the rest of the package: the FFT worker count, and the exact
sin(beta) weighting, applied in place as a convolution over the kernel's
padded buffer of colatitude bins with the even part of the weights, all
that the kernel's fold of the bins onto p >= 0 reads.
"""

from __future__ import annotations

import functools
import os

import numpy as np
from numpy import fft as sfft

from .wigner import weight_kernel

__all__ = [
    "fft_workers",
    "weighted_convolve",
]


# Largest default worker count.  Each worker holds one more dense beta block
# and its samples, or one run of a batch's bin planes, in flight (about
# 10 MiB of peak RSS at L = 128, 33-47 MiB at L = 256), and no more than
# two cores have been timed; SCURVE_THREADS may still ask for more.
_MAX_DEFAULT_WORKERS = 2


def fft_workers() -> int:
    """Thread count of the so3 pool.

    The pool runs both the curvelet gamma chunks and the beta blocks of
    the whole-cube FFTs.  SCURVE_THREADS sets it; unset, it is the number
    of cores this process may run on, at most _MAX_DEFAULT_WORKERS.  A set
    value must be a positive integer; anything else raises ValueError.
    """
    raw = os.environ.get("SCURVE_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        return min(cores, _MAX_DEFAULT_WORKERS)
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"SCURVE_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n: the lengths pocketfft runs fastest."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


@functools.lru_cache
def _kernel_fft(L: int, h: int) -> tuple:
    """(pad, kernel spectrum) of the convolution from 2L-1 bins to the 2h+1 kept.

    The kernel v[q] = w_e(L-1+h - q), q = 0..2(L-1+h), is laid out so that
    a plain circular convolution of bins stored in FFT order puts out[m']
    at index L-1+h+m'.  w_e(q) = (w(q) + w(-q))/2 is the even part of the
    weights: real, 2/(1-q^2) at even q and zero at odd q, the +-i pi/2 at
    q = +-1 cancelling.  The pad is the smallest fast length >= 2L-1+2h.
    """
    pad = _next_fast_len(2 * L - 1 + 2 * h)
    kernel = sfft.fft(weight_kernel(L - 1 + h)[::-1].real, n=pad)
    kernel.setflags(write=False)
    return pad, kernel


def weighted_convolve(buf: np.ndarray, h: int, L: int) -> np.ndarray:
    """Apply the exact sin(beta) quadrature weights in the bin domain, in place.

    The bin kernel folds its output onto p >= 0 as Y[p] + sigma Y[-p] of
    bins that are sigma-symmetric, sigma = +-1, and that fold reads only
    the even part w_e of the weights w(q), the integrals of sin(beta)
    exp(i q beta) over [0, pi] (_kernel_fft): the odd part cancels in it,
    and at p = 0 only sigma = +1 is read.  buf holds, along its last
    axis, the centred bins m'' = -(L-1)..L-1 in FFT order at the padded
    length of _kernel_fft(L, h): m'' >= 0 from the front, m'' < 0 at the
    back, zeros between; the bin kernel in so3.py fills one so the
    convolution needs no copy.  The result is a view of buf holding the
    2h+1 centred bins |m'| <= h, out[m'] = sum_m'' bin[m''] w_e(m'' - m').
    The circular convolution at a padded length >= 2L-1+2h is alias-free:
    the kernel spans |m'' - m'| <= L-1+h.
    """
    if not 0 <= h < L:
        raise ValueError(f"kept half-width {h} out of range for {2 * L - 1} bins")
    pad, kernel = _kernel_fft(L, h)
    if buf.shape[-1] != pad:
        raise ValueError(f"expected a buffer of {pad} bins, got {buf.shape[-1]}")
    sfft.fft(buf, out=buf)
    buf *= kernel
    sfft.ifft(buf, out=buf)
    return buf[..., L - 1 : L + 2 * h]
