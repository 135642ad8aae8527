"""Shared FFT plumbing for the sphere and rotation-group transforms.

Samples live on odd-length equiangular grids, so every periodic axis maps
onto signed Fourier bins with no Nyquist ambiguity.  Colatitude is the
delicate direction: its nodes only cover half a period, so the bin kernel
in so3.py extends them through the poles before transforming.  This
module holds what the kernel shares with the rest of the package: the FFT
worker count, and the exact sin(beta) weighting applied as a convolution
over centred colatitude bins.
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


# Largest default worker count.  Each worker holds one more chunk's planes
# in flight (30-50 MiB of peak RSS at L = 128, about four times that at
# L = 256), and no more than two cores have been timed; SCURVE_THREADS may
# still ask for more.
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
def _kernel_fft(L: int, pad: int) -> np.ndarray:
    # v[q] = w(2(L-1) - q): the weight kernel laid out so that a plain
    # convolution computes the correlation we need.
    kernel = sfft.fft(weight_kernel(2 * (L - 1))[::-1], n=pad)
    kernel.setflags(write=False)
    return kernel


def weighted_convolve(spectrum: np.ndarray, axis: int = 0):
    """Apply the exact sin(beta) quadrature weights in the bin domain.

    spectrum holds centered bins m'' of length 2L-1 along axis; the result
    has the same shape with out[m'] = sum_m'' spectrum[m''] w(m'' - m').
    The convolution runs circularly at padded length >= 4L-3, which is
    provably alias-free for the 2L-1 output bins kept.  It runs along the
    last axis of one zero-padded copy, transformed in place; the result is
    a view of that copy.
    """
    spectrum = np.moveaxis(np.asarray(spectrum), axis, -1)
    K = spectrum.shape[-1]
    L = (K + 1) // 2
    if K != 2 * L - 1:
        raise ValueError(f"expected odd bin count, got {K}")
    pad = _next_fast_len(4 * L - 3)
    buf = np.zeros(spectrum.shape[:-1] + (pad,), dtype=complex)
    buf[..., :K] = spectrum
    sfft.fft(buf, out=buf)
    buf *= _kernel_fft(L, pad)
    sfft.ifft(buf, out=buf)
    return np.moveaxis(buf[..., 2 * L - 2 : 4 * L - 3], -1, axis)
