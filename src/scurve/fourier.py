"""Shared FFT plumbing for the sphere and rotation-group transforms.

Samples live on odd-length equiangular grids, so every periodic axis maps
onto signed Fourier bins with no Nyquist ambiguity.  Colatitude is the
delicate direction: its nodes sit at pi(2t+1)/(2L-1), offset from the
origin, and only cover half a period.  The helpers here extend such
samples to the full period with the right reflection parity, move between
sample and centered-bin order, and apply the exact sin(beta) weighting as
a convolution over bins.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np
from scipy import fft as sfft

from .wigner import weight_kernel

__all__ = [
    "beta_bin_phase",
    "extend_poles",
    "fft_workers",
    "weighted_convolve",
]


def fft_workers() -> int:
    """Worker count for the big FFT calls; SCURVE_THREADS caps it, default 1.

    A set value must be a positive integer; anything else raises ValueError.
    """
    raw = os.environ.get("SCURVE_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"SCURVE_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def extend_poles(samples: np.ndarray, parity, axis: int = 0) -> np.ndarray:
    """Extend colatitude samples on (0, pi] to the full period.

    samples has L nodes along axis; the result has 2L-1, where node
    b >= L holds parity * samples[2L-2-b], the reflection through the
    beta = pi node.  parity must broadcast against the input with the
    extension axis removed (a scalar, or one sign per remaining column).
    """
    samples = np.asarray(samples)
    L = samples.shape[axis]
    moved = np.moveaxis(samples, axis, 0)
    out = np.empty((2 * L - 1,) + moved.shape[1:], dtype=samples.dtype)
    out[:L] = moved
    out[L:] = parity * moved[L - 2 :: -1]
    return np.moveaxis(out, 0, axis)


def beta_bin_phase(L: int, sign: int) -> np.ndarray:
    """Phase ramp exp(sign * i * m' * pi/(2L-1)) over centered bins m'.

    The colatitude nodes are offset half a step from the origin; this ramp
    is that offset, applied in the bin domain.
    """
    mp = np.arange(-(L - 1), L)
    return np.exp(sign * 1j * mp * (math.pi / (2 * L - 1)))


_kernel_lock = threading.Lock()
_kernel_cache: dict = {}


def _kernel_fft(L: int, pad: int) -> np.ndarray:
    key = (L, pad)
    with _kernel_lock:
        hit = _kernel_cache.get(key)
        if hit is None:
            # v[q] = w(2(L-1) - q): the weight kernel laid out so that a
            # plain convolution computes the correlation we need.
            hit = sfft.fft(weight_kernel(2 * (L - 1))[::-1], n=pad)
            _kernel_cache[key] = hit
    return hit


def weighted_convolve(spectrum: np.ndarray, axis: int = 0):
    """Apply the exact sin(beta) quadrature weights in the bin domain.

    spectrum holds centered bins m'' of length 2L-1 along axis; the result
    has the same shape with out[m'] = sum_m'' spectrum[m''] w(m'' - m').
    The convolution runs circularly at padded length >= 4L-3, which is
    provably alias-free for the 2L-1 output bins kept.
    """
    spectrum = np.asarray(spectrum)
    K = spectrum.shape[axis]
    L = (K + 1) // 2
    if K != 2 * L - 1:
        raise ValueError(f"expected odd bin count, got {K}")
    pad = sfft.next_fast_len(4 * L - 3)
    kernel = _kernel_fft(L, pad)
    shape = [1] * spectrum.ndim
    shape[axis] = pad
    transformed = sfft.fft(spectrum, n=pad, axis=axis, workers=fft_workers())
    transformed *= kernel.reshape(shape)
    full = sfft.ifft(transformed, axis=axis, workers=fft_workers())
    sl = [slice(None)] * spectrum.ndim
    sl[axis] = slice(2 * L - 2, 4 * L - 3)
    return full[tuple(sl)]
