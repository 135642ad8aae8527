"""Checks for the shared FFT helpers."""

import os

import numpy as np
import oracles
import pytest

from scurve import fourier


class TestWeightedConvolve:
    @staticmethod
    def padded(spec, L, h):
        """The centred bins of spec (last axis) in FFT order at the padded length."""
        pad = fourier._kernel_fft(L, h)[0]
        buf = np.zeros(spec.shape[:-1] + (pad,), complex)
        buf[..., :L] = spec[..., L - 1 :]
        buf[..., pad - L + 1 :] = spec[..., : L - 1]
        return buf

    def test_single_bin(self):
        # L = 1: only the m' = 0 bin, weight 2
        out = fourier.weighted_convolve(np.array([3.0 + 0j]), 0, 1)
        np.testing.assert_allclose(out, [6.0 + 0j])

    @pytest.mark.parametrize("L", [1, 2, 5, 16])
    def test_band_limited_output_matches_direct(self, rng, L):
        """Keeping the bins |m'| <= h of a stack of planes gives that slice of the convolution."""
        shape = (3, 2, 2 * L - 1)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        slow = oracles.dense_weighted_convolve(spec, axis=-1)
        for h in range(L):
            fast = fourier.weighted_convolve(self.padded(spec, L, h), h, L)
            assert fast.shape == (3, 2, 2 * h + 1)
            assert np.abs(fast - slow[..., L - 1 - h : L + h]).max() <= 1e-11

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 16])
    def test_padded_buffer_in_fft_order(self, rng, L):
        """The bins go in FFT order at the padded length and are convolved in place."""
        spec = rng.standard_normal((2, 2 * L - 1)) + 1j * rng.standard_normal((2, 2 * L - 1))
        slow = oracles.dense_weighted_convolve(spec, axis=1)
        for h in range(L):
            assert fourier._kernel_fft(L, h)[0] >= 2 * L - 1 + 2 * h
            buf = self.padded(spec, L, h)
            fast = fourier.weighted_convolve(buf, h, L)
            assert np.shares_memory(fast, buf)
            assert np.abs(fast - slow[:, L - 1 - h : L + h]).max() <= 1e-11

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("L", [2, 5, 16])
    def test_fold_reads_only_the_even_weights(self, rng, L, sigma):
        """Folded onto p >= 0, sigma-symmetric bins see the even part of the weights only.

        The bin kernel's planes satisfy X[-m] = sigma X[m] and it keeps
        F[p] = Y[p] + sigma Y[-p] of their convolution Y, F[0] only where
        sigma = +1: the full weights and their even part give the same F.
        """
        half = rng.standard_normal((3, L)) + 1j * rng.standard_normal((3, L))
        if sigma < 0:
            half[:, 0] = 0.0
        bins = np.concatenate([sigma * half[:, :0:-1], half], axis=1)

        def fold(Y):
            F = Y[:, L - 1 :] + sigma * Y[:, L - 1 :: -1]
            F[:, 0] = Y[:, L - 1] if sigma > 0 else 0.0
            return F

        full = fold(oracles.dense_weighted_convolve(bins, axis=1, even=False))
        even = fold(fourier.weighted_convolve(self.padded(bins, L, L - 1), L - 1, L))
        assert np.abs(even - full).max() <= 1e-14 * np.abs(full).max()

    def test_band_limit_validation(self):
        with pytest.raises(ValueError, match="half-width"):
            fourier.weighted_convolve(np.zeros(9, dtype=complex), 3, 3)
        with pytest.raises(ValueError, match="half-width"):
            fourier.weighted_convolve(np.zeros(5, dtype=complex), -1, 3)
        with pytest.raises(ValueError, match="buffer"):
            fourier.weighted_convolve(np.zeros((2, 7), dtype=complex), 2, 3)


class TestNextFastLen:
    def test_matches_brute_force_search(self):
        # every 11-smooth number up to past 2100, from products of prime powers
        smooth = {1}
        for p in (2, 3, 5, 7, 11):
            grown = set(smooth)
            for k in smooth:
                while k * p <= 4096:
                    k *= p
                    grown.add(k)
            smooth = grown
        ordered = sorted(smooth)
        for n in range(1, 2101):
            assert fourier._next_fast_len(n) == next(k for k in ordered if k >= n)

    @pytest.mark.parametrize("n, expected", [(509, 512), (257, 264), (61, 63)])
    def test_pad_lengths(self, n, expected):
        assert fourier._next_fast_len(n) == expected


class TestFftWorkers:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("SCURVE_THREADS", raising=False)
        assert fourier.fft_workers() == min(len(os.sched_getaffinity(0)), 2)

    def test_default_is_capped(self, monkeypatch):
        monkeypatch.delenv("SCURVE_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
        assert fourier.fft_workers() == 2

    @pytest.mark.parametrize("cpus, expected", [(1, 1), (8, 2), (None, 1)])
    def test_default_without_affinity(self, monkeypatch, cpus, expected):
        """Platforms without sched_getaffinity fall back on the CPU count."""
        monkeypatch.delenv("SCURVE_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert fourier.fft_workers() == expected

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SCURVE_THREADS", "8")
        assert fourier.fft_workers() == 8

    @pytest.mark.parametrize("raw", ["lots", "", "2.5"])
    def test_garbage_is_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("SCURVE_THREADS", raw)
        with pytest.raises(ValueError, match=f"SCURVE_THREADS.*'{raw}'"):
            fourier.fft_workers()

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_non_positive_is_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("SCURVE_THREADS", raw)
        with pytest.raises(ValueError, match=f"SCURVE_THREADS.*'{raw}'"):
            fourier.fft_workers()
