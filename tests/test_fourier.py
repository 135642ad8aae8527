"""Checks for the shared FFT helpers."""

import math

import numpy as np
import oracles
import pytest

from scurve import fourier


class TestExtendPoles:
    def test_even_reflection(self):
        s = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            fourier.extend_poles(s, 1.0), [1.0, 2.0, 3.0, 2.0, 1.0]
        )

    def test_odd_reflection(self):
        s = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            fourier.extend_poles(s, -1.0), [1.0, 2.0, 3.0, -2.0, -1.0]
        )

    def test_per_column_parity(self):
        s = np.arange(6.0).reshape(3, 2)
        out = fourier.extend_poles(s, np.array([1.0, -1.0]), axis=0)
        assert out.shape == (5, 2)
        np.testing.assert_array_equal(out[3], [s[1, 0], -s[1, 1]])
        np.testing.assert_array_equal(out[4], [s[0, 0], -s[0, 1]])

    def test_other_axis(self):
        s = np.arange(6.0).reshape(2, 3)
        out = fourier.extend_poles(s, 1.0, axis=1)
        assert out.shape == (2, 5)
        np.testing.assert_array_equal(out[:, 3], s[:, 1])


class TestBetaBinPhase:
    def test_shape_and_center(self):
        ramp = fourier.beta_bin_phase(5, +1)
        assert ramp.shape == (9,)
        assert ramp[4] == 1.0 + 0.0j

    def test_sign_convention(self):
        L = 4
        ramp = fourier.beta_bin_phase(L, -1)
        mp = np.arange(-(L - 1), L)
        np.testing.assert_allclose(ramp, np.exp(-1j * mp * math.pi / (2 * L - 1)))

    def test_signs_are_conjugate(self):
        np.testing.assert_allclose(
            fourier.beta_bin_phase(6, +1), np.conj(fourier.beta_bin_phase(6, -1))
        )


class TestWeightedConvolve:
    def test_fft_matches_direct(self, rng):
        for L in (1, 2, 3, 8, 16):
            spec = rng.standard_normal(2 * L - 1) + 1j * rng.standard_normal(2 * L - 1)
            fast = fourier.weighted_convolve(spec)
            slow = oracles.dense_weighted_convolve(spec)
            assert np.abs(fast - slow).max() <= 1e-11

    def test_multidim_axis(self, rng):
        L = 9
        spec = rng.standard_normal((4, 2 * L - 1, 3)) + 0j
        fast = fourier.weighted_convolve(spec, axis=1)
        slow = oracles.dense_weighted_convolve(spec, axis=1)
        assert fast.shape == spec.shape
        assert np.abs(fast - slow).max() <= 1e-11

    def test_single_bin(self):
        # L = 1: only the m' = 0 bin, weight 2
        out = fourier.weighted_convolve(np.array([3.0 + 0j]))
        np.testing.assert_allclose(out, [6.0 + 0j])

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier.weighted_convolve(np.zeros(4, dtype=complex))


class TestFftWorkers:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("SCURVE_THREADS", raising=False)
        assert fourier.fft_workers() == 1

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
