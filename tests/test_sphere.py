"""Checks for the spin spherical harmonic transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scurve
from scurve import sphere

import oracles


class TestGrid:
    def test_node_formulas(self):
        g = scurve.SphereGrid(4)
        np.testing.assert_allclose(g.thetas, np.pi * (2 * np.arange(4) + 1) / 7)
        np.testing.assert_allclose(g.phis, 2 * np.pi * np.arange(7) / 7)
        assert g.shape == (4, 7)

    def test_degenerate_grid(self):
        g = scurve.SphereGrid(1)
        assert g.shape == (1, 1)
        assert g.thetas[0] == pytest.approx(np.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            scurve.SphereGrid(0)


class TestContainers:
    def test_lm_index(self):
        assert sphere.lm_index(0, 0) == 0
        assert sphere.lm_index(1, -1) == 1
        assert sphere.lm_index(1, 0) == 2
        assert sphere.lm_index(2, 2) == 8

    def test_coeff_accessors(self, rng):
        flm = scurve.random_coeffs(4, 0, rng)
        assert flm.at(2, -1) == flm.values[sphere.lm_index(2, -1)]
        np.testing.assert_array_equal(flm.degree_slice(3), flm.values[9:16])

    def test_rejects_power_below_spin(self):
        vals = np.zeros(9, dtype=complex)
        vals[0] = 1.0
        with pytest.raises(ValueError):
            scurve.HarmonicCoeffs(3, 2, vals)

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            scurve.HarmonicCoeffs(3, 0, np.zeros(8, dtype=complex))
        g = scurve.SphereGrid(3)
        with pytest.raises(ValueError):
            scurve.SphereSignal(g, 0, np.zeros((3, 3), dtype=complex))

    def test_real_signal_flag(self):
        g = scurve.SphereGrid(2)
        with pytest.raises(ValueError):
            scurve.SphereSignal(g, 2, np.zeros(g.shape), real=True)

    def test_random_coeffs_determinism(self):
        a = scurve.random_coeffs(8, 1, np.random.default_rng(7))
        b = scurve.random_coeffs(8, 1, np.random.default_rng(7))
        np.testing.assert_array_equal(a.values, b.values)


class TestRoundTrip:
    def test_constant_signal(self):
        vals = np.zeros(1, dtype=complex)
        vals[0] = math.sqrt(4 * math.pi)
        f = scurve.sht_inverse(scurve.HarmonicCoeffs(1, 0, vals))
        np.testing.assert_allclose(f.values, 1.0, atol=1e-14)
        back = scurve.sht_forward(f)
        assert back.at(0, 0) == pytest.approx(math.sqrt(4 * math.pi), abs=1e-12)

    def test_constant_on_larger_grid(self):
        vals = np.zeros(64, dtype=complex)
        vals[0] = math.sqrt(4 * math.pi)
        f = scurve.sht_inverse(scurve.HarmonicCoeffs(8, 0, vals))
        np.testing.assert_allclose(f.values, 1.0, atol=1e-13)
        back = scurve.sht_forward(f)
        assert abs(back.at(0, 0) - math.sqrt(4 * math.pi)) <= 1e-12
        rest = back.values.copy()
        rest[0] = 0.0
        assert np.abs(rest).max() <= 1e-12

    def test_every_basis_function(self):
        # all (ell, m) at L = 8: recover the unit coefficient, leak nowhere
        L = 8
        for spin in (0, 1, 2):
            for ell in range(abs(spin), L):
                for m in range(-ell, ell + 1):
                    vals = np.zeros(L * L, dtype=complex)
                    vals[sphere.lm_index(ell, m)] = 1.0
                    flm = scurve.HarmonicCoeffs(L, spin, vals)
                    back = scurve.sht_forward(scurve.sht_inverse(flm))
                    err = np.abs(back.values - vals)
                    assert err.max() <= 1e-12

    @pytest.mark.parametrize("L", [4, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("spin", [0, 1, 2])
    def test_random_signals(self, L, spin, rng):
        flm = scurve.random_coeffs(L, spin, rng)
        back = scurve.sht_forward(scurve.sht_inverse(flm))
        err = np.abs(back.values - flm.values).max()
        assert err <= 1e-10
        assert err <= 100.0 * L * L * np.finfo(float).eps

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 24), st.integers(-2, 2), st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, L, spin, seed):
        if abs(spin) >= L:
            spin = 0
        flm = scurve.random_coeffs(L, spin, np.random.default_rng(seed))
        back = scurve.sht_forward(scurve.sht_inverse(flm))
        assert np.abs(back.values - flm.values).max() <= 1e-10


class TestAgainstDirectSummation:
    @pytest.mark.parametrize("L,spin", [(4, 0), (4, 1), (8, 0), (8, 1), (8, 2)])
    def test_small_band_limits(self, L, spin, rng):
        flm = scurve.random_coeffs(L, spin, rng)
        fast = scurve.sht_inverse(flm)
        slow = oracles.direct_sht_inverse(flm)
        assert np.abs(fast.values - slow.values).max() <= 1e-10

    def test_L16(self, rng):
        flm = scurve.random_coeffs(16, 2, rng)
        fast = scurve.sht_inverse(flm)
        slow = oracles.direct_sht_inverse(flm)
        assert np.abs(fast.values - slow.values).max() <= 1e-10


class TestParseval:
    @pytest.mark.parametrize("L,spin", [(4, 0), (8, 1), (16, 0), (16, 2)])
    def test_energy_matches_quadrature(self, L, spin, rng):
        flm = scurve.random_coeffs(L, spin, rng)
        coeff_energy = float(np.sum(np.abs(flm.values) ** 2))
        quad_energy = oracles.sphere_inner_product(flm, flm).real
        assert quad_energy == pytest.approx(coeff_energy, rel=1e-9)


class TestRealPath:
    @pytest.mark.parametrize("L", [4, 16, 64])
    def test_matches_complex_path(self, L, rng):
        flm = scurve.random_coeffs(L, 0, rng, real=True)
        via_real = scurve.sht_inverse_real(flm)
        via_complex = scurve.sht_inverse(scurve.HarmonicCoeffs(L, 0, flm.values))
        assert via_real.real
        assert np.abs(via_complex.values.imag).max() <= 1e-12
        assert np.abs(via_real.values - via_complex.values.real).max() <= 1e-12
        back = scurve.sht_forward_real(via_real)
        assert np.abs(back.values - flm.values).max() <= 1e-10

    def test_forward_matches_complex_forward(self, rng):
        L = 32
        flm = scurve.random_coeffs(L, 0, rng, real=True)
        f = scurve.sht_inverse_real(flm)
        fc = scurve.SphereSignal(f.grid, 0, f.values.astype(complex))
        a = scurve.sht_forward_real(f)
        b = scurve.sht_forward(fc)
        assert np.abs(a.values - b.values).max() <= 1e-12

    def test_random_real_coeffs_have_symmetry(self, rng):
        flm = scurve.random_coeffs(6, 0, rng, real=True)
        for ell in range(6):
            for m in range(0, ell + 1):
                lhs = np.conj(flm.at(ell, m))
                rhs = (-1.0 if m % 2 else 1.0) * flm.at(ell, -m)
                assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_rejects_spin(self, rng):
        with pytest.raises(ValueError):
            scurve.random_coeffs(4, 1, rng, real=True)

    def test_real_flag_requires_symmetry(self, rng):
        vals = scurve.random_coeffs(8, 0, rng).values
        with pytest.raises(ValueError, match="conjugate symmetry"):
            scurve.HarmonicCoeffs(8, 0, vals, real=True)
        sym = scurve.random_coeffs(8, 0, rng, real=True).values
        sym[sphere.lm_index(3, -2)] += 1e-6
        with pytest.raises(ValueError, match="conjugate symmetry"):
            scurve.HarmonicCoeffs(8, 0, sym, real=True)

    def test_forward_output_carries_exact_symmetry(self, rng):
        L = 16
        f = scurve.sht_inverse_real(scurve.random_coeffs(L, 0, rng, real=True))
        flm = scurve.sht_forward(f)
        assert flm.real
        sym = flm.values.copy()
        sphere._impose_real_symmetry(sym)
        np.testing.assert_array_equal(sym, flm.values)
