"""Checks for the rotation-matrix kernel layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scurve import wigner

import oracles


class TestDSum:
    def test_degree_zero_is_identity(self):
        assert oracles.wigner_d_sum(0, 0, 0, 1.234) == 1.0

    def test_corner_element_closed_form(self):
        # d^2_{22}(beta) = cos^4(beta/2)
        for beta in (0.0, 0.3, math.pi / 4, 1.9, math.pi):
            got = oracles.wigner_d_sum(2, 2, 2, beta)
            assert got == pytest.approx(math.cos(beta / 2) ** 4, abs=1e-15)
        assert oracles.wigner_d_sum(2, 2, 2, math.pi / 4) == pytest.approx(
            0.7285533905932737, abs=1e-15
        )

    def test_center_element_vanishes_at_half_pi(self):
        # d^1_{00} = cos(beta); the rational path cancels it exactly
        assert oracles.wigner_d_sum(1, 0, 0, math.pi / 2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            oracles.wigner_d_sum(-1, 0, 0, 0.5)
        with pytest.raises(ValueError):
            oracles.wigner_d_sum(2, 3, 0, 0.5)
        with pytest.raises(ValueError):
            oracles.wigner_d_sum(2, 0, -3, 0.5)
        with pytest.raises(ValueError):
            oracles.wigner_d_sum(2, 0, 0, -0.1)
        with pytest.raises(ValueError):
            oracles.wigner_d_sum(2, 0, 0, 3.2)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_symmetries(self, data):
        ell = data.draw(st.integers(0, 10))
        m = data.draw(st.integers(-ell, ell))
        n = data.draw(st.integers(-ell, ell))
        beta = data.draw(st.floats(0.0, math.pi, allow_nan=False))
        ref = oracles.wigner_d_sum(ell, m, n, beta)
        sign = -1.0 if (m - n) % 2 else 1.0
        assert oracles.wigner_d_sum(ell, -m, -n, beta) == pytest.approx(
            sign * ref, abs=1e-13
        )
        assert oracles.wigner_d_sum(ell, n, m, beta) == pytest.approx(
            sign * ref, abs=1e-13
        )

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 12), st.floats(0.0, math.pi, allow_nan=False))
    def test_rows_are_unit_vectors(self, ell, beta):
        m = ell // 2
        total = sum(
            oracles.wigner_d_sum(ell, m, n, beta) ** 2 for n in range(-ell, ell + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-13)


class TestHalfPiTable:
    def test_band_limit_one(self):
        table = wigner.build_halfpi_table(1)
        assert table.band_limit == 1
        np.testing.assert_array_equal(table.plane(0), [[1.0]])

    def test_degree_one_seed(self):
        r = 1.0 / math.sqrt(2.0)
        expect = [[0.5, r, 0.5], [-r, 0.0, r], [0.5, -r, 0.5]]
        np.testing.assert_allclose(wigner.build_halfpi_table(2).plane(1), expect)

    def test_frozen_entry(self):
        assert wigner.halfpi_table(3).value(2, 2, 2) == pytest.approx(0.25, abs=1e-15)

    def test_matches_exact_sum(self, rng):
        table = wigner.halfpi_table(33)
        for _ in range(250):
            ell = int(rng.integers(0, 33))
            mp = int(rng.integers(-ell, ell + 1))
            m = int(rng.integers(-ell, ell + 1))
            ref = oracles.wigner_d_sum(ell, mp, m, math.pi / 2)
            assert table.value(ell, mp, m) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("ell", [127, 255])
    def test_matches_exact_sum_at_high_degree(self, ell):
        # the recursion runs ell steps deep, far past test_matches_exact_sum
        table = wigner.halfpi_table(ell + 1)
        rng = np.random.default_rng(ell)
        pairs = [(a, b) for a in (-ell, ell) for b in (-ell, ell)] + [(0, 0)]
        pairs += [tuple(int(k) for k in rng.integers(-ell, ell + 1, 2)) for _ in range(40)]
        for mp, m in pairs:
            ref = oracles.wigner_d_sum(ell, mp, m, math.pi / 2)
            assert table.value(ell, mp, m) == pytest.approx(ref, abs=1e-12), (mp, m)

    def test_transpose_symmetry(self):
        table = wigner.halfpi_table(65)
        for ell in (5, 16, 33, 64):
            plane = table.plane(ell)
            ms = np.arange(-ell, ell + 1)
            signs = wigner.alt_sign(np.subtract.outer(ms, ms))
            np.testing.assert_allclose(plane, signs * plane.T, atol=1e-12)

    def test_stores_one_quadrant_per_degree(self):
        L = 40
        table = wigner.build_halfpi_table(L)
        assert [p.shape for p in table.planes] == [(ell + 1, ell + 1) for ell in range(L)]
        assert sum(p.nbytes for p in table.planes) == sum((ell + 1) ** 2 * 8 for ell in range(L))
        for ell in range(L):
            np.testing.assert_array_equal(table.plane(ell)[ell:, ell:], table.planes[ell])

    def test_expanded_planes_obey_both_reflections(self):
        table = wigner.halfpi_table(65)
        for ell in (0, 1, 2, 5, 16, 33, 64):
            plane = table.plane(ell)
            assert plane.shape == (2 * ell + 1, 2 * ell + 1)
            ms = np.arange(-ell, ell + 1)
            # d_{m',-m} = (-1)^(ell+m') d_{m'm} and d_{-m',m} = (-1)^(ell+m) d_{m'm}
            np.testing.assert_array_equal(
                plane[:, ::-1], wigner.alt_sign(ell + ms)[:, None] * plane
            )
            np.testing.assert_array_equal(plane[::-1], wigner.alt_sign(ell + ms) * plane)

    def test_planes_are_immutable(self):
        with pytest.raises(ValueError):
            wigner.halfpi_table(4).plane(2)[0, 0] = 9.9

    def test_validation(self):
        with pytest.raises(ValueError):
            wigner.build_halfpi_table(0)
        with pytest.raises(ValueError):
            wigner.halfpi_table(4).value(2, 3, 0)


class TestDMatrix:
    def test_orthogonality(self):
        betas = np.linspace(0.0, math.pi, 9)
        for ell in range(17):
            eye = np.eye(2 * ell + 1)
            for beta in betas:
                d = wigner.wigner_d_matrix(ell, beta)
                assert np.abs(d @ d.T - eye).max() <= 1e-10

    def test_matches_exact_sum(self):
        for ell in (0, 1, 3, 6):
            for beta in (0.0, 0.7, math.pi / 2, 2.9):
                d = wigner.wigner_d_matrix(ell, beta)
                for mi, m in enumerate(range(-ell, ell + 1)):
                    for ni, n in enumerate(range(-ell, ell + 1)):
                        ref = oracles.wigner_d_sum(ell, m, n, beta)
                        assert d[mi, ni] == pytest.approx(ref, abs=1e-13)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            wigner.wigner_d_matrix(-2, 0.5)


class TestEdgeColumns:
    def test_matches_exact_sum(self):
        for ell in (1, 5, 20):
            for beta in (0.0, 0.4, math.pi / 2, 2.8, math.pi):
                pos, neg = wigner.wigner_d_edge_columns(ell, beta)
                for ki, k in enumerate(range(-ell, ell + 1)):
                    assert pos[ki] == pytest.approx(
                        oracles.wigner_d_sum(ell, k, ell, beta), abs=1e-14
                    )
                    assert neg[ki] == pytest.approx(
                        oracles.wigner_d_sum(ell, k, -ell, beta), abs=1e-14
                    )

    def test_array_of_betas_matches_exact_sum(self):
        """Each column within 1e-14 of its largest exact entry, over an array of betas."""
        betas = np.array([[0.0, 0.3, 1.1, math.pi / 2], [2.0, 2.6, 3.1, math.pi]])
        for ell in (0, 1, 7, 24):
            pos, neg = wigner.wigner_d_edge_columns(ell, betas)
            assert pos.shape == neg.shape == betas.shape + (2 * ell + 1,)
            for idx in np.ndindex(betas.shape):
                for got, n in ((pos[idx], ell), (neg[idx], -ell)):
                    exact = np.array(
                        [oracles.wigner_d_sum(ell, k, n, betas[idx]) for k in range(-ell, ell + 1)]
                    )
                    assert np.abs(got - exact).max() <= 1e-14 * np.abs(exact).max(), (ell, idx)
            for got, scalar in zip((pos, neg), wigner.wigner_d_edge_columns(ell, 1.1)):
                np.testing.assert_array_equal(got[0, 2], scalar)

    def test_identity_rotation(self):
        pos, neg = wigner.wigner_d_edge_columns(3, 0.0)
        expect_pos = np.zeros(7)
        expect_pos[-1] = 1.0
        expect_neg = np.zeros(7)
        expect_neg[0] = 1.0
        np.testing.assert_array_equal(pos, expect_pos)
        np.testing.assert_array_equal(neg, expect_neg)

    def test_survives_huge_degree(self):
        # factorial(4000) overflows floats; the log form must not
        pos, neg = wigner.wigner_d_edge_columns(2000, 1.3)
        assert np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))
        assert (pos**2).sum() == pytest.approx(1.0, rel=1e-10)
        assert (neg**2).sum() == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("ell, beta", [(600, 0.01), (2000, 0.01), (2000, 3.13)])
    def test_huge_degree_near_a_pole(self, ell, beta):
        """Unit columns where 4^-ell and the powers leave the doubles on their own."""
        pos, neg = wigner.wigner_d_edge_columns(ell, beta)
        assert (pos**2).sum() == pytest.approx(1.0, rel=1e-10)
        assert (neg**2).sum() == pytest.approx(1.0, rel=1e-10)


class TestWignerD:
    def test_trivial_rotation(self):
        rho = oracles.EulerAngles(0.0, 0.0, 0.0)
        assert oracles.wigner_D(0, 0, 0, rho) == 1.0 + 0.0j

    def test_frozen_zero(self):
        rho = oracles.EulerAngles(0.3, math.pi / 2, 0.7)
        assert oracles.wigner_D(1, 0, 0, rho) == 0.0 + 0.0j

    def test_conjugate_symmetry(self, rng):
        for _ in range(40):
            ell = int(rng.integers(0, 9))
            m = int(rng.integers(-ell, ell + 1))
            n = int(rng.integers(-ell, ell + 1))
            rho = oracles.EulerAngles(
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi),
            )
            lhs = np.conj(oracles.wigner_D(ell, m, n, rho))
            rhs = oracles.wigner_D(ell, -m, -n, rho)
            sign = -1.0 if (m + n) % 2 else 1.0
            assert lhs == pytest.approx(sign * rhs, abs=1e-13)


class TestEulerAngles:
    def test_normalises_periodic_angles(self):
        rho = oracles.EulerAngles(7.0, 1.0, -1.0)
        assert rho.alpha == pytest.approx(7.0 - 2 * math.pi)
        assert rho.beta == 1.0
        assert rho.gamma == pytest.approx(2 * math.pi - 1.0)

    def test_rejects_folded_colatitude(self):
        with pytest.raises(ValueError):
            oracles.EulerAngles(0.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            oracles.EulerAngles(0.0, 3.2, 0.0)


class TestSpinHarmonics:
    def test_monopole(self):
        got = oracles.spin_sph_harm(0, 0, 0, (0.4, 1.1))
        assert got == pytest.approx(1.0 / math.sqrt(4 * math.pi), abs=1e-15)

    def test_dipole(self):
        expect = math.sqrt(3 / (4 * math.pi)) * math.cos(math.pi / 3)
        got = oracles.spin_sph_harm(1, 0, 0, (math.pi / 3, 0.0))
        assert got == pytest.approx(expect, abs=1e-15)

    def test_conjugation_identity(self, rng):
        for _ in range(30):
            ell = int(rng.integers(0, 7))
            s = int(rng.integers(-ell, ell + 1))
            m = int(rng.integers(-ell, ell + 1))
            omega = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            lhs = np.conj(oracles.spin_sph_harm(ell, m, s, omega))
            rhs = oracles.spin_sph_harm(ell, -m, -s, omega)
            sign = -1.0 if (s + m) % 2 else 1.0
            assert lhs == pytest.approx(sign * rhs, abs=1e-13)

    def test_rejects_order_out_of_range(self):
        with pytest.raises(ValueError):
            oracles.spin_sph_harm(1, 0, 2, (0.3, 0.3))


class TestQuadratureWeights:
    def test_frozen_values(self):
        assert wigner.quadrature_weight(0) == 2.0 + 0.0j
        assert wigner.quadrature_weight(1) == 0.5j * math.pi
        assert wigner.quadrature_weight(-1) == -0.5j * math.pi
        assert wigner.quadrature_weight(2) == pytest.approx(-2.0 / 3.0)
        assert wigner.quadrature_weight(3) == 0.0j

    def test_even_closed_form(self):
        for mp in range(-64, 65, 2):
            assert wigner.quadrature_weight(mp) == pytest.approx(
                2.0 / (1 - mp * mp), abs=1e-15
            )

    def test_matches_numeric_integration(self):
        for mp in range(-64, 65):
            ref = oracles.simpson_sin_exp(mp)
            assert wigner.quadrature_weight(mp) == pytest.approx(ref, abs=1e-10)

    def test_kernel_agrees_elementwise(self):
        kernel = wigner.weight_kernel(20)
        assert kernel.shape == (41,)
        for idx, mp in enumerate(range(-20, 21)):
            assert kernel[idx] == wigner.quadrature_weight(mp)


class TestPhaseHelpers:
    def test_ipow_cycle(self):
        assert wigner.ipow_vec(np.arange(4)).tolist() == [1, 1j, -1, -1j]
        assert wigner.ipow_vec(-1) == -1j

    def test_ipow_vec_matches_scalar(self):
        ks = np.arange(-9, 10)
        np.testing.assert_array_equal(
            wigner.ipow_vec(ks), [[1, 1j, -1, -1j][k % 4] for k in ks]
        )

    def test_alt_sign(self):
        np.testing.assert_array_equal(
            wigner.alt_sign(np.arange(-2, 3)), [1.0, -1.0, 1.0, -1.0, 1.0]
        )
