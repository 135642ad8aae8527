"""Checks for the rotation-group transforms."""

import math
import time

import numpy as np
import pytest

import scurve
from scurve import so3

import oracles


def sparse_with_real_symmetry(L, rng):
    """Outer-column coefficients whose synthesis is a real field."""
    w = scurve.CurveletWignerCoeffs.zeros(L)
    for ell in range(L):
        row = rng.uniform(-1, 1, 2 * ell + 1) + 1j * rng.uniform(-1, 1, 2 * ell + 1)
        if ell == 0:
            row = row.real.astype(complex)
        w.set_row(ell, row)
        if ell > 0:
            ms = np.arange(-ell, ell + 1)
            signs = np.where((ms + ell) % 2 == 0, 1.0, -1.0)
            w.set_row(-ell, signs * np.conj(row[::-1]))
    return w


class TestGrid:
    def test_node_formulas(self):
        g = scurve.SO3Grid(3, 4, 5)
        assert g.shape == (9, 3, 7)
        np.testing.assert_allclose(g.betas, np.pi * (2 * np.arange(3) + 1) / 5)
        np.testing.assert_allclose(g.alphas, 2 * np.pi * np.arange(7) / 7)
        np.testing.assert_allclose(g.gammas, 2 * np.pi * np.arange(9) / 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            scurve.SO3Grid(0, 1, 1)
        with pytest.raises(ValueError):
            scurve.SO3Signal(scurve.SO3Grid(2, 2, 2), np.zeros((3, 3, 3)) + 0j)
        with pytest.raises(ValueError):
            scurve.SO3Signal(
                scurve.SO3Grid(2, 2, 2), np.zeros((3, 2, 3), complex), real=True
            )


class TestCoefficientContainers:
    def test_dense_plane_shapes(self):
        w = scurve.WignerCoeffs.zeros(3)
        assert [p.shape for p in w.planes] == [(1, 1), (3, 3), (5, 5)]
        with pytest.raises(ValueError):
            scurve.WignerCoeffs(2, [np.zeros((1, 1), complex)])
        with pytest.raises(ValueError):
            scurve.WignerCoeffs(1, [np.zeros((3, 3), complex)])

    def test_sparse_rows(self, rng):
        w = scurve.CurveletWignerCoeffs.random(4, rng)
        assert w.values.shape == (2, 4, 7)
        row = w.row(-2)
        assert row.shape == (5,)
        w.set_row(-2, np.arange(5.0) + 0j)
        np.testing.assert_array_equal(w.row(-2), np.arange(5.0))
        with pytest.raises(ValueError):
            w.row(4)

    def test_densify_places_outer_columns(self, rng):
        w = scurve.CurveletWignerCoeffs.random(3, rng)
        dense = w.densify()
        for ell in range(3):
            plane = dense.planes[ell]
            np.testing.assert_array_equal(plane[:, 2 * ell], w.row(ell))
            if ell > 0:
                np.testing.assert_array_equal(plane[:, 0], w.row(-ell))
                interior = plane[:, 1 : 2 * ell]
                assert np.abs(interior).max() == 0.0

    def test_degree_zero_second_sheet_unused(self):
        w = scurve.CurveletWignerCoeffs.zeros(2)
        assert w.row(0).shape == (1,)
        np.testing.assert_array_equal(w.values[1, 0], 0.0)


class TestGeneralTransforms:
    def test_constant_field(self):
        w = scurve.WignerCoeffs.zeros(4)
        w.planes[0][0, 0] = 8 * math.pi**2
        f = scurve.so3_inverse_general(w, scurve.SO3Grid(4, 4, 4))
        np.testing.assert_allclose(f.values, 1.0, atol=1e-12)
        back = scurve.so3_forward_general(f)
        assert back.planes[0][0, 0] == pytest.approx(8 * math.pi**2, abs=1e-10)
        for ell in range(1, 4):
            assert np.abs(back.planes[ell]).max() <= 1e-10

    @pytest.mark.parametrize("L", [1, 2, 4, 8])
    def test_round_trip(self, L, rng):
        w = scurve.WignerCoeffs.random(L, rng)
        f = scurve.so3_inverse_general(w, scurve.SO3Grid(L, L, L))
        back = scurve.so3_forward_general(f)
        worst = max(
            np.abs(back.planes[ell] - w.planes[ell]).max() for ell in range(L)
        )
        assert worst <= 1e-10

    def test_matches_direct_summation(self, rng):
        L = 6
        w = scurve.WignerCoeffs.random(L, rng)
        grid = scurve.SO3Grid(L, L, L)
        f = scurve.so3_inverse_general(w, grid)
        for _ in range(12):
            gi = int(rng.integers(0, 2 * L - 1))
            bi = int(rng.integers(0, L))
            ai = int(rng.integers(0, 2 * L - 1))
            node = (grid.alphas[ai], grid.betas[bi], grid.gammas[gi])
            ref = oracles.direct_so3_inverse_at(w, node)
            assert abs(f.values[gi, bi, ai] - ref) <= 1e-10

    def test_oversampled_grid(self, rng):
        # synthesis on a finer grid than the band limit needs
        L = 4
        w = scurve.WignerCoeffs.random(L, rng)
        f = scurve.so3_inverse_general(w, scurve.SO3Grid(6, 6, 6))
        back = scurve.so3_forward_general(f, band_limit=L)
        worst = max(
            np.abs(back.planes[ell] - w.planes[ell]).max() for ell in range(L)
        )
        assert worst <= 1e-10

    def test_validation(self, rng):
        w = scurve.WignerCoeffs.zeros(8)
        with pytest.raises(ValueError):
            scurve.so3_inverse_general(w, scurve.SO3Grid(4, 4, 4))
        with pytest.raises(TypeError):
            scurve.so3_inverse_general(
                scurve.CurveletWignerCoeffs.zeros(4), scurve.SO3Grid(4, 4, 4)
            )


class TestCurveletTransforms:
    def test_constant_field(self):
        w = scurve.CurveletWignerCoeffs.zeros(4)
        w.row(0)[0] = 8 * math.pi**2
        f = scurve.so3_inverse_curvelet(w, scurve.SO3Grid(4, 4, 4))
        np.testing.assert_allclose(f.values, 1.0, atol=1e-12)
        back = scurve.so3_forward_curvelet(f)
        assert back.row(0)[0] == pytest.approx(8 * math.pi**2, abs=1e-10)

    def test_single_entry_matches_general(self):
        # one coefficient at (ell, m, n) = (3, 1, 3)
        L = 8
        w = scurve.CurveletWignerCoeffs.zeros(L)
        w.row(3)[1 + 3] = 1.0
        grid = scurve.SO3Grid(L, L, L)
        fast = scurve.so3_inverse_curvelet(w, grid)
        slow = scurve.so3_inverse_general(w.densify(), grid)
        assert np.abs(fast.values - slow.values).max() <= 1e-11

    @pytest.mark.parametrize("L", [4, 8, 16, 32])
    def test_inverse_matches_general(self, L, rng):
        w = scurve.CurveletWignerCoeffs.random(L, rng)
        grid = scurve.SO3Grid(L, L, L)
        fast = scurve.so3_inverse_curvelet(w, grid)
        slow = scurve.so3_inverse_general(w.densify(), grid)
        assert np.abs(fast.values - slow.values).max() <= 1e-10

    @pytest.mark.parametrize("L", [4, 8, 16, 32])
    def test_forward_matches_general(self, L, rng):
        w = scurve.CurveletWignerCoeffs.random(L, rng)
        f = scurve.so3_inverse_curvelet(w, scurve.SO3Grid(L, L, L))
        fast = scurve.so3_forward_curvelet(f)
        slow = scurve.so3_forward_general(f)
        c = L - 1
        for ell in range(L):
            sl = slice(c - ell, c + ell + 1)
            assert (
                np.abs(fast.values[0, ell, sl] - slow.planes[ell][:, 2 * ell]).max()
                <= 1e-10
            )
            if ell > 0:
                assert (
                    np.abs(fast.values[1, ell, sl] - slow.planes[ell][:, 0]).max()
                    <= 1e-10
                )

    @pytest.mark.parametrize("L", [4, 16, 64, 128])
    def test_round_trip(self, L, rng):
        w = scurve.CurveletWignerCoeffs.random(L, rng)
        f = scurve.so3_inverse_curvelet(w, scurve.SO3Grid(L, L, L))
        back = scurve.so3_forward_curvelet(f)
        assert np.abs(back.values - w.values).max() <= 1e-10

    def test_grid_shape_validation(self, rng):
        w = scurve.CurveletWignerCoeffs.random(4, rng)
        with pytest.raises(ValueError):
            scurve.so3_inverse_curvelet(w, scurve.SO3Grid(3, 3, 3))


class TestRealPath:
    @pytest.mark.parametrize("L", [2, 8, 24])
    def test_matches_complex_path(self, L, rng):
        w = sparse_with_real_symmetry(L, rng)
        grid = scurve.SO3Grid(L, L, L)
        via_complex = scurve.so3_inverse_curvelet(w, grid)
        via_real = scurve.so3_inverse_curvelet_real(w, grid)
        assert via_real.real
        assert np.abs(via_complex.values.imag).max() <= 1e-12
        assert np.abs(via_real.values - via_complex.values.real).max() <= 1e-12
        back = scurve.so3_forward_curvelet_real(via_real)
        assert np.abs(back.values - w.values).max() <= 1e-10

    def test_forward_matches_complex_forward(self, rng):
        L = 16
        w = sparse_with_real_symmetry(L, rng)
        f = scurve.so3_inverse_curvelet_real(w, scurve.SO3Grid(L, L, L))
        fc = scurve.SO3Signal(f.grid, f.values.astype(complex))
        a = scurve.so3_forward_curvelet_real(f)
        b = scurve.so3_forward_curvelet(fc)
        assert np.abs(a.values - b.values).max() <= 1e-12
        # The plain forward follows the real flag to the same result.
        d = scurve.so3_forward_curvelet(f)
        assert np.abs(d.values - a.values).max() <= 1e-12

    def test_real_synthesis_requires_symmetry(self, rng):
        w = scurve.CurveletWignerCoeffs.random(8, rng)
        with pytest.raises(ValueError, match="conjugate symmetry"):
            scurve.so3_inverse_curvelet_real(w, scurve.SO3Grid(8, 8, 8))
        w = sparse_with_real_symmetry(8, rng)
        w.values[0, 0, 7] += 1e-6j
        with pytest.raises(ValueError, match="conjugate symmetry"):
            scurve.so3_inverse_curvelet_real(w, scurve.SO3Grid(8, 8, 8))

    def test_forward_output_carries_exact_symmetry(self, rng):
        L = 12
        w = sparse_with_real_symmetry(L, rng)
        f = scurve.so3_inverse_curvelet_real(w, scurve.SO3Grid(L, L, L))
        back = scurve.so3_forward_curvelet(f)
        sym = back.values.copy()
        so3._impose_real_pairing(sym)
        np.testing.assert_array_equal(sym, back.values)


class TestSphereColumn:
    """The sphere transform is column n = -s of the rotation-group one."""

    @pytest.mark.parametrize("s", [0, 2, -1])
    def test_column_minus_spin(self, s, rng):
        L = 8
        flm = scurve.random_coeffs(L, s, rng)
        f = scurve.sht_inverse(flm)
        grid = scurve.SO3Grid(L, L, L)
        # F(alpha, beta, gamma) = f(beta, alpha) exp(-i s gamma), cube (gamma, beta, alpha)
        cube = np.exp(-1j * s * grid.gammas)[:, None, None] * f.values[None, :, :]
        w = scurve.so3_forward_general(scurve.SO3Signal(grid, cube))
        for ell in range(L):
            plane = w.planes[ell]
            if abs(s) <= ell:
                scale = (
                    8.0 * math.pi**2 / (2 * ell + 1)
                    * (-1.0) ** s
                    * math.sqrt((2 * ell + 1) / (4.0 * math.pi))
                )
                expected = scale * flm.degree_slice(ell)
                assert np.abs(plane[:, ell - s] - expected).max() <= 1e-12
                plane = np.delete(plane, ell - s, axis=1)
            assert np.abs(plane).max(initial=0.0) <= 1e-12


class TestScaling:
    def test_cost_grows_slower_than_l_to_3_5(self, rng):
        def timed(L):
            w = scurve.CurveletWignerCoeffs.random(L, rng)
            grid = scurve.SO3Grid(L, L, L)
            scurve.so3_inverse_curvelet(w, grid)  # warm caches
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                f = scurve.so3_inverse_curvelet(w, grid)
                scurve.so3_forward_curvelet(f)
                best = min(best, time.perf_counter() - t0)
            return best

        t32, t128 = timed(32), timed(128)
        slope = math.log(t128 / t32) / math.log(128 / 32)
        assert slope <= 3.5
