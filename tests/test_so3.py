"""Checks for the rotation-group transforms."""

import itertools
import math
import multiprocessing
import os
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest

import scurve
from scurve import fourier, so3

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
        g = scurve.SO3Grid(4)
        assert g.shape == (7, 4, 7)
        np.testing.assert_allclose(g.betas, np.pi * (2 * np.arange(4) + 1) / 7)
        np.testing.assert_allclose(g.alphas, 2 * np.pi * np.arange(7) / 7)
        np.testing.assert_allclose(g.gammas, 2 * np.pi * np.arange(7) / 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            scurve.SO3Grid(0)
        with pytest.raises(ValueError):
            scurve.SO3Signal(scurve.SO3Grid(2), np.zeros((3, 3, 3)) + 0j)
        with pytest.raises(ValueError):
            scurve.SO3Signal(
                scurve.SO3Grid(2), np.zeros((3, 2, 3), complex), real=True
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
        w = oracles.random_curvelet_wigner_coeffs(4, rng)
        assert w.values.shape == (2, 4, 7)
        row = w.row(-2)
        assert row.shape == (5,)
        w.set_row(-2, np.arange(5.0) + 0j)
        np.testing.assert_array_equal(w.row(-2), np.arange(5.0))
        with pytest.raises(ValueError):
            w.row(4)

    def test_densify_places_outer_columns(self, rng):
        w = oracles.random_curvelet_wigner_coeffs(3, rng)
        dense = oracles.densify(w)
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
        f = oracles.so3_inverse_general(w, scurve.SO3Grid(4))
        np.testing.assert_allclose(f.values, 1.0, atol=1e-12)
        back = oracles.so3_forward_general(f)
        assert back.planes[0][0, 0] == pytest.approx(8 * math.pi**2, abs=1e-10)
        for ell in range(1, 4):
            assert np.abs(back.planes[ell]).max() <= 1e-10

    @pytest.mark.parametrize("L", [1, 2, 4, 8])
    def test_round_trip(self, L, rng):
        w = oracles.random_wigner_coeffs(L, rng)
        f = oracles.so3_inverse_general(w, scurve.SO3Grid(L))
        back = oracles.so3_forward_general(f)
        worst = max(
            np.abs(back.planes[ell] - w.planes[ell]).max() for ell in range(L)
        )
        assert worst <= 1e-10

    def test_matches_direct_summation(self, rng):
        L = 6
        w = oracles.random_wigner_coeffs(L, rng)
        grid = scurve.SO3Grid(L)
        f = oracles.so3_inverse_general(w, grid)
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
        w = oracles.random_wigner_coeffs(L, rng)
        f = oracles.so3_inverse_general(w, scurve.SO3Grid(6))
        back = oracles.so3_forward_general(f, band_limit=L)
        worst = max(
            np.abs(back.planes[ell] - w.planes[ell]).max() for ell in range(L)
        )
        assert worst <= 1e-10

    def test_validation(self, rng):
        w = scurve.WignerCoeffs.zeros(8)
        with pytest.raises(ValueError):
            oracles.so3_inverse_general(w, scurve.SO3Grid(4))
        with pytest.raises(TypeError):
            oracles.so3_inverse_general(
                scurve.CurveletWignerCoeffs.zeros(4), scurve.SO3Grid(4)
            )


class TestCurveletTransforms:
    def test_constant_field(self):
        w = scurve.CurveletWignerCoeffs.zeros(4)
        w.row(0)[0] = 8 * math.pi**2
        f = scurve.so3_inverse_curvelet(w, scurve.SO3Grid(4))
        np.testing.assert_allclose(f.values, 1.0, atol=1e-12)
        back = scurve.so3_forward_curvelet(f)
        assert back.row(0)[0] == pytest.approx(8 * math.pi**2, abs=1e-10)

    def test_single_entry_matches_general(self):
        # one coefficient at (ell, m, n) = (3, 1, 3)
        L = 8
        w = scurve.CurveletWignerCoeffs.zeros(L)
        w.row(3)[1 + 3] = 1.0
        grid = scurve.SO3Grid(L)
        fast = scurve.so3_inverse_curvelet(w, grid)
        slow = oracles.so3_inverse_general(oracles.densify(w), grid)
        assert np.abs(fast.values - slow.values).max() <= 1e-11

    @pytest.mark.parametrize("L", [4, 8, 16, 32])
    def test_inverse_matches_general(self, L, rng):
        w = oracles.random_curvelet_wigner_coeffs(L, rng)
        grid = scurve.SO3Grid(L)
        fast = scurve.so3_inverse_curvelet(w, grid)
        slow = oracles.so3_inverse_general(oracles.densify(w), grid)
        assert np.abs(fast.values - slow.values).max() <= 1e-10

    @pytest.mark.parametrize("L", [4, 8, 16, 32])
    def test_forward_matches_general(self, L, rng):
        w = oracles.random_curvelet_wigner_coeffs(L, rng)
        f = scurve.so3_inverse_curvelet(w, scurve.SO3Grid(L))
        fast = scurve.so3_forward_curvelet(f)
        slow = oracles.so3_forward_general(f)
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
        w = oracles.random_curvelet_wigner_coeffs(L, rng)
        f = scurve.so3_inverse_curvelet(w, scurve.SO3Grid(L))
        back = scurve.so3_forward_curvelet(f)
        assert np.abs(back.values - w.values).max() <= 1e-10

    def test_grid_shape_validation(self, rng):
        w = oracles.random_curvelet_wigner_coeffs(4, rng)
        with pytest.raises(ValueError):
            scurve.so3_inverse_curvelet(w, scurve.SO3Grid(3))


class TestRealPath:
    @pytest.mark.parametrize("L", [2, 8, 24])
    def test_matches_complex_path(self, L, rng):
        w = sparse_with_real_symmetry(L, rng)
        grid = scurve.SO3Grid(L)
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
        f = scurve.so3_inverse_curvelet_real(w, scurve.SO3Grid(L))
        fc = scurve.SO3Signal(f.grid, f.values.astype(complex))
        a = scurve.so3_forward_curvelet_real(f)
        b = scurve.so3_forward_curvelet(fc)
        assert np.abs(a.values - b.values).max() <= 1e-12
        # The plain forward follows the real flag to the same result.
        d = scurve.so3_forward_curvelet(f)
        assert np.abs(d.values - a.values).max() <= 1e-12

    def test_real_synthesis_requires_symmetry(self, rng):
        w = oracles.random_curvelet_wigner_coeffs(8, rng)
        with pytest.raises(ValueError, match="conjugate symmetry"):
            scurve.so3_inverse_curvelet_real(w, scurve.SO3Grid(8))
        w = sparse_with_real_symmetry(8, rng)
        w.values[0, 0, 7] += 1e-6j
        with pytest.raises(ValueError, match="conjugate symmetry"):
            scurve.so3_inverse_curvelet_real(w, scurve.SO3Grid(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_real_synthesis_rejects_non_finite(self, rng, bad):
        w = sparse_with_real_symmetry(8, rng)
        w.values[0, 3, 7] = bad
        with pytest.raises(ValueError, match="non-finite coefficient"):
            scurve.so3_inverse_curvelet_real(w, scurve.SO3Grid(8))

    def test_forward_output_carries_exact_symmetry(self, rng):
        L = 12
        w = sparse_with_real_symmetry(L, rng)
        f = scurve.so3_inverse_curvelet_real(w, scurve.SO3Grid(L))
        back = scurve.so3_forward_curvelet(f)
        sym = back.values.copy()
        so3._impose_real_pairing(sym)
        np.testing.assert_array_equal(sym, back.values)


class TestEdgeNodes:
    """The inverse evaluates its beta nodes from the closed form of the edge columns."""

    def test_every_band_limit_matches_the_dense_inverse(self):
        """Finite and within 1e-13 of the dense inverse of criterion 6c, L = 2..40.

        Complex and real, into a returned cube and into a sink.  Every
        cube has the node beta = pi, where cos(beta/2) is exactly 0.
        """
        for L in range(2, 41):
            rng = np.random.default_rng(L)
            grid = scurve.SO3Grid(L)
            for real in (False, True):
                w, _, inverse = floor_case(real, L, rng)
                dense = oracles.so3_inverse_general(oracles.densify(w), grid).values
                if real:
                    dense = dense.real
                sunk = np.empty(grid.shape, dense.dtype)
                inverse(w, grid, sink=sunk.__setitem__)
                for got in (inverse(w, grid).values, sunk):
                    assert np.isfinite(got).all(), (L, real)
                    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max(), (L, real)

    def test_cos_of_the_half_node_is_exactly_zero_at_beta_pi(self):
        for L in (2, 24, 129):
            sin_half, cos_half = so3._half_nodes(L)
            assert cos_half[-1] == 0.0 and (cos_half[:-1] > 0.0).all()
            half = scurve.SO3Grid(L).betas / 2
            np.testing.assert_allclose(sin_half, np.sin(half), rtol=1e-15)
            np.testing.assert_allclose(cos_half, np.cos(half), rtol=0, atol=1e-15)


def floor_case(real, L, rng):
    """Coefficients of a real or complex field, and the matching transforms."""
    if real:
        w = sparse_with_real_symmetry(L, rng)
        return w, scurve.so3_forward_curvelet_real, scurve.so3_inverse_curvelet_real
    w = oracles.random_curvelet_wigner_coeffs(L, rng)
    return w, scurve.so3_forward_curvelet, scurve.so3_inverse_curvelet


def sunk(inverse, w, grid):
    """The samples of inverse(w, grid) as its sink receives them, block by block."""
    values = np.full(grid.shape, np.nan, float if inverse is scurve.so3_inverse_curvelet_real else complex)
    inverse(w, grid, sink=values.__setitem__)
    return values


class _NanEmpty:
    """numpy as so3 sees it, but np.empty fills with NaN, so no buffer starts out zero."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
class TestDegreeFloor:
    """The curvelet transforms run only the gamma batches that reach the lowest degree.

    The inverse tests fill so3's fresh buffers with NaN, so a gamma row
    that is skipped and not zeroed shows.
    """

    @pytest.mark.parametrize("L", [8, 17, 32])
    def test_forward_keeps_every_degree_from_the_floor_up(self, rng, real, L):
        w, forward, inverse = floor_case(real, L, rng)
        f = inverse(w, scurve.SO3Grid(L))
        full = forward(f).values
        for k in sorted({1, 2, L // 2, L - 1, L}):
            got = forward(f, L0=k).values
            assert got[:, k:].tobytes() == full[:, k:].tobytes(), k
            assert not got[:, :k].any(), k

    @pytest.mark.parametrize("L", [8, 17, 32])
    def test_inverse_of_coefficients_zero_below_a_degree(self, monkeypatch, rng, real, L):
        monkeypatch.setattr(so3, "np", _NanEmpty())
        grid = scurve.SO3Grid(L)
        for k in sorted({1, 2, L // 2, L - 1}):
            w, _, inverse = floor_case(real, L, rng)
            w.values[:, :k] = 0.0
            got = inverse(w, grid).values
            slow = oracles.so3_inverse_general(oracles.densify(w), grid).values
            assert np.abs(got - (slow.real if real else slow)).max() <= 1e-12, k
            assert sunk(inverse, w, grid).tobytes() == got.tobytes(), k

    def test_zero_coefficients_give_a_zero_cube(self, monkeypatch, rng, real):
        monkeypatch.setattr(so3, "np", _NanEmpty())
        L = 17
        _, forward, inverse = floor_case(real, L, rng)
        grid = scurve.SO3Grid(L)
        w = scurve.CurveletWignerCoeffs.zeros(L)
        f = inverse(w, grid)
        assert not f.values.any()
        assert not sunk(inverse, w, grid).any()
        assert not forward(f, L0=3).values.any()

    def test_rejects_a_negative_floor(self, rng, real):
        w, forward, inverse = floor_case(real, 8, rng)
        with pytest.raises(ValueError, match="floor"):
            forward(inverse(w, scurve.SO3Grid(8)), L0=-1)


class TestSphereColumn:
    """The sphere transform is column n = -s of the rotation-group one."""

    @pytest.mark.parametrize("s", [0, 2, -1])
    def test_column_minus_spin(self, s, rng):
        L = 8
        flm = scurve.random_coeffs(L, s, rng)
        f = scurve.sht_inverse(flm)
        grid = scurve.SO3Grid(L)
        # F(alpha, beta, gamma) = f(beta, alpha) exp(-i s gamma), cube (gamma, beta, alpha)
        cube = np.exp(-1j * s * grid.gammas)[:, None, None] * f.values[None, :, :]
        w = oracles.so3_forward_general(scurve.SO3Signal(grid, cube))
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


class TestBinKernel:
    """The colatitude-bin kernel transforms and keeps only the bins |m'|, |m| <= h."""

    @pytest.mark.parametrize("h", [0, 3, 15])
    def test_narrow_planes_match_full_width(self, h, rng):
        L = 16
        K = 2 * L - 1
        W = rng.standard_normal((K, L, K)) + 1j * rng.standard_normal((K, L, K))
        ns = [-15, -3, 0, 2, 15]
        spectra = [so3._alpha_orders(W[n % K], L - 1) for n in ns]
        full = so3._beta_to_bins(spectra, ns, L - 1)
        narrow = so3._beta_to_bins([S[:, L - 1 - h : L + h] for S in spectra], ns, h)
        assert narrow.shape == (len(ns), h + 1, 2 * h + 1)
        centred = full[:, : h + 1, L - 1 - h : L + h]
        assert np.abs(narrow - centred).max() <= 1e-14 * np.abs(full).max()

        X = rng.standard_normal((2 * h + 1, K)) + 1j * rng.standard_normal((2 * h + 1, K))
        padded = np.zeros((K, K), complex)
        padded[L - 1 - h : L + h] = X
        nodes = so3._bins_to_beta(padded, L)[:, L - 1 - h : L + h]
        assert np.abs(so3._bins_to_beta(X, L) - nodes).max() <= 1e-14 * np.abs(nodes).max()

    def test_orders_past_a_spectrum_width_read_as_zero(self, rng):
        """A spectrum of orders |m| <= k < h is the full-width one with the rest zeroed."""
        L, h = 16, 9
        S = rng.standard_normal((L, 2 * h + 1)) + 1j * rng.standard_normal((L, 2 * h + 1))
        for k in (0, 4, h):
            zeroed = S.copy()
            zeroed[:, : h - k] = zeroed[:, h + k + 1 :] = 0.0
            got = so3._beta_to_bins([S[:, h - k : h + k + 1]], [k], h)
            assert got.tobytes() == so3._beta_to_bins([zeroed], [k], h).tobytes()

    def test_forward_convolves_only_the_bins_each_chunk_reads(self, rng, monkeypatch):
        L = 32
        K = 2 * L - 1
        grid = scurve.SO3Grid(L)
        f = scurve.so3_inverse_curvelet(oracles.random_curvelet_wigner_coeffs(L, rng), grid)
        points = []

        def counting(*args, **kwargs):
            out = fourier.weighted_convolve(*args, **kwargs)
            points.append(out.size)
            return out

        monkeypatch.setattr(so3, "weighted_convolve", counting)
        scurve.so3_forward_curvelet(f)
        ns = so3._gamma_order(L, False)
        assert sorted(ns) == list(range(1 - L, L))
        chunks = [ns[lo : lo + so3._CHUNK] for lo in range(0, len(ns), so3._CHUNK)]
        # One row per order and pair of gamma frequencies, 2h+1 bins each.
        expected = sum((len(c) + 1) // 2 * (2 * max(map(abs, c)) + 1) ** 2 for c in chunks)
        assert sum(points) == expected
        assert expected < len(ns) * K * K


def recorded_runs(monkeypatch) -> list:
    """Records every call of so3's forward bin kernel from here on.

    Each entry is (spectra, ns, h, bytes of the buffer the planes are a
    view of): one run of a gamma batch, as _curvelet_columns makes them.
    """
    runs = []
    kernel = so3._beta_to_bins

    def recording(spectra, ns, h):
        Z = kernel(spectra, ns, h)
        buf = Z
        while buf.base is not None:
            buf = buf.base
        runs.append((spectra, [int(n) for n in ns], h, buf.nbytes))
        return Z

    monkeypatch.setattr(so3, "_beta_to_bins", recording)
    return runs


class TestPairedKernel:
    """The forward kernel, gamma frequencies of opposite parity paired, against the unpaired one."""

    @staticmethod
    def batches(L):
        """Runs of gamma frequencies that start on either parity, of odd and even length."""
        order, real = so3._gamma_order(L, False), so3._gamma_order(L, True)
        return [order[:8], order[1:8], order[3:10], order[-8:], real[:7], real[1:9], order[4:5]]

    @staticmethod
    def spectrum(L, n, rng):
        """Random alpha orders |m| <= |n| at the beta nodes, as a band-limited signal has them.

        The planes of odd m + n are odd through the last node, beta = pi,
        so such a signal vanishes there.
        """
        k = abs(n)
        S = rng.standard_normal((L, 2 * k + 1)) + 1j * rng.standard_normal((L, 2 * k + 1))
        S[L - 1, (np.arange(-k, k + 1) + n) % 2 == 1] = 0.0
        return S

    @pytest.mark.parametrize("one_pair", [False, True])
    @pytest.mark.parametrize("L", [8, 17, 32])
    def test_matches_the_unpaired_kernel(self, monkeypatch, L, one_pair):
        """Every run's folded planes, and the batch's columns, to 1e-14.

        The runs are those _curvelet_columns makes.  With one_pair,
        _BIN_BUDGET is so small that every run holds one pair of gamma
        frequencies.
        """
        if one_pair:
            monkeypatch.setattr(so3, "_BIN_BUDGET", 1)
        kernel = so3._beta_to_bins
        runs = recorded_runs(monkeypatch)
        rng = np.random.default_rng(L)
        tab = scurve.halfpi_table(L)
        for ns in self.batches(L):
            spectra = [self.spectrum(L, n, rng) for n in ns]
            runs.clear()
            got = so3._curvelet_columns(spectra, tab, ns)
            if one_pair:
                assert len(runs) == (len(so3._pair_slots(ns)) + 1) // 2
            for run_spectra, run_ns, h, _ in runs:
                paired = kernel(run_spectra, run_ns, h)
                plain = oracles.unpaired_beta_to_bins(run_spectra, run_ns, h)
                plain = oracles.fold_bins(plain, run_ns)
                assert paired.shape == plain.shape
                assert np.abs(paired - plain).max() <= 1e-14 * np.abs(plain).max()
            want = oracles.unpaired_curvelet_columns(spectra, tab, ns)
            top = max(np.abs(c).max() for c in want)
            assert all(np.abs(g - c).max() <= 1e-14 * top for g, c in zip(got, want))

    def test_a_pair_reads_as_its_frequencies_alone(self, rng):
        """Pairing leaks nothing between the two frequencies, whatever the samples at beta = pi."""
        L, ns = 16, [4, -5]
        spectra = [rng.standard_normal((L, 2 * abs(n) + 1)) + 1j for n in ns]
        paired = so3._beta_to_bins(spectra, ns, 5)
        for i, n in enumerate(ns):
            alone = so3._beta_to_bins(spectra[i : i + 1], [n], 5)[0]
            assert np.abs(paired[i] - alone).max() <= 1e-14 * np.abs(alone).max()

    def test_rejects_frequencies_that_do_not_pair(self):
        L = 8
        spectra = [np.zeros((L, 2 * abs(n) + 1), complex) for n in (0, 2, 4)]
        with pytest.raises(ValueError, match="opposite parity"):
            so3._beta_to_bins(spectra, [0, 2, 4], 4)


class TestOrderBlocks:
    """Gamma batches run their bin kernels within _BIN_BUDGET, by runs of pairs of frequencies.

    Wide batches once ran by blocks of alpha orders +-m instead; the
    tests keep their names.
    """

    @staticmethod
    def pairs(ns, start=0):
        """The pairs of _pair_slots(ns) as the indices of their frequencies, ns[0] at start.

        A lead placeholder holds no frequency, so its pair keeps one index.
        """
        lead = len(so3._pair_slots(ns)) - len(ns)
        slots = range(start - lead, start + len(ns))
        return [tuple(i for i in slots[k : k + 2] if i >= start) for k in range(0, len(slots), 2)]

    def test_blocks_cover_every_order_once(self, monkeypatch):
        """The runs of a batch cover each of its frequencies once, in whole pairs of the batch.

        Each run's buffer fits _BIN_BUDGET or holds one pair, at the
        default budget and at one so small that every run holds one pair.
        """
        assert so3._pairs_per_run(128, 127)[0] == 2 and so3._pairs_per_run(256, 255)[0] == 1
        default = so3._BIN_BUDGET
        runs = recorded_runs(monkeypatch)
        for L in (2, 8, 64, 128):
            order, real = so3._gamma_order(L, False), so3._gamma_order(L, True)
            tab = scurve.halfpi_table(L)
            for ns, budget in itertools.product(
                (order[:8], order[1:8], order[-8:], order[-7:], real[-7:], order[:1]), (default, 1)
            ):
                monkeypatch.setattr(so3, "_BIN_BUDGET", budget)
                runs.clear()
                so3._curvelet_columns([np.ones((L, 2 * abs(n) + 1), complex) for n in ns], tab, ns)
                assert [n for run in runs for n in run[1]] == ns
                batch, start = self.pairs(ns), 0
                for _, run_ns, h, nbytes in runs:
                    pairs = self.pairs(run_ns, start)
                    start += len(run_ns)
                    assert h == max(map(abs, ns)) and set(pairs) <= set(batch)
                    assert nbytes == len(pairs) * so3._pairs_per_run(L, h)[1]
                    assert nbytes <= budget or len(pairs) == 1

    @staticmethod
    def outputs(L):
        """Bytes of every curvelet transform path at L, on fixed coefficients."""
        grid = scurve.SO3Grid(L)
        w = oracles.random_curvelet_wigner_coeffs(L, np.random.default_rng(L))
        wr = sparse_with_real_symmetry(L, np.random.default_rng(L + 1))
        f = scurve.so3_inverse_curvelet(w, grid)
        fr = scurve.so3_inverse_curvelet_real(wr, grid)
        sunk = np.empty(grid.shape, complex)
        scurve.so3_inverse_curvelet(w, grid, sink=sunk.__setitem__)
        sunk_real = np.empty(grid.shape)
        scurve.so3_inverse_curvelet_real(wr, grid, sink=sunk_real.__setitem__)
        forward = scurve.so3_forward_curvelet(f)
        forward_real = scurve.so3_forward_curvelet(fr)
        arrays = (f.values, fr.values, sunk, sunk_real, forward.values, forward_real.values)
        return [a.tobytes() for a in arrays]

    @pytest.mark.parametrize("pairs", [1, 3])
    @pytest.mark.parametrize("L", [16, 32])
    def test_outputs_do_not_depend_on_block_width(self, monkeypatch, L, pairs):
        """Runs of one or three pairs of frequencies give the bytes of the default run.

        On every path: forward and inverse, complex and real, the inverse
        into a returned cube and into a sink.  Only the forward kernel
        runs by pair runs; the inverse must not move either.
        """
        default = self.outputs(L)
        monkeypatch.setattr(so3, "_BIN_BUDGET", pairs * so3._pairs_per_run(L, L - 1)[1])
        runs = recorded_runs(monkeypatch)
        assert self.outputs(L) == default
        # The widest batches, of degree L-1, ran in runs of at most that many pairs.
        widest = [(len(so3._pair_slots(run[1])) + 1) // 2 for run in runs if run[2] == L - 1]
        assert max(widest) == pairs

    @pytest.mark.parametrize("L", [64, 128])
    def test_widest_forward_chunk_stays_within_the_budget(self, L):
        """The traced peak of the widest forward batch no longer grows with its planes.

        It holds one block's buffer within _BIN_BUDGET beside the batch's
        quadrants; the batch's whole planes take 4.2 MiB at L = 64 and
        16.7 MiB at L = 128.
        """
        rng = np.random.default_rng(L)
        widest = so3._gamma_order(L, False)[-so3._CHUNK :]
        spectra = [rng.standard_normal((L, 2 * abs(n) + 1)) + 0j for n in widest]
        tab = scurve.halfpi_table(L)
        so3._curvelet_columns(spectra, tab, widest)  # build the cached kernels untraced
        tracemalloc.start()
        try:
            so3._curvelet_columns(spectra, tab, widest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        quadrants = so3._CHUNK * L * L * 8
        bound = so3._BIN_BUDGET + quadrants + 2**20
        assert peak <= bound, peak
        if L == 128:
            assert bound < so3._CHUNK * (2 * L - 1) * so3._kernel_fft(L, L - 1)[0] * 16


class TestCountedWork:
    """The O(L^3 log L) claim on counted FFT work, which no machine drift moves."""

    def test_fft_flops_grow_as_l3_log_l(self, tracer):
        rng = np.random.default_rng(3)
        Ls = (16, 32, 64, 128)
        flops = []
        for L in Ls:
            w = oracles.random_curvelet_wigner_coeffs(L, rng)
            tr = tracer.Tracer()
            tr.install()
            try:
                scurve.so3_forward_curvelet(
                    scurve.so3_inverse_curvelet(w, scurve.SO3Grid(L))
                )
            finally:
                tr.uninstall()
            flops.append(tr.fft["so3"]["flop"] + tr.fft["fourier"]["flop"])
        points = list(zip(Ls, flops))
        for (L0, f0), (L1, f1) in zip(points, points[1:]):
            assert math.log(f1 / f0) / math.log(L1 / L0) < 3.5
        ratios = [f / (L**3 * math.log2(L)) for L, f in zip(Ls, flops)]
        assert all(ratios[0] / 2 <= r <= 2 * ratios[0] for r in ratios)

    @pytest.mark.parametrize("name", ["sht_forward", "sht_inverse"])
    def test_sphere_fft_flops_grow_as_l2_log_l(self, tracer, name):
        rng = np.random.default_rng(4)
        Ls = (16, 32, 64, 128)
        flops = []
        for L in Ls:
            flm = scurve.random_coeffs(L, 2, rng)
            arg = scurve.sht_inverse(flm) if name == "sht_forward" else flm
            tr = tracer.Tracer()
            tr.install()
            try:
                getattr(scurve, name)(arg)
            finally:
                tr.uninstall()
            flops.append(sum(counts["flop"] for counts in tr.fft.values()))
        points = list(zip(Ls, flops))
        for (L0, f0), (L1, f1) in zip(points, points[1:]):
            assert math.log(f1 / f0) / math.log(L1 / L0) < 2.5
        ratios = [f / (L**2 * math.log2(L)) for L, f in zip(Ls, flops)]
        assert all(ratios[0] / 2 <= r <= 2 * ratios[0] for r in ratios)

    def test_pairing_halves_the_forward_kernel_flops(self, tracer, monkeypatch):
        """The forward bin kernel of an L = 64 transform counts at most 0.6x the unpaired one.

        Both run every gamma batch of so3_forward_curvelet on the same
        triangle spectra; the unpaired kernel's beta FFTs are counted with
        the library's through the so3 binding.
        """
        L = 64
        w = oracles.random_curvelet_wigner_coeffs(L, np.random.default_rng(5))
        S = so3._analysis_spectrum(scurve.so3_inverse_curvelet(w, scurve.SO3Grid(L)))
        cols = so3._triangle(L, False)[0]
        tab = scurve.halfpi_table(L)
        batches = so3._batches(so3._gamma_order(L, False))
        for chunk in batches:  # build the cached convolution kernels untraced
            fourier._kernel_fft(L, max(map(abs, chunk)))
        counted = {}
        for name, kernel in (("paired", so3._curvelet_columns), ("unpaired", oracles.unpaired_curvelet_columns)):
            tr = tracer.Tracer()
            tr.install()
            monkeypatch.setattr(oracles, "sfft", so3.sfft)
            try:
                for chunk in batches:
                    kernel([S[:, cols[n % len(cols)]] for n in chunk], tab, chunk)
            finally:
                monkeypatch.undo()
                tr.uninstall()
            counted[name] = tr.fft["so3"]["flop"] + tr.fft["fourier"]["flop"]
        assert counted["paired"] <= 0.6 * counted["unpaired"], counted

    def test_degree_floor_skips_the_kernels_below_it(self, tracer, monkeypatch):
        """With no degree below 32 at L = 64, each transform counts at most 0.85x its FFT flops.

        The inverse reads its floor off the coefficients; without one it
        runs every gamma batch (the floor read as 0), the forward with
        L0 = 0.
        """
        L, k = 64, 32
        w = oracles.random_curvelet_wigner_coeffs(L, np.random.default_rng(6))
        w.values[:, :k] = 0.0
        grid = scurve.SO3Grid(L)
        f = scurve.so3_inverse_curvelet(w, grid)  # the cached tables, untraced

        def flops(run):
            tr = tracer.Tracer()
            tr.install()
            try:
                run()
            finally:
                tr.uninstall()
            return tr.fft["so3"]["flop"] + tr.fft["fourier"]["flop"]

        inverse = flops(lambda: scurve.so3_inverse_curvelet(w, grid))
        forward = flops(lambda: scurve.so3_forward_curvelet(f, L0=k))
        assert forward <= 0.85 * flops(lambda: scurve.so3_forward_curvelet(f))
        monkeypatch.setattr(so3, "_degree_floor", lambda w: 0)
        full = flops(lambda: scurve.so3_inverse_curvelet(w, grid))
        # The inverse counts only the whole-cube FFTs: alpha on the live
        # gamma rows, gamma on all 2L-1 (0.78x here).
        K = 2 * L - 1
        live = so3._live(L, False, k)[1]
        assert inverse / full == pytest.approx((live.stop - live.start + K) / (2 * K), rel=1e-12)
        assert inverse <= 0.85 * full


    @pytest.mark.parametrize("path", ["in-place", "sink", "real"])
    def test_inverse_runs_only_the_whole_cube_ffts(self, tracer, path):
        """No beta FFT and no convolution in the inverse, at L = 16 to 128.

        Its FFTs are the whole-cube ones alone: over alpha on the live
        gamma rows and over gamma on all of them, L (G_live + 2L-1)
        transforms of 2L-1 points, in one call each per block of beta
        rows, whether the complex samples go into a returned cube
        ("in-place") or to a sink.
        """
        real = path == "real"
        rng = np.random.default_rng(7)
        for L in (16, 32, 64, 128):
            w, _, inverse = floor_case(real, L, rng)
            grid = scurve.SO3Grid(L)
            values = np.empty(grid.shape, float if real else complex)
            sink = None if path == "in-place" else values.__setitem__
            tr = tracer.Tracer()
            tr.install()
            try:
                inverse(w, grid, sink=sink)
            finally:
                tr.uninstall()
            assert not [s for s in tr.spans if s["name"] == "fourier.weighted_convolve"]
            assert tr.fft["fourier"]["calls"] == tr.fft["sphere"]["calls"] == 0
            K = 2 * L - 1
            live = so3._live(L, real, so3._degree_floor(w))[1]
            transforms = L * (live.stop - live.start + K)
            assert tr.fft["so3"]["flop"] == pytest.approx(transforms * 5 * K * math.log2(K), rel=1e-12)
            assert tr.fft["so3"]["calls"] == 2 * len(so3._beta_blocks(L))


class TestScaling:
    def test_cost_grows_slower_than_l_to_3_5(self, rng):
        def timed(L):
            w = oracles.random_curvelet_wigner_coeffs(L, rng)
            grid = scurve.SO3Grid(L)
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


class _BlockReader:
    """Values that a forward transform may read only as [rows]."""

    def __init__(self, values):
        self.shape = values.shape
        self._values = values
        self.reads = []

    def __getitem__(self, rows):
        self.reads.append(rows[1].indices(self.shape[1])[:2])
        return self._values[rows].copy()


class TestBlockStreaming:
    """The curvelet transforms move samples one block of beta rows at a time."""

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sink_receives_each_block_once(self, monkeypatch, rng, threads, real):
        monkeypatch.setenv("SCURVE_THREADS", threads)
        L = 20  # blocks of 8, 8 and 4 beta rows
        grid = scurve.SO3Grid(L)
        if real:
            w = sparse_with_real_symmetry(L, rng)
            inverse = scurve.so3_inverse_curvelet_real
        else:
            w = oracles.random_curvelet_wigner_coeffs(L, rng)
            inverse = scurve.so3_inverse_curvelet
        expected = inverse(w, grid).values
        got = np.full(grid.shape, np.nan, dtype=expected.dtype)
        seen = []

        def sink(rows, block):
            assert block.shape == got[rows].shape and block.dtype == got.dtype
            got[rows] = block
            seen.append(rows[1].indices(L)[:2])

        assert inverse(w, grid, sink=sink) is None
        assert sorted(seen) == [(0, 8), (8, 16), (16, 20)]
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_forward_reads_values_by_blocks(self, rng, real):
        L = 20
        grid = scurve.SO3Grid(L)
        if real:
            f = scurve.so3_inverse_curvelet_real(sparse_with_real_symmetry(L, rng), grid)
        else:
            f = scurve.so3_inverse_curvelet(oracles.random_curvelet_wigner_coeffs(L, rng), grid)
        reader = _BlockReader(f.values)
        stored = types.SimpleNamespace(grid=grid, values=reader, real=real)
        got = scurve.so3_forward_curvelet(stored).values
        assert sorted(reader.reads) == [(0, 8), (8, 16), (16, 20)]
        assert got.tobytes() == scurve.so3_forward_curvelet(f).values.tobytes()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_forward_takes_the_blocks_a_pending_inverse_emits(
        self, monkeypatch, rng, threads, real
    ):
        """A scale still pending feeds the forward from the inverse's sink, bit for bit.

        Each block runs its forward FFTs inside the inverse's pool task,
        which submits nothing more to the pool: with every worker busy, a
        nested submission could wait for itself.
        """
        monkeypatch.setenv("SCURVE_THREADS", threads)
        L = 20
        grid = scurve.SO3Grid(L)
        if real:
            w, inverse = sparse_with_real_symmetry(L, rng), scurve.so3_inverse_curvelet_real
        else:
            w, inverse = oracles.random_curvelet_wigner_coeffs(L, rng), scurve.so3_inverse_curvelet
        expected = scurve.so3_forward_curvelet(inverse(w, grid), L0=3).values
        nested, blocks = [], []

        def run_chunks(task, items, _fn=so3._run_chunks):
            nested.append(threading.current_thread().name.startswith("scurve"))
            _fn(task, items)

        def emit(sink):
            def counted(rows, block):
                blocks.append(rows[1].indices(L)[:2])
                sink(rows, block)

            inverse(w, grid, sink=counted)

        monkeypatch.setattr(so3, "_run_chunks", run_chunks)
        pending = types.SimpleNamespace(grid=grid, real=real, emit=emit)
        got = scurve.so3_forward_curvelet(pending, L0=3).values
        assert got.tobytes() == expected.tobytes()
        assert sorted(blocks) == [(0, 8), (8, 16), (16, 20)]
        # The inverse's blocks and the forward's gamma batches, both from the caller's thread.
        assert nested == [False, False]


def dense_spectrum(values, real):
    """The whole-cube gamma-alpha FFT that the triangle layout keeps part of, gamma first."""
    gamma = (np.fft.rfft if real else np.fft.fft)(values, axis=0, norm="forward")
    return np.fft.fft(gamma, axis=2, norm="forward")


def triangle_of(dense):
    """The |m| <= |n| columns of a dense (gamma, beta, alpha) spectrum, gamma row by row.

    Then the layout's zero column.
    """
    K = dense.shape[2]
    L = (K + 1) // 2
    runs = []
    for g in range(len(dense)):
        k = g if g < L else K - g
        runs.append(dense[g][:, np.arange(-k, k + 1) % K])
    runs.append(np.zeros((L, 1)))
    return np.concatenate(runs, axis=1)


class TestTriangleLayout:
    """The curvelet gamma spectrum keeps only the alpha orders |m| <= |n|."""

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_triangle_is_the_dense_spectrum_bit_for_bit(self, rng, real):
        L = 16
        K = 2 * L - 1
        values = rng.standard_normal((K, L, K))
        if not real:
            values = values + 1j * rng.standard_normal((K, L, K))
        expected = triangle_of(dense_spectrum(values, real))
        assert expected.shape == (L, L * L + 1 if real else 2 * L * L)
        got = so3._analysis_spectrum(scurve.SO3Signal(scurve.SO3Grid(L), values, real))
        assert got.tobytes() == expected.tobytes()
        if not real:  # the alpha-first order of fft2 differs by round-off only
            alpha_first = triangle_of(np.fft.fft2(values, axes=(0, 2), norm="forward"))
            np.testing.assert_allclose(got, alpha_first, rtol=0, atol=1e-15 * np.abs(got).max())
        reader = _BlockReader(values)
        stored = types.SimpleNamespace(grid=scurve.SO3Grid(L), values=reader, real=real)
        assert so3._analysis_spectrum(stored).tobytes() == expected.tobytes()
        assert sorted(reader.reads) == [(0, 8), (8, 16)]

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_synthesis_is_the_dense_inverse_bit_for_bit(self, rng, real):
        """Blocks of a triangle synthesise as the zero-filled dense spectrum does.

        The triangle's rows are handed over as the inverse's closed form
        hands them, one block of beta rows at a time, and the blocks go
        to a sink or into an output cube.
        """
        L = 16
        K = 2 * L - 1
        G = L if real else K
        dense = rng.standard_normal((G, L, K)) + 1j * rng.standard_normal((G, L, K))
        # Zero the orders |m| > |n|, which the triangle does not hold.
        k = np.minimum(np.arange(G), K - np.arange(G))
        m = np.minimum(np.arange(K), K - np.arange(K))
        dense = np.where((m <= k[:, None])[:, None, :], dense, 0.0)
        spectrum = triangle_of(dense)
        if real:
            alpha = np.fft.ifft(dense, axis=2, norm="forward")
            expected = np.fft.irfft(alpha, n=K, axis=0, norm="forward")
        else:
            expected = np.fft.ifft2(dense, axes=(0, 2), norm="forward")
        got = np.empty((K, L, K), float if real else complex)
        so3._synthesis_blocks(L, real, lambda rows: spectrum[rows], got.__setitem__)
        assert got.tobytes() == expected.tobytes()
        into = np.empty_like(got)
        so3._synthesis_blocks(L, real, lambda rows: spectrum[rows], out=into)
        assert into.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_peak_model_counts_the_spectrum_the_transforms_allocate(self, monkeypatch, rng, real):
        L = 16
        grid = scurve.SO3Grid(L)
        if real:
            w = sparse_with_real_symmetry(L, rng)
            inverse = scurve.so3_inverse_curvelet_real
        else:
            w = oracles.random_curvelet_wigner_coeffs(L, rng)
            inverse = scurve.so3_inverse_curvelet
        f = inverse(w, grid)
        sizes, shapes = [], []

        def spectrum(*args, _fn=so3._analysis_spectrum, **kwargs):
            out = _fn(*args, **kwargs)
            sizes.append(out.nbytes)
            return out

        def edge_rows(*args, _fn=so3._edge_rows):
            triangle_rows = _fn(*args)

            def rows(b):
                out = triangle_rows(b)
                shapes.append(out.shape)
                return out

            return rows

        monkeypatch.setattr(so3, "_analysis_spectrum", spectrum)
        monkeypatch.setattr(so3, "_edge_rows", edge_rows)
        scurve.so3_forward_curvelet(f)
        inverse(w, grid, sink=lambda rows, block: None)
        # The forward holds the model's spectrum; the inverse evaluates the
        # triangle one block of beta rows at a time and holds none.
        assert sizes == [so3._curvelet_peak_parts(L, real, 1, True)["spectrum"]]
        assert "spectrum" not in so3._curvelet_peak_parts(L, real, 1, False)
        T = L * L if real else 2 * L * L - 1
        assert shapes == [(so3._BETA_BLOCK, T + 1)] * (L // so3._BETA_BLOCK)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_traced_peak_holds_the_triangle_not_the_dense_spectrum(
        self, monkeypatch, rng, real
    ):
        """One worker's traced peak above the input, forward and inverse, at L = 64.

        The bound is the triangle, one forward chunk's padded planes and
        one dense complex beta block: below either transform's peak with
        the dense spectrum, which alone is 1.97 (real) or 3.94 (complex)
        times the triangle.
        """
        monkeypatch.setenv("SCURVE_THREADS", "1")
        L = 64
        K = 2 * L - 1
        grid = scurve.SO3Grid(L)
        if real:
            w = sparse_with_real_symmetry(L, rng)
            inverse = scurve.so3_inverse_curvelet_real
        else:
            w = oracles.random_curvelet_wigner_coeffs(L, rng)
            inverse = scurve.so3_inverse_curvelet
        f = inverse(w, grid)
        scurve.so3_forward_curvelet(f)  # the cached tables, untraced

        def discard(rows, block):
            pass

        peaks = []
        for run in (lambda: scurve.so3_forward_curvelet(f), lambda: inverse(w, grid, sink=discard)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        triangle = L * (L * L + 1 if real else 2 * L * L) * 16
        chunk = so3._CHUNK * K * fourier._next_fast_len(4 * L - 3) * 16
        block = so3._BETA_BLOCK * K * K * 16
        assert max(peaks) <= triangle + chunk + block

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_streamed_inverse_holds_one_block_not_the_triangle(self, monkeypatch, rng, real):
        """One worker's traced peak of an inverse into a discarding sink, at L = 64.

        It stays within one worker's block buffers (the block handed to
        the sink, the block's triangle rows and their exponents or dense
        workspace, as the peak model counts them without its allocator
        slack) plus the coefficients and their index arrays: less than the
        triangle spectrum alone.
        """
        monkeypatch.setenv("SCURVE_THREADS", "1")
        L = 64
        grid = scurve.SO3Grid(L)
        if real:
            w = sparse_with_real_symmetry(L, rng)
            inverse = scurve.so3_inverse_curvelet_real
        else:
            w = oracles.random_curvelet_wigner_coeffs(L, rng)
            inverse = scurve.so3_inverse_curvelet

        def discard(rows, block):
            pass

        inverse(w, grid, sink=discard)  # the cached tables, untraced
        tracemalloc.start()
        try:
            inverse(w, grid, sink=discard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        parts = so3._curvelet_peak_parts(L, real, 1, False)
        bound = parts["workers"] * 4 // 5 + parts["coefficients"]
        triangle = L * (L * L + 1 if real else 2 * L * L) * 16
        assert peak <= bound < triangle, (peak, bound, triangle)


class TestChunkPool:
    """The gamma chunks run on fft_workers() threads without changing a bit."""

    def test_outputs_do_not_depend_on_worker_count(self, monkeypatch, rng):
        L = 32
        grid = scurve.SO3Grid(L)
        w = oracles.random_curvelet_wigner_coeffs(L, rng)
        f = scurve.so3_inverse_curvelet(w, grid)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SCURVE_THREADS", threads)
            inverse = scurve.so3_inverse_curvelet(w, grid).values
            forward = scurve.so3_forward_curvelet(f).values
            runs.append((inverse.tobytes(), forward.tobytes()))
        assert runs[0] == runs[1]

    def test_error_waits_for_running_tasks(self, monkeypatch):
        """A failing item is raised only after the other running items end."""
        monkeypatch.setenv("SCURVE_THREADS", "2")
        started = threading.Event()
        finished = []

        def task(item):
            if item == 0:
                started.wait(5)
                raise RuntimeError("boom")
            started.set()
            time.sleep(0.2)
            finished.append(item)

        with pytest.raises(RuntimeError, match="boom"):
            so3._run_chunks(task, [0, 1])
        assert finished == [1]

    def test_one_worker_starts_no_thread(self, monkeypatch, rng):
        monkeypatch.setenv("SCURVE_THREADS", "1")
        L = 32
        w = oracles.random_curvelet_wigner_coeffs(L, rng)
        before = threading.active_count()
        scurve.so3_forward_curvelet(scurve.so3_inverse_curvelet(w, scurve.SO3Grid(L)))
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_the_pool(self, monkeypatch, rng):
        """A child forked after the pool started builds its own and finishes."""
        monkeypatch.setenv("SCURVE_THREADS", "2")
        L = 16
        w = oracles.random_curvelet_wigner_coeffs(L, rng)
        grid = scurve.SO3Grid(L)
        expected = scurve.so3_inverse_curvelet(w, grid).values

        def in_child():
            assert np.array_equal(scurve.so3_inverse_curvelet(w, grid).values, expected)

        child = multiprocessing.get_context("fork").Process(target=in_child)
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    def test_peak_grows_by_one_chunk_per_worker(self, monkeypatch, rng):
        """Each worker past the first holds one more chunk in flight, not more.

        One chunk is measured as the traced peak of the widest forward
        chunk on its own: its one buffer of bin planes padded for the
        convolution.
        """
        L = 64
        grid = scurve.SO3Grid(L)
        w = oracles.random_curvelet_wigner_coeffs(L, rng)

        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def round_trip():
            scurve.so3_forward_curvelet(scurve.so3_inverse_curvelet(w, grid))

        peaks = {}
        for threads in (1, 2, 4):
            monkeypatch.setenv("SCURVE_THREADS", str(threads))
            round_trip()  # build the pool and the cached tables untraced
            peaks[threads] = traced_peak(round_trip)
        W1 = so3._analysis_spectrum(scurve.so3_inverse_curvelet(w, grid))
        widest = so3._gamma_order(L, False)[-so3._CHUNK :]
        cols = so3._triangle(L, False)[0]
        spectra = [W1[:, cols[n % len(cols)]] for n in widest]
        one_chunk = traced_peak(lambda: so3._beta_to_bins(spectra, widest, L - 1))
        # The chunk's planes padded to about twice their length for the
        # convolution, in one buffer: about two stacks of planes.
        planes = so3._CHUNK * (2 * L - 1) ** 2 * 16
        assert one_chunk <= 5 * planes
        assert peaks[2] <= peaks[1] + one_chunk
        assert peaks[4] <= peaks[1] + 3 * one_chunk
