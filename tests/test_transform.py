"""End-to-end checks for the directional multiscale transform."""

import dataclasses
import math

import numpy as np
import pytest

import scurve
from scurve import transform
from scurve.wigner import wigner_d_matrix

import oracles


def tiling_for(L, spin, lam=2.0, j_min=2):
    return scurve.build_tiling(scurve.TilingParams(L, spin, lam, j_min))


def scale_wigner_rows(coeffs):
    """Outer-column Wigner coefficients of every stored scale signal."""
    return [scurve.so3_forward_curvelet(sig) for sig in coeffs.scales]


class TestBandLimits:
    def test_scale_band_limit(self):
        p = scurve.TilingParams(128, 0, 2.0, 2)
        assert transform.scale_band_limit(p, 2) == 8
        assert transform.scale_band_limit(p, 6) == 128
        assert transform.scale_band_limit(p, 7) == 128

    def test_scaling_band_limit(self):
        assert transform.scaling_band_limit(scurve.TilingParams(128, 0, 2.0, 2)) == 4
        assert transform.scaling_band_limit(scurve.TilingParams(2, 0, 2.0, 0)) == 1

    def test_scale_out_of_range(self):
        p = scurve.TilingParams(128, 0, 2.0, 2)
        with pytest.raises(ValueError):
            transform.scale_band_limit(p, 1)
        with pytest.raises(ValueError):
            transform.scale_band_limit(p, 8)


class TestCoeffContainer:
    def test_scale_accessor_bounds(self, rng):
        t = tiling_for(8, 0, j_min=1)
        c = scurve.analyze(scurve.sht_inverse(scurve.random_coeffs(8, 0, rng)), t)
        with pytest.raises(ValueError):
            c.scale(0)
        with pytest.raises(ValueError):
            c.scale(t.params.j_max + 1)

    def test_scale_count_enforced(self, rng):
        t = tiling_for(8, 0, j_min=0)
        c = scurve.analyze(scurve.sht_inverse(scurve.random_coeffs(8, 0, rng)), t)
        with pytest.raises(ValueError):
            dataclasses.replace(c, scales=c.scales[:-1])


class TestAnalyze:
    def test_zero_signal(self):
        t = tiling_for(16, 0)
        f = scurve.SphereSignal(scurve.SphereGrid(16), 0, np.zeros((16, 31), complex))
        c = scurve.analyze(f, t)
        assert np.abs(c.scaling.values).max() == 0.0
        for sig in c.scales:
            assert np.abs(sig.values).max() <= 1e-14

    def test_multires_band_limits(self, rng):
        t = tiling_for(64, 0, j_min=2)
        c = scurve.analyze(scurve.sht_inverse(scurve.random_coeffs(64, 0, rng)), t)
        for j in range(2, t.params.j_max + 1):
            expected = min(2 ** (j + 1), 64)
            assert c.scale(j).grid.L == expected
        assert c.scaling.grid.band_limit == 4

    def test_fullres_band_limits(self, rng):
        t = tiling_for(16, 0, j_min=0)
        c = scurve.analyze(
            scurve.sht_inverse(scurve.random_coeffs(16, 0, rng)), t, multires=False
        )
        assert all(sig.grid.L == 16 for sig in c.scales)
        assert c.scaling.grid.band_limit == 16

    def test_single_harmonic_lands_on_one_scale(self):
        # a degree sitting exactly on a kernel peak excites only that scale
        L, ell0, m0 = 8, 4, 1
        t = tiling_for(L, 0, j_min=0)
        vals = np.zeros(L * L, dtype=complex)
        vals[scurve.lm_index(ell0, m0)] = 1.0
        c = scurve.analyze(scurve.sht_inverse(scurve.HarmonicCoeffs(L, 0, vals)), t)
        pos, neg = scurve.curvelet_harmonics(t, 2)
        w = scurve.so3_forward_curvelet(c.scale(2))
        factor = 8 * math.pi**2 / (2 * ell0 + 1)
        got_pos = w.row(ell0)[m0 + ell0]
        got_neg = w.row(-ell0)[m0 + ell0]
        assert got_pos == pytest.approx(factor * pos[ell0], abs=1e-12)
        assert got_neg == pytest.approx(factor * neg[ell0], abs=1e-12)
        for j in (0, 1, 3):
            assert np.abs(c.scale(j).values).max() <= 1e-13
        assert np.abs(c.scaling.values).max() <= 1e-13

    def test_signal_mismatch_errors(self, rng):
        t = tiling_for(16, 0)
        f8 = scurve.sht_inverse(scurve.random_coeffs(8, 0, rng))
        with pytest.raises(ValueError):
            scurve.analyze(f8, t)
        f_spun = scurve.sht_inverse(scurve.random_coeffs(16, 2, rng))
        with pytest.raises(ValueError):
            scurve.analyze(f_spun, t)


class TestRoundTrip:
    @pytest.mark.parametrize("lam,j_min", [(2.0, 0), (2.0, 2), (3.0, 0), (3.0, 2)])
    @pytest.mark.parametrize("L", [4, 8, 16, 32, 64, 128])
    def test_reconstruction_exact(self, L, lam, j_min, rng):
        for spin in (0, 1, 2):
            try:
                params = scurve.TilingParams(L, spin, lam, j_min)
            except ValueError:
                # scale range collapses (j_min above the default maximum)
                assert (L, lam, j_min) == (4, 3.0, 2)
                continue
            t = scurve.build_tiling(params)
            flm = scurve.random_coeffs(L, spin, rng)
            f = scurve.sht_inverse(flm)
            g = scurve.synthesize(scurve.analyze(f, t), t)
            back = scurve.sht_forward(g)
            assert np.abs(back.values - flm.values).max() <= 1e-10

    def test_fullres_reconstruction(self, rng):
        t = tiling_for(32, 2)
        flm = scurve.random_coeffs(32, 2, rng)
        f = scurve.sht_inverse(flm)
        g = scurve.synthesize(scurve.analyze(f, t, multires=False), t)
        assert np.abs(scurve.sht_forward(g).values - flm.values).max() <= 1e-10

    @pytest.mark.parametrize("L", [16, 64])
    def test_multires_and_fullres_agree(self, L, rng):
        t = tiling_for(L, 0, j_min=0)
        f = scurve.sht_inverse(scurve.random_coeffs(L, 0, rng))
        a = scurve.synthesize(scurve.analyze(f, t, multires=True), t)
        b = scurve.synthesize(scurve.analyze(f, t, multires=False), t)
        assert np.abs(a.values - b.values).max() <= 1e-10

    def test_scaling_part_carries_only_coarse_degrees(self, rng):
        # signal supported above the scaling band: dropping the scaling
        # signal entirely must not change the reconstruction
        L, j_min = 16, 2
        t = tiling_for(L, 0, j_min=j_min)
        vals = scurve.random_coeffs(L, 0, rng).values.copy()
        lam_pow = int(2 ** (j_min + 1))
        vals[: lam_pow * lam_pow] = 0.0
        flm = scurve.HarmonicCoeffs(L, 0, vals)
        c = scurve.analyze(scurve.sht_inverse(flm), t)
        zero_scaling = scurve.SphereSignal(
            c.scaling.grid, 0, np.zeros_like(c.scaling.values)
        )
        dropped = dataclasses.replace(c, scaling=zero_scaling)
        g = scurve.synthesize(dropped, t)
        assert np.abs(scurve.sht_forward(g).values - flm.values).max() <= 1e-10

    def test_synthesize_validation(self, rng):
        t = tiling_for(16, 0)
        c = scurve.analyze(scurve.sht_inverse(scurve.random_coeffs(16, 0, rng)), t)
        other = tiling_for(16, 0, j_min=1)
        with pytest.raises(ValueError, match="different tiling"):
            scurve.synthesize(c, other)
        full = scurve.analyze(scurve.sht_inverse(scurve.random_coeffs(16, 0, rng)), t, False)
        mixed = dataclasses.replace(c, scales=[full.scales[0], *c.scales[1:]])
        with pytest.raises(ValueError, match="stored at band limit 16, expected"):
            scurve.synthesize(mixed, t)


class TestEnergySplit:
    @pytest.mark.parametrize("L,spin", [(8, 0), (32, 0), (32, 2)])
    def test_coefficient_energy_matches_signal_energy(self, L, spin, rng):
        t = tiling_for(L, spin, j_min=1)
        flm = scurve.random_coeffs(L, spin, rng)
        c = scurve.analyze(scurve.sht_inverse(flm), t)
        total = float(np.sum(np.abs(scurve.sht_forward(c.scaling).values) ** 2))
        for w in scale_wigner_rows(c):
            for ell in range(1, w.band_limit):
                weight = (2 * ell + 1) / (8 * math.pi**2)
                total += weight * float(
                    np.sum(np.abs(w.row(ell)) ** 2) + np.sum(np.abs(w.row(-ell)) ** 2)
                )
        expect = float(np.sum(np.abs(flm.values) ** 2))
        assert total == pytest.approx(expect, rel=1e-9)


class TestFrameRotations:
    @pytest.mark.parametrize("L,spin", [(8, 0), (16, 1), (64, 2)])
    def test_round_trip_and_energy(self, L, spin, rng):
        t = tiling_for(L, spin, j_min=1)
        f = scurve.sht_inverse(scurve.random_coeffs(L, spin, rng))
        c = scurve.analyze(f, t)
        for j in range(1, t.params.j_max + 1):
            w = scurve.so3_forward_curvelet(c.scale(j))
            dense = scurve.rotate_to_north(w, j, t)
            back = scurve.rotate_from_north(dense, j, t)
            assert np.abs(back.values - w.values).max() <= 1e-12
            cc = w.band_limit - 1
            for ell in range(w.band_limit):
                per_m_dense = (np.abs(dense.planes[ell]) ** 2).sum(axis=1)
                seg = w.values[:, ell, cc - ell : cc + ell + 1]
                per_m_sparse = (np.abs(seg) ** 2).sum(axis=0)
                assert np.abs(per_m_dense - per_m_sparse).max() <= 1e-12

    def test_identity_rotation_scale(self, rng):
        # a scale whose ring sits on the pole: rotation is the identity
        t = scurve.build_tiling(scurve.TilingParams(16, 2, 2.0, 0))
        assert float(t.angles[0]) == pytest.approx(math.pi)
        w = oracles.random_curvelet_wigner_coeffs(4, rng)
        dense = scurve.rotate_to_north(w, 0, t)
        back = scurve.rotate_from_north(dense, 0, t)
        assert np.abs(back.values - w.values).max() <= 1e-13

    def test_projection_idempotence(self, rng):
        t = tiling_for(8, 0, j_min=0)
        dense = oracles.random_wigner_coeffs(8, rng)
        once = scurve.rotate_from_north(dense, 2, t)
        again = scurve.rotate_from_north(scurve.rotate_to_north(once, 2, t), 2, t)
        assert np.abs(again.values - once.values).max() <= 1e-12

    def test_type_and_range_validation(self, rng):
        t = tiling_for(8, 0, j_min=0)
        w = oracles.random_curvelet_wigner_coeffs(4, rng)
        dense = oracles.densify(w)
        with pytest.raises(TypeError):
            scurve.rotate_to_north(dense, 2, t)
        with pytest.raises(TypeError):
            scurve.rotate_from_north(w, 2, t)
        with pytest.raises(ValueError):
            scurve.rotate_to_north(w, 9, t)


class TestNorthValidation:
    def test_zero_signal(self):
        t = tiling_for(8, 0, j_min=0)
        f = scurve.SphereSignal(scurve.SphereGrid(8), 0, np.zeros((8, 15), complex))
        out = oracles.analyze_north_validation(f, t, 2)
        assert np.abs(out.values).max() == 0.0

    def test_matches_inner_product_quadrature(self, rng):
        # the field at a rotation is the inner product of the signal with
        # the rotated pole-centred function; check by exact quadrature
        L, j = 8, 2
        t = tiling_for(L, 0, j_min=0)
        flm = scurve.random_coeffs(L, 0, rng)
        f = scurve.sht_inverse(flm)
        out = oracles.analyze_north_validation(f, t, j)
        rows = oracles.pole_frame_rows(t, j)
        grid = out.grid
        for _ in range(8):
            gi = int(rng.integers(0, 2 * grid.L - 1))
            bi = int(rng.integers(0, grid.L))
            ai = int(rng.integers(0, 2 * grid.L - 1))
            node = (grid.alphas[ai], grid.betas[bi], grid.gammas[gi])
            rotated = oracles.rotate_rows(rows, node)
            psi = oracles.coeffs_from_rows(rotated, L, 0)
            ref = oracles.sphere_inner_product(flm, psi)
            assert abs(out.values[gi, bi, ai] - ref) <= 1e-8

    def test_is_right_translate_of_unrotated_field(self, rng):
        # the two frames describe one function: the pole-centred field at
        # rho equals the unrotated field at rho composed with the ring
        # rotation, evaluated here through composed rotation matrices
        L, j = 16, 2
        t = tiling_for(L, 2, j_min=1)
        flm = scurve.random_coeffs(L, 2, rng)
        f = scurve.sht_inverse(flm)
        out = oracles.analyze_north_validation(f, t, j)
        Lj = transform.scale_band_limit(t.params, j)
        w = oracles.densify(scurve.so3_forward_curvelet(scurve.analyze(f, t).scale(j)))
        theta = float(t.angles[j - t.params.j_min])
        grid = out.grid
        for _ in range(6):
            gi = int(rng.integers(0, 2 * grid.L - 1))
            bi = int(rng.integers(0, grid.L))
            ai = int(rng.integers(0, 2 * grid.L - 1))
            al, be, ga = grid.alphas[ai], grid.betas[bi], grid.gammas[gi]
            acc = 0.0 + 0.0j
            for ell in range(Lj):
                ms = np.arange(-ell, ell + 1)
                D = (
                    np.exp(-1j * ms[:, None] * al)
                    * wigner_d_matrix(ell, be)
                    * np.exp(-1j * ms[None, :] * ga)
                )
                composed = D @ wigner_d_matrix(ell, theta)
                acc += (
                    (2 * ell + 1)
                    / (8 * math.pi**2)
                    * np.sum(w.planes[ell] * np.conj(composed))
                )
            assert abs(acc - out.values[gi, bi, ai]) <= 1e-9

    def test_band_limit_cap(self, rng):
        t = tiling_for(64, 0)
        f = scurve.sht_inverse(scurve.random_coeffs(64, 0, rng))
        with pytest.raises(ValueError):
            oracles.analyze_north_validation(f, t, t.params.j_max)
        out = oracles.analyze_north_validation(f, t, t.params.j_max, max_band_limit=64)
        assert out.grid.L == 64


class TestRealPath:
    def test_matches_complex_path(self, rng):
        L = 64
        t = tiling_for(L, 0)
        flm = scurve.random_coeffs(L, 0, rng, real=True)
        f = scurve.sht_inverse_real(flm)
        fc = scurve.SphereSignal(f.grid, 0, f.values.astype(complex))
        cr = scurve.analyze_real(f, t)
        cz = scurve.analyze(fc, t)
        assert cr.real
        assert np.abs(cr.scaling.values - cz.scaling.values).max() <= 1e-12
        for sig_r, sig_z in zip(cr.scales, cz.scales):
            assert sig_r.real and not np.iscomplexobj(sig_r.values)
            assert np.abs(sig_r.values - sig_z.values).max() <= 1e-12
        g = scurve.synthesize_real(cr, t)
        assert g.real
        assert np.abs(g.values - f.values).max() <= 1e-10
        # The plain entry points follow the real flag to the same results.
        cd = scurve.analyze(f, t)
        assert cd.real and cd.scaling.real
        assert np.abs(cd.scaling.values - cr.scaling.values).max() <= 1e-12
        for sig_d, sig_r in zip(cd.scales, cr.scales):
            assert sig_d.real
            assert np.abs(sig_d.values - sig_r.values).max() <= 1e-12
        gd = scurve.synthesize(cr, t)
        assert gd.real
        assert np.abs(gd.values - g.values).max() <= 1e-12

    @pytest.mark.parametrize("L", [8, 32])
    def test_round_trip(self, L, rng):
        t = tiling_for(L, 0, j_min=1)
        flm = scurve.random_coeffs(L, 0, rng, real=True)
        f = scurve.sht_inverse_real(flm)
        g = scurve.synthesize_real(scurve.analyze_real(f, t), t)
        assert np.abs(g.values - f.values).max() <= 1e-10

    def test_constant_signal_is_scaling_only(self):
        L = 16
        t = tiling_for(L, 0)
        g = scurve.SphereGrid(L)
        f = scurve.SphereSignal(g, 0, np.ones(g.shape), real=True)
        c = scurve.analyze_real(f, t)
        for sig in c.scales:
            assert np.abs(sig.values).max() <= 1e-13
        back = scurve.synthesize_real(c, t)
        np.testing.assert_allclose(back.values, 1.0, atol=1e-12)

    def test_validation(self, rng):
        t = tiling_for(16, 0)
        fc = scurve.sht_inverse(scurve.random_coeffs(16, 0, rng))
        with pytest.raises(ValueError):
            scurve.analyze_real(fc, t)
        c = scurve.analyze(fc, t)
        with pytest.raises(ValueError):
            scurve.synthesize_real(c, t)


class TestInputsUntouched:
    """No transform writes into its caller's arrays, on either path."""

    @pytest.mark.parametrize("real", [False, True])
    def test_inputs_are_bitwise_unchanged(self, real, rng):
        L = 16
        t = tiling_for(L, 0, j_min=1)
        f = scurve.sht_inverse(scurve.random_coeffs(L, 0, rng, real=real))
        assert f.real == real
        before = f.values.tobytes()
        scurve.sht_forward(f)
        c = scurve.analyze(f, t)
        assert f.values.tobytes() == before
        signals = [c.scaling, *c.scales]
        saved = [s.values.tobytes() for s in signals]
        for sig in c.scales:
            assert sig.real == real
            scurve.so3_forward_curvelet(sig)
        scurve.synthesize(c, t)
        assert [s.values.tobytes() for s in signals] == saved


class TestWorkerCount:
    @pytest.mark.parametrize("spin, real", [(2, False), (0, True)])
    def test_round_trip_does_not_depend_on_worker_count(self, monkeypatch, rng, spin, real):
        L = 32
        t = tiling_for(L, spin)
        f = scurve.sht_inverse(scurve.random_coeffs(L, spin, rng, real=real))
        assert f.real == real
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SCURVE_THREADS", threads)
            c = scurve.analyze(f, t)
            g = scurve.synthesize(c, t)
            sigs = [c.scaling, *c.scales, g]
            runs.append([sig.values.tobytes() for sig in sigs])
        assert runs[0] == runs[1]
