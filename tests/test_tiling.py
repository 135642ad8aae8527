"""Checks for the harmonic tiling: kernels, directionality, widths."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scurve
from scurve import tiling


class TestSchwartzBump:
    def test_frozen_values(self):
        assert tiling.schwartz_s(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert tiling.schwartz_s(1.0) == 0.0
        assert tiling.schwartz_s(-2.0) == 0.0

    def test_support_is_open_unit_interval(self):
        assert tiling.schwartz_s(-1.0) == 0.0
        assert tiling.schwartz_s(0.999) > 0.0
        assert tiling.schwartz_s(1.001) == 0.0

    @settings(deadline=None, max_examples=50)
    @given(st.floats(-1.5, 1.5, allow_nan=False))
    def test_even_and_bounded(self, t):
        v = tiling.schwartz_s(t)
        assert 0.0 <= v <= math.exp(-1.0)
        assert v == tiling.schwartz_s(-t)


class TestSmoothStep:
    def test_frozen_values(self):
        assert tiling.smooth_step_k(2.0, 0.25) == 1.0
        assert tiling.smooth_step_k(2.0, 1.5) == 0.0

    def test_boundary_clamps(self):
        assert tiling.smooth_step_k(2.0, 0.5) == 1.0
        assert tiling.smooth_step_k(2.0, 1.0) == 0.0
        assert tiling.smooth_step_k(3.0, 1.0 / 3.0) == 1.0

    def test_monotone_non_increasing(self):
        ts = np.linspace(0.5, 1.0, 64)
        vals = [tiling.smooth_step_k(2.0, t) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0 and vals[-1] == 0.0

    @settings(deadline=None, max_examples=30)
    @given(
        st.floats(1.1, 4.0, allow_nan=False),
        st.floats(0.0, 2.0, allow_nan=False),
        st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_monotone_property(self, lam, a, b):
        lo, hi = min(a, b), max(a, b)
        assert tiling.smooth_step_k(lam, lo) >= tiling.smooth_step_k(lam, hi) - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            tiling.smooth_step_k(1.0, 0.5)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_lambda_is_rejected(self, lam):
        with pytest.raises(ValueError, match="finite and exceed 1"):
            tiling.smooth_step_k(lam, 0.5)

    @pytest.mark.parametrize("lam", [1e200, 1e300])
    def test_huge_lambda_fails_cleanly(self, lam):
        # the bump's normalising integral underflows to 0
        with pytest.raises(tiling.QuadratureError, match="lambda"):
            tiling.smooth_step_k(lam, 0.5)

    def test_beyond_double_precision_lambda_is_rejected(self):
        # 2 lam / (lam - 1) rounds to 2 from about 2**53 on
        assert 0.0 < tiling.smooth_step_k(2.0**52, 0.5) < 1.0
        with pytest.raises(tiling.QuadratureError, match="lambda"):
            tiling.smooth_step_k(2.0**54, 0.5)


class TestQuadrature:
    LO = math.log(1e-60)

    def test_zero_estimate_does_not_converge(self):
        # the 8- and 16-panel sums both miss the bump and read exactly 0
        assert tiling._composite_simpson(1e60, self.LO, 0.0, 8) == 0.0
        assert tiling._composite_simpson(1e60, self.LO, 0.0, 16) == 0.0
        with pytest.raises(tiling.QuadratureError, match="did not converge"):
            tiling._segment_integral(1e60, self.LO, 0.0, rel_tol=1e-12, max_refine=1)

    def test_refinement_finds_the_bump(self):
        # far above its support edge the bump barely depends on lambda
        wide = tiling._segment_integral(1e60, self.LO, 0.0, rel_tol=1e-12)
        ref = tiling._segment_integral(1e15, math.log(1e-15), 0.0, rel_tol=1e-12)
        assert wide == pytest.approx(ref, rel=1e-12)

    def test_zero_integrand_converges_to_zero(self):
        # below the support edge the bump is exactly zero
        assert tiling._segment_integral(2.0, -3.0, -1.0, abs_tol=1e-12) == 0.0


class TestParams:
    def test_default_scale_range(self):
        p = scurve.TilingParams(128, 0, 2.0, 2)
        assert (p.j_min, p.j_max) == (2, 7)
        assert p.scale_count == 6

    def test_default_bumps_until_band_limit_covered(self):
        # ceil(log_1.5 1) = 0 alone would leave degree 1 uncovered
        p = scurve.TilingParams(2, 0, 1.5, 0)
        assert p.j_max == 1

    def test_explicit_j_max(self):
        p = scurve.TilingParams(32, 0, 2.0, 0, 6)
        assert p.j_max == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            scurve.TilingParams(8, 0, 1.0, 0)
        with pytest.raises(ValueError):
            scurve.TilingParams(8, 0, 2.0, -1)
        with pytest.raises(ValueError):
            scurve.TilingParams(8, 0, 2.0, 5)  # j_min above default j_max
        with pytest.raises(ValueError):
            scurve.TilingParams(32, 0, 2.0, 0, 2)  # finest kernel short of L-1

    @pytest.mark.parametrize("spin", [4, -4, 9])
    def test_spin_beyond_band_limit(self, spin):
        with pytest.raises(ValueError, match=f"spin {spin} out of range for band limit 4"):
            scurve.TilingParams(4, spin=spin)
        assert scurve.TilingParams(4, spin=3).spin == 3

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_lambda_is_rejected(self, lam):
        with pytest.raises(ValueError, match="finite and exceed 1"):
            scurve.TilingParams(8, lam=lam)
        with pytest.raises(ValueError):
            scurve.TilingParams(32, 0, 2.0, 0, 9)  # coarsest kernel past L-1
        with pytest.raises(ValueError):
            scurve.TilingParams(0, 0, 2.0, 0)

    @pytest.mark.parametrize("lam", [1e200, 1e300])
    @pytest.mark.parametrize("j_max", [-1, 1, 5])
    def test_huge_lambda_fails_cleanly(self, lam, j_max):
        # lam ** j overflows a float; the checks must not
        with pytest.raises((ValueError, tiling.QuadratureError)):
            scurve.build_tiling(scurve.TilingParams(8, lam=lam, j_max=j_max))


class TestKernels:
    def test_support_and_peak(self):
        t = scurve.build_tiling(scurve.TilingParams(32, 0, 2.0, 0))
        k3 = t.kernels[3 - t.params.j_min]
        ells = np.arange(32)
        outside = (ells < 4) | (ells > 16)
        np.testing.assert_array_equal(k3[outside], 0.0)
        assert k3[8] == pytest.approx(1.0, abs=1e-12)
        assert k3[5] > 0.0 and k3[15] > 0.0

    def test_support_bounds_exact_fractional_lambda(self):
        lam = 1.5
        t = scurve.build_tiling(scurve.TilingParams(64, 0, lam, 0))
        for idx, j in enumerate(range(t.params.j_min, t.params.j_max + 1)):
            lo = math.floor(lam ** (j - 1))
            hi = math.ceil(lam ** (j + 1))
            ells = np.arange(64)
            outside = (ells < lo) | (ells > hi)
            np.testing.assert_array_equal(t.kernels[idx][outside], 0.0)

    def test_unit_peak_at_integer_scale_centres(self):
        t = scurve.build_tiling(scurve.TilingParams(128, 0, 2.0, 0))
        for j in range(1, 7):
            assert t.kernels[j][2**j] == pytest.approx(1.0, abs=1e-12)

    def test_arrays_are_immutable(self):
        t = scurve.build_tiling(scurve.TilingParams(16, 0, 2.0, 0))
        with pytest.raises(ValueError):
            t.kernels[0, 0] = 5.0


class TestDirectionality:
    def test_two_populated_orders(self):
        t = scurve.build_tiling(scurve.TilingParams(8, 0, 2.0, 0))
        r = 1.0 / math.sqrt(2.0)
        assert t.direction_pos[2] == pytest.approx(r, abs=1e-15)
        assert t.direction_neg[2] == pytest.approx(r, abs=1e-15)
        assert t.direction_pos[3] == pytest.approx(r, abs=1e-15)
        assert t.direction_neg[3] == pytest.approx(-r, abs=1e-15)
        assert t.direction_pos[0] == 0.0 and t.direction_neg[0] == 0.0

    def test_normalisation_exact(self):
        t = scurve.build_tiling(scurve.TilingParams(64, 0, 2.0, 0))
        total = t.direction_pos**2 + t.direction_neg**2
        np.testing.assert_allclose(total[1:], 1.0, atol=1e-15)


class TestRotationAngles:
    def test_scalar_tiling_stays_equatorial(self):
        t = scurve.build_tiling(scurve.TilingParams(32, 0, 2.0, 0))
        np.testing.assert_allclose(t.angles, math.pi / 2, atol=1e-15)

    def test_spin_pushes_rings_south(self):
        t = scurve.build_tiling(scurve.TilingParams(32, 2, 2.0, 0))
        # j = 0, 1: -s/lam^j <= -1, clipped to the pole
        assert t.angles[0] == pytest.approx(math.pi)
        assert t.angles[1] == pytest.approx(math.pi)
        assert t.angles[2] == pytest.approx(math.acos(-0.5))
        assert np.all(np.diff(t.angles) <= 1e-15)
        assert t.angles[-1] >= math.pi / 2


class TestCurveletHarmonics:
    def test_peak_magnitude(self):
        t = scurve.build_tiling(scurve.TilingParams(32, 0, 2.0, 0))
        for j in (2, 3, 4):
            ell = 2**j
            pos, neg = scurve.curvelet_harmonics(t, j)
            expect = math.sqrt((2 * ell + 1) / (8 * math.pi**2)) / math.sqrt(2.0)
            assert abs(pos[ell]) == pytest.approx(expect, abs=1e-12)
            assert abs(neg[ell]) == pytest.approx(expect, abs=1e-12)

    def test_vanishes_outside_support(self):
        t = scurve.build_tiling(scurve.TilingParams(32, 0, 2.0, 0))
        pos, neg = scurve.curvelet_harmonics(t, 3)
        ells = np.arange(32)
        outside = (ells < 4) | (ells > 16)
        np.testing.assert_array_equal(pos[outside], 0.0)
        np.testing.assert_array_equal(neg[outside], 0.0)

    def test_scale_out_of_range(self):
        t = scurve.build_tiling(scurve.TilingParams(32, 0, 2.0, 1))
        with pytest.raises(ValueError):
            scurve.curvelet_harmonics(t, 0)
        with pytest.raises(ValueError):
            scurve.curvelet_harmonics(t, t.params.j_max + 1)


class TestAdmissibility:
    def test_canonical_tiling(self):
        t = scurve.build_tiling(scurve.TilingParams(256, 0, 2.0, 2))
        assert scurve.admissibility_residual(t) <= 1e-8

    def test_degree_zero_is_scaling_only(self):
        t = scurve.build_tiling(scurve.TilingParams(256, 0, 2.0, 2))
        assert 4 * math.pi * t.scaling[0] ** 2 == pytest.approx(1.0, abs=1e-14)
        for idx in range(t.params.scale_count):
            assert t.kernels[idx][0] == 0.0

    def test_zeroed_kernel_breaks_identity(self):
        t = scurve.build_tiling(scurve.TilingParams(32, 0, 2.0, 0))
        kernels = t.kernels.copy()
        kernels[3 - t.params.j_min] = 0.0
        broken = tiling.Tiling(
            t.params, kernels, t.scaling, t.direction_pos, t.direction_neg, t.angles
        )
        assert scurve.admissibility_residual(broken) >= 0.5

    def test_short_scale_range_raises(self):
        # passes the parameter sandwich but cannot tile every degree
        params = scurve.TilingParams(16, 0, 2.0, 0, 3)
        with pytest.raises(tiling.TilingError):
            scurve.build_tiling(params)

    @pytest.mark.parametrize(
        "params", [(128, 2, 2.0, 2), (256, 0, 2.0, 2), (64, 0, 1.5, 0)]
    )
    def test_identity_to_round_off(self, params):
        t = scurve.build_tiling(scurve.TilingParams(*params))
        assert scurve.admissibility_residual(t) <= 1e-15


class TestDeterminism:
    def test_tiling_ignores_earlier_builds(self, tmp_path):
        # a tiling built after another must equal the same tiling built in
        # a fresh process: no quadrature state may carry over
        params = (128, 0, 1.9, 2)
        scurve.build_tiling(scurve.TilingParams(90, 0, 1.9, 1))
        warm = scurve.build_tiling(scurve.TilingParams(*params))
        out = tmp_path / "fresh.npz"
        script = (
            "import sys, numpy as np, scurve\n"
            f"t = scurve.build_tiling(scurve.TilingParams{params})\n"
            "np.savez(sys.argv[1], kernels=t.kernels, scaling=t.scaling)\n"
        )
        src = str(pathlib.Path(scurve.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
        fresh = np.load(out)
        assert np.array_equal(warm.kernels, fresh["kernels"])
        assert np.array_equal(warm.scaling, fresh["scaling"])


class TestFwhm:
    def test_longitudinal_width(self):
        assert tiling.fwhm_report(3, 0).fwhm_phi == pytest.approx(
            2 * math.pi / 9, abs=1e-15
        )

    def test_colatitude_width_degree_one(self):
        r = tiling.fwhm_report(1, 0)
        assert r.fwhm_theta == pytest.approx(2 * math.pi / 3, abs=1e-9)

    def test_matches_closed_form_at_zero_spin(self):
        for ell in (1, 2, 3, 4, 7, 16, 33, 64, 129, 256, 511, 1024):
            got = tiling.fwhm_report(ell, 0).fwhm_theta
            expect = math.pi - 2 * math.asin(2.0 ** (-1.0 / ell))
            assert abs(got - expect) <= 1e-9

    def test_peak_location(self):
        r = tiling.fwhm_report(4, 2)
        assert r.theta_max == pytest.approx(math.acos(-0.5), abs=1e-15)
        assert tiling.fwhm_report(5, 0).theta_max == pytest.approx(math.pi / 2)
        assert tiling.fwhm_report(3, 3).theta_max == pytest.approx(math.pi)

    def test_residual_formula(self):
        r = tiling.fwhm_report(256, 0)
        expect = abs(r.fwhm_theta**2 - r.fwhm_phi) / r.fwhm_phi
        assert r.parabolic_residual == pytest.approx(expect, rel=1e-12)

    def test_parabolic_scaling_up_to_a_constant(self):
        # width_theta^2 tracks width_phi with a ratio that settles near
        # 8 ln(2) / (2 pi / 3); both widths shrink like 1/ell
        ratios = [
            tiling.fwhm_report(ell, 0).fwhm_theta ** 2 / tiling.fwhm_report(ell, 0).fwhm_phi
            for ell in (16, 64, 256, 1024)
        ]
        for ratio in ratios:
            assert 1.0 <= ratio <= 3.0
        limit = 8 * math.log(2.0) / (2 * math.pi / 3)
        assert ratios[-1] == pytest.approx(limit, abs=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            tiling.fwhm_report(0, 0)
        with pytest.raises(ValueError):
            tiling.fwhm_report(4, 5)


class TestParabolicTable:
    def test_zero_spin_rows_are_exactly_zero(self):
        for row in tiling.parabolic_accuracy_table(4):
            if row.spin == 0:
                assert row.pct_diff == 0.0

    def test_row_count(self):
        rows = tiling.parabolic_accuracy_table(3)
        assert len(rows) == (2 + 1) + (4 + 1) + (8 + 1)

    def test_frozen_widths(self):
        rows = {(r.degree, r.spin): r for r in tiling.parabolic_accuracy_table(8)}
        assert rows[(2, 1)].fwhm_theta == pytest.approx(1.5508471327156503, abs=1e-10)
        assert rows[(2, 1)].pct_diff == pytest.approx(1.2700051394095266, abs=1e-6)
        assert rows[(4, 2)].pct_diff == pytest.approx(0.6431771169529913, abs=1e-6)
        assert rows[(16, 8)].pct_diff == pytest.approx(0.16076236189181037, abs=1e-6)

    def test_half_spin_deviation_shrinks_with_degree(self):
        rows = {(r.degree, r.spin): r for r in tiling.parabolic_accuracy_table(8)}
        half = [rows[(2**p, 2 ** (p - 1))].pct_diff for p in range(1, 9)]
        assert all(a > b for a, b in zip(half, half[1:]))
        assert all(rows[(2**p, s)].pct_diff < 0.05
                   for p in range(6, 9) for s in range(2 ** p // 2 + 1))

    def test_extreme_spin_stays_within_five_percent_at_256(self):
        rows = {(r.degree, r.spin): r for r in tiling.parabolic_accuracy_table(8)}
        assert rows[(256, 255)].pct_diff == pytest.approx(3.7376617363509466, abs=1e-5)
        assert rows[(256, 255)].pct_diff <= 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            tiling.parabolic_accuracy_table(0)
        with pytest.raises(ValueError):
            tiling.parabolic_accuracy_table(9)
