"""Acceptance checklist for the curvelet library.

Every numbered guarantee the package makes is exercised here at its stated
tolerance, one test per item, and each test prints a single PASS/FAIL line
with the measured value so the suite output doubles as a report.  Criteria
that depend on earlier measurements (the error-scaling fit) consume the
stored results of the round-trip run rather than repeating it.
"""

import math
import time

import numpy as np

import oracles
import scurve
from scurve.cli import gini_coefficient
from scurve.wigner import halfpi_table, quadrature_weight

# filled by the round-trip test, consumed by the error-scaling test
_roundtrip_errors: dict[int, float] = {}


def tile(L, spin, lam=2.0, j0=2):
    return scurve.build_tiling(scurve.TilingParams(L, spin, lam, j0))


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def round_trip_error(flm, tiling):
    f = scurve.sht_inverse(flm)
    g = scurve.synthesize(scurve.analyze(f, tiling), tiling)
    return float(np.abs(scurve.sht_forward(g).values - flm.values).max())


def test_1_round_trip_exactness(capsys):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for L in (4, 8, 16, 32, 64, 128):
        worst = 0.0
        for spin in (0, 2):
            tiling = tile(L, spin)
            for _ in range(3):
                flm = scurve.random_coeffs(L, spin, rng)
                worst = max(worst, round_trip_error(flm, tiling))
        _roundtrip_errors[L] = worst
    elapsed = time.perf_counter() - t0
    worst = max(_roundtrip_errors.values())
    report(
        capsys,
        "criterion 1 (round-trip exactness)",
        worst <= 1e-10,
        f"max harmonic error {worst:.3e} over L in 4..128, spins 0 and 2, "
        f"tolerance 1e-10 ({elapsed:.1f}s)",
    )


def test_2_error_scaling(capsys):
    assert len(_roundtrip_errors) == 6, "round-trip test must run first"
    sizes = np.array(sorted(_roundtrip_errors), float)
    errors = np.array([_roundtrip_errors[int(L)] for L in sizes])
    slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    report(
        capsys,
        "criterion 2 (error growth with band limit)",
        1.0 <= slope <= 3.0,
        f"log-log slope {slope:.3f} of max error vs L, required within [1, 3]",
    )


def test_3_complexity_scaling(capsys):
    rng = np.random.default_rng(3)

    def median_time(L, runs):
        """Median seconds of a round trip, and the harmonic error of the last one."""
        tiling = tile(L, 0)
        flm = scurve.random_coeffs(L, 0, rng)
        f = scurve.sht_inverse(flm)
        scurve.synthesize(scurve.analyze(f, tiling), tiling)  # warm caches
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            g = scurve.synthesize(scurve.analyze(f, tiling), tiling)
            times.append(time.perf_counter() - start)
        error = float(np.abs(scurve.sht_forward(g).values - flm.values).max())
        return float(np.median(times)), error

    t_small, _ = median_time(32, 5)
    t_large, error = median_time(256, 3)
    report(
        capsys,
        "criterion 1 at L=256 (round-trip exactness)",
        error <= 1e-10,
        f"max harmonic error {error:.3e} of a timed spin-0 round trip, tolerance 1e-10",
    )
    slope = math.log(t_large / t_small) / math.log(256 / 32)
    report(
        capsys,
        "criterion 3 (round-trip cost scaling)",
        slope <= 3.5,
        f"timing slope {slope:.2f} from {t_small * 1e3:.0f}ms at L=32 to "
        f"{t_large:.1f}s at L=256, limit 3.5",
    )


def test_4_admissibility_grid(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for lam in (1.5, 2.0, 3.0):
        for L in (32, 128, 256):
            for j0 in (0, 1, 2):
                for spin in (0, 1, 2):
                    tiling = tile(L, spin, lam, j0)
                    worst = max(worst, scurve.admissibility_residual(tiling))
                    count += 1
    elapsed = time.perf_counter() - t0
    report(
        capsys,
        "criterion 4 (energy partition of unity)",
        worst <= 1e-8 and elapsed < 10.0,
        f"max residual {worst:.3e} over {count} tilings in {elapsed:.2f}s, "
        f"tolerance 1e-8 within 10s",
    )


def test_5_parabolic_scaling_accuracy(capsys):
    t0 = time.perf_counter()
    rows = scurve.parabolic_accuracy_table(8)
    elapsed = time.perf_counter() - t0
    half_band = [r for r in rows if 0 < r.spin <= r.degree // 2]
    worst = max(half_band, key=lambda r: r.pct_diff)
    edge = next(r for r in rows if r.degree == 256 and r.spin == 255)
    ok = worst.pct_diff < 0.05 and edge.pct_diff <= 5.0 and elapsed < 60.0
    report(
        capsys,
        "criterion 5 (parabolic width accuracy)",
        ok,
        f"worst half-band width deviation {worst.pct_diff:.3f}% at "
        f"(ell={worst.degree}, s={worst.spin}), limit 0.05%; "
        f"(ell=256, s=255) deviation {edge.pct_diff:.3f}%, limit 5% "
        f"({elapsed:.1f}s)",
    )


def test_6a_half_pi_table(capsys):
    table = halfpi_table(33)
    worst = 0.0
    for ell in range(33):
        plane = table.plane(ell)
        for mp in range(-ell, ell + 1):
            for m in range(-ell, ell + 1):
                exact = oracles.wigner_d_sum(ell, mp, m, math.pi / 2)
                worst = max(worst, abs(plane[mp + ell, m + ell] - exact))
    report(
        capsys,
        "criterion 6a (half-pi rotation table vs exact sum)",
        worst <= 1e-12,
        f"max deviation {worst:.3e} over all degrees below 33, tolerance 1e-12",
    )


def test_6b_quadrature_weights(capsys):
    worst = 0.0
    for mp in range(-64, 65):
        worst = max(worst, abs(quadrature_weight(mp) - oracles.simpson_sin_exp(mp)))
    report(
        capsys,
        "criterion 6b (quadrature weights vs numeric integral)",
        worst <= 1e-10,
        f"max deviation {worst:.3e} for orders up to 64, tolerance 1e-10",
    )


def test_6c_sparse_rotation_transforms(capsys):
    """The inverse against a 30-digit sum at sampled nodes, the forward against the dense oracle.

    The inverse is read on the pole row beta = pi and two random beta rows
    per band limit, at 40 random (gamma, alpha) nodes each at L = 32 and
    14 below (oracles.outer_column_sum).
    """
    rng = np.random.default_rng(6)
    nodes = np.random.default_rng(60)
    inverse = forward = 0.0
    sampled = 0
    for L in (4, 8, 16, 32):
        w = oracles.random_curvelet_wigner_coeffs(L, rng)
        grid = scurve.SO3Grid(L)
        sig = scurve.so3_inverse_curvelet(w, grid)
        for b in [L - 1, *nodes.choice(L - 1, 2, replace=False).tolist()]:
            ga = nodes.integers(0, 2 * L - 1, (40 if L == 32 else 14, 2))
            exact = oracles.outer_column_sum(w, b, ga.tolist())
            inverse = max(inverse, float(np.abs(sig.values[ga[:, 0], b, ga[:, 1]] - exact).max()))
            sampled += len(ga)
        wg = oracles.so3_forward_general(sig)
        for ell in range(L):
            forward = max(forward, float(np.abs(wg.planes[ell][:, -1] - w.row(ell)).max()))
            forward = max(forward, float(np.abs(wg.planes[ell][:, 0] - w.row(-ell)).max()))
        dense_sig = oracles.so3_inverse_general(oracles.densify(w), grid)
        wc = scurve.so3_forward_curvelet(dense_sig)
        forward = max(forward, float(np.abs(wc.values - w.values).max()))
    report(
        capsys,
        "criterion 6c (sparse vs dense rotation-group transforms)",
        max(inverse, forward) <= 1e-10,
        f"max deviation {inverse:.3e} inverse (vs 30-digit sums at {sampled} nodes), "
        f"{forward:.3e} forward, for L up to 32, tolerance 1e-10",
    )


def test_6d_sphere_inverse_vs_direct_sum(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for L in (4, 8, 16):
        for spin in (0, 1, 2):
            flm = scurve.random_coeffs(L, spin, rng)
            fast = scurve.sht_inverse(flm).values
            direct = oracles.direct_sht_inverse(flm).values
            worst = max(worst, float(np.abs(fast - direct).max()))
    report(
        capsys,
        "criterion 6d (sphere synthesis vs direct summation)",
        worst <= 1e-10,
        f"max deviation {worst:.3e} for L up to 16, spins 0..2, tolerance 1e-10",
    )


def test_6e_pole_frame_field_vs_inner_products(capsys):
    rng = np.random.default_rng(8)
    L, j = 8, 2
    t = tile(L, 0, j0=0)
    flm = scurve.random_coeffs(L, 0, rng)
    out = oracles.analyze_north_validation(scurve.sht_inverse(flm), t, j)
    rows = oracles.pole_frame_rows(t, j)
    grid = out.grid
    worst = 0.0
    picks = lambda n: (0, n // 2, n - 1)
    for gi in picks(2 * grid.L - 1):
        for bi in picks(grid.L):
            for ai in picks(2 * grid.L - 1):
                node = (grid.alphas[ai], grid.betas[bi], grid.gammas[gi])
                psi = oracles.coeffs_from_rows(oracles.rotate_rows(rows, node), L, 0)
                ref = oracles.sphere_inner_product(flm, psi)
                worst = max(worst, abs(out.values[gi, bi, ai] - ref))
    report(
        capsys,
        "criterion 6e (pole-frame field vs inner-product quadrature)",
        worst <= 1e-8,
        f"max deviation {worst:.3e} at 27 rotations, L=8, tolerance 1e-8",
    )


def test_7_rotation_unitarity(capsys):
    rng = np.random.default_rng(9)
    worst_trip = 0.0
    worst_energy = 0.0
    for L, spin in ((8, 0), (16, 2), (32, 0), (64, 2)):
        t = tile(L, spin, j0=1)
        f = scurve.sht_inverse(scurve.random_coeffs(L, spin, rng))
        c = scurve.analyze(f, t)
        for j in range(1, t.params.j_max + 1):
            w = scurve.so3_forward_curvelet(c.scale(j))
            dense = scurve.rotate_to_north(w, j, t)
            back = scurve.rotate_from_north(dense, j, t)
            worst_trip = max(worst_trip, float(np.abs(back.values - w.values).max()))
            cc = w.band_limit - 1
            for ell in range(w.band_limit):
                per_m_dense = (np.abs(dense.planes[ell]) ** 2).sum(axis=1)
                seg = w.values[:, ell, cc - ell : cc + ell + 1]
                per_m_sparse = (np.abs(seg) ** 2).sum(axis=0)
                worst_energy = max(
                    worst_energy, float(np.abs(per_m_dense - per_m_sparse).max())
                )
    ok = worst_trip <= 1e-12 and worst_energy <= 1e-12
    report(
        capsys,
        "criterion 7 (frame rotation unitarity)",
        ok,
        f"round-trip error {worst_trip:.3e}, per-degree energy drift "
        f"{worst_energy:.3e} for L up to 64, tolerance 1e-12",
    )


def test_8_edge_map_sparsity(capsys):
    L = 128
    grid = scurve.SphereGrid(L)
    theta = grid.thetas[:, None]
    phi = grid.phis[None, :]
    tilt, az = 1.0, 0.7
    height = np.cos(theta) * np.cos(tilt) + np.sin(theta) * np.sin(tilt) * np.cos(
        phi - az
    )
    edge = scurve.SphereSignal(grid, 0, np.where(height > 0, 1.0, 0.0).astype(complex))
    flm = scurve.sht_forward(edge)

    rng = np.random.default_rng(10)
    noise = scurve.random_coeffs(L, 0, rng)
    energy = float((np.abs(flm.values) ** 2).sum())
    scaled = noise.values * math.sqrt(energy / (np.abs(noise.values) ** 2).sum())
    noise = scurve.HarmonicCoeffs(L, 0, scaled)

    t = tile(L, 0)
    finest = t.params.j_max

    def finest_gini(coeffs):
        c = scurve.analyze(scurve.sht_inverse(coeffs), t)
        return gini_coefficient(np.abs(c.scale(finest).values).ravel())

    g_edge = finest_gini(flm)
    g_noise = finest_gini(noise)
    report(
        capsys,
        "criterion 8 (edge map concentrates in few coefficients)",
        g_edge > g_noise,
        f"finest-scale Gini {g_edge:.4f} for the edge map vs {g_noise:.4f} "
        f"for equal-energy noise at L=128",
    )
