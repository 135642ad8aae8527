"""Harmonic-space curvelet tiling.

A tiling splits the harmonic line ell < L into logarithmically spaced
bands: smooth kernels built from an infinitely differentiable bump, a
scaling function that absorbs everything below the coarsest band, and a
two-entry directionality pattern concentrated on m = +-ell.  The bands
telescope, so the whole system resolves the identity; the residual of
that identity is the construction's figure of merit and anything above
1e-8 is treated as failure.

The kernels come from one cumulative quadrature pass per build, with no
state kept between builds: a tiling depends only on its TilingParams, so
the same parameters give bitwise the same arrays in any process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wigner import alt_sign

__all__ = [
    "FwhmReport",
    "ParabolicRow",
    "QuadratureError",
    "Tiling",
    "TilingError",
    "TilingParams",
    "admissibility_residual",
    "build_tiling",
    "curvelet_harmonics",
    "fwhm_report",
    "parabolic_accuracy_table",
    "schwartz_s",
    "smooth_step_k",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class TilingError(RuntimeError):
    """Tiling construction produced an inadmissible system."""


def schwartz_s(t: float) -> float:
    """Smooth compactly supported bump exp(-1/(1-t^2)) on (-1, 1), else 0."""
    t = float(t)
    if abs(t) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - t * t))


def _bump_sq(lam: float, u: np.ndarray) -> np.ndarray:
    """Squared dilated bump as a function of u = log t."""
    t = np.exp(u)
    x = (2.0 * lam / (lam - 1.0)) * (t - 1.0 / lam) - 1.0
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-2.0 / (1.0 - xi * xi))
    return out


def _composite_simpson(lam: float, lo: float, hi: float, panels: int) -> float:
    u = np.linspace(lo, hi, panels + 1)
    g = _bump_sq(lam, u)
    h = (hi - lo) / panels
    return (h / 3.0) * (g[0] + g[-1] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-2:2].sum())


def _segment_integral(lam, lo, hi, abs_tol=None, rel_tol=None, max_refine=16):
    """Simpson with panel doubling until the Richardson estimate converges.

    Coarse panels can all miss a narrow bump, so a zero estimate converges
    only where the integrand is zero in floating point at the point of
    [lo, hi] nearest the bump's peak; elsewhere refinement goes on.
    """
    if hi <= lo:
        return 0.0
    # The bump peaks at x = 0, that is t = (lam + 1) / (2 lam).
    peak = math.log(0.5 + 0.5 / lam)
    positive = _bump_sq(lam, np.array([min(max(peak, lo), hi)]))[0] > 0.0
    panels = 8
    prev = _composite_simpson(lam, lo, hi, panels)
    for _ in range(max_refine):
        panels *= 2
        cur = _composite_simpson(lam, lo, hi, panels)
        gate = abs_tol if abs_tol is not None else rel_tol * abs(cur)
        if abs(cur - prev) <= 15.0 * gate and (cur > 0.0 or not positive):
            return cur
        prev = cur
    raise QuadratureError(
        f"quadrature on [{lo:.6g}, {hi:.6g}] did not converge for lambda={lam}"
    )


_TOL = 1e-12


def _smooth_steps(lam: float, ts) -> np.ndarray:
    """k_lambda at every t in ts, from one cumulative quadrature pass.

    k_lambda(t) is the integral of s_lam(t')^2 dt'/t' from t to 1 over the
    same integral from 1/lambda to 1: exactly 1 at t <= 1/lambda and 0 at
    t >= 1.  The distinct points between split that range into gaps; each
    gap is integrated once and the gaps are summed from t = 1 downward, so
    the values depend only on lambda and ts.
    """
    ts = np.asarray(ts, dtype=float)
    if 2.0 * lam / (lam - 1.0) == 2.0:
        # From about lambda = 2**53 the bump's scale factor rounds to 2,
        # so lambda no longer shapes the bump that the steps integrate.
        raise QuadratureError(
            f"lambda={lam} is beyond what the squared bump resolves in double precision"
        )
    den = _segment_integral(lam, math.log(1.0 / lam), 0.0, rel_tol=_TOL)
    if not 0.0 < den < math.inf:
        raise QuadratureError(
            f"the squared bump integrates to {den} for lambda={lam}; cannot normalise the step"
        )
    knots, where = np.unique(ts, return_inverse=True)
    vals = (knots <= 1.0 / lam).astype(float)
    mid = (knots > 1.0 / lam) & (knots < 1.0)
    logs = np.log(np.r_[knots[mid], 1.0])[::-1]
    gaps = [_segment_integral(lam, lo, hi, abs_tol=_TOL * den) for hi, lo in zip(logs, logs[1:])]
    vals[mid] = np.cumsum(gaps)[::-1] / den
    return np.clip(vals, 0.0, 1.0)[where].reshape(ts.shape)


def smooth_step_k(lam: float, t: float) -> float:
    """Smooth step from 1 (at t <= 1/lambda) down to 0 (at t >= 1)."""
    lam = float(lam)
    if not 1.0 < lam < math.inf:
        raise ValueError(f"dilation parameter must be finite and exceed 1, got {lam}")
    return float(_smooth_steps(lam, float(t)))


def _default_max_scale(L: int, lam: float) -> int:
    # In log space: lam ** j overflows for a huge finite lam.
    j = 0
    if L > 2:
        j = max(0, math.ceil(math.log(L - 1) / math.log(lam) - 1e-9))
    while (j + 1) * math.log(lam) < math.log(L):
        j += 1
    return j


@dataclass(frozen=True)
class TilingParams:
    """Band limit, spin, dilation and scale range of one curvelet system.

    j_max defaults to the smallest depth whose finest kernel still covers
    degree L-1.
    """

    band_limit: int
    spin: int = 0
    lam: float = 2.0
    j_min: int = 0
    j_max: int = -1

    def __post_init__(self):
        L = self.band_limit
        if L < 1:
            raise ValueError(f"band limit must be positive, got {L}")
        if abs(self.spin) >= L:
            raise ValueError(f"spin {self.spin} out of range for band limit {L}")
        if not 1.0 < self.lam < math.inf:
            raise ValueError(f"dilation parameter must be finite and exceed 1, got {self.lam}")
        if self.j_min < 0:
            raise ValueError(f"j_min must be non-negative, got {self.j_min}")
        if self.j_max < 0:
            object.__setattr__(self, "j_max", _default_max_scale(L, self.lam))
        if self.j_max < self.j_min:
            raise ValueError(f"j_max {self.j_max} below j_min {self.j_min}")
        # The finest kernel, supported on (lam^(j_max-1), lam^(j_max+1)),
        # must reach degree L-1; compared in log space with 1e-12 slack.
        log_lam, log_L = math.log(self.lam), math.log(L)
        if not (self.j_max - 1) * log_lam < log_L + 1e-12:
            raise ValueError(f"j_max {self.j_max} too deep for band limit {L}")
        if not log_L <= (self.j_max + 1) * log_lam + 1e-12:
            raise ValueError(f"j_max {self.j_max} too shallow for band limit {L}")

    @property
    def scale_count(self) -> int:
        return self.j_max - self.j_min + 1


@dataclass(frozen=True)
class Tiling:
    """Constructed curvelet system; a passive container of real arrays.

    kernels[j - j_min, ell] is the band profile of scale j; scaling[ell]
    the low-frequency profile (m = 0 only); direction_pos/neg the two
    populated directionality entries at m = +-ell; angles[j - j_min] the
    colatitude each scale is rotated through when centred on a pole.
    """

    params: TilingParams
    kernels: np.ndarray
    scaling: np.ndarray
    direction_pos: np.ndarray
    direction_neg: np.ndarray
    angles: np.ndarray


def build_tiling(params: TilingParams) -> Tiling:
    """Construct the tiling and verify it resolves the identity.

    Row r of the step grid holds k_lambda(ell / lambda^(j_min + r)); each
    kernel is the root of the difference of adjacent rows and the scaling
    function comes from row 0, so the identity telescopes to round-off.
    """
    p = params
    L = p.band_limit
    lam = p.lam
    ells = np.arange(L, dtype=float)
    js = np.arange(p.j_min, p.j_max + 2, dtype=float)
    steps = _smooth_steps(lam, ells * lam ** -js[:, None])
    kernels = np.sqrt(np.maximum(steps[1:] - steps[:-1], 0.0))
    scaling = np.sqrt((2.0 * ells + 1.0) / (4.0 * math.pi)) * np.sqrt(steps[0])
    root_half = 1.0 / math.sqrt(2.0)
    direction_pos = np.zeros(L)
    direction_neg = np.zeros(L)
    if L > 1:
        direction_pos[1:] = root_half
        direction_neg[1:] = alt_sign(np.arange(1, L)) * root_half
    args = np.clip(-float(p.spin) / lam ** js[:-1], -1.0, 1.0)
    angles = np.clip(np.arccos(args), 0.5 * math.pi, math.pi)
    for arr in (kernels, scaling, direction_pos, direction_neg, angles):
        arr.setflags(write=False)
    tiling = Tiling(p, kernels, scaling, direction_pos, direction_neg, angles)
    residual = admissibility_residual(tiling)
    if not residual <= 1e-8:
        raise TilingError(
            f"admissibility residual {residual:.3e} exceeds 1e-8; "
            f"scale range [{p.j_min}, {p.j_max}] cannot tile band limit {L}"
        )
    return tiling


def curvelet_harmonics(t: Tiling, j: int):
    """The two populated m-planes of the unrotated scale-j analysis function.

    Returns (psi_pos, psi_neg): real arrays over ell < L holding the
    m = +ell and m = -ell coefficients.
    """
    p = t.params
    if not p.j_min <= j <= p.j_max:
        raise ValueError(f"scale {j} outside [{p.j_min}, {p.j_max}]")
    ells = np.arange(p.band_limit, dtype=float)
    amp = np.sqrt((2.0 * ells + 1.0) / (8.0 * math.pi**2)) * t.kernels[j - p.j_min]
    return amp * t.direction_pos, amp * t.direction_neg


def admissibility_residual(t: Tiling) -> float:
    """Worst-degree deviation of the tiling from resolving the identity."""
    L = t.params.band_limit
    ells = np.arange(L, dtype=float)
    total = (4.0 * math.pi / (2.0 * ells + 1.0)) * t.scaling**2
    for j in range(t.params.j_min, t.params.j_max + 1):
        pos, neg = curvelet_harmonics(t, j)
        total += (8.0 * math.pi**2 / (2.0 * ells + 1.0)) * (pos**2 + neg**2)
    return float(np.max(np.abs(total - 1.0)))


def _log_ridge(ell: int, s: int, theta: float) -> float:
    """log |d^ell_{ell,(-s)}|(theta) up to its constant: the ridge profile."""
    half = 0.5 * theta
    sh, ch = math.sin(half), math.cos(half)
    if sh <= 0.0 or ch <= 0.0:
        if (sh <= 0.0 and ell + s > 0) or (ch <= 0.0 and ell - s > 0):
            return -math.inf
        return 0.0
    return (ell + s) * math.log(sh) + (ell - s) * math.log(ch)


def _half_crossing(ell, s, target, lo, hi, rising, tol=1e-12):
    """Bisect for log-profile = target on [lo, hi]; profile monotone there."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if (_log_ridge(ell, s, mid) < target) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FwhmReport:
    degree: int
    spin: int
    fwhm_phi: float
    fwhm_theta: float
    theta_max: float
    parabolic_residual: float


def fwhm_report(ell: int, s: int) -> FwhmReport:
    """Angular widths of the ridge profile of the finest-order harmonic.

    fwhm_theta is the full width at half maximum of |d^ell_{ell,(-s)}|
    about its peak at theta_max = arccos(-s/ell), found by bisection on
    each side; when the peak sits on a pole, the available side is
    doubled.  fwhm_phi is the longitudinal width 2*pi/(3*ell).
    """
    ell = int(ell)
    s = int(s)
    if ell < 1:
        raise ValueError(f"degree must be positive, got {ell}")
    if abs(s) > ell:
        raise ValueError(f"spin {s} out of range for degree {ell}")
    fwhm_phi = 2.0 * math.pi / (3.0 * ell)
    theta_max = math.acos(max(-1.0, min(1.0, -s / ell)))
    target = _log_ridge(ell, s, theta_max) - math.log(2.0)
    if s == ell:
        left = _half_crossing(ell, s, target, 0.0, theta_max, rising=True)
        fwhm_theta = 2.0 * (theta_max - left)
    elif s == -ell:
        right = _half_crossing(ell, s, target, theta_max, math.pi, rising=False)
        fwhm_theta = 2.0 * (right - theta_max)
    else:
        left = _half_crossing(ell, s, target, 0.0, theta_max, rising=True)
        right = _half_crossing(ell, s, target, theta_max, math.pi, rising=False)
        fwhm_theta = right - left
    residual = abs(fwhm_theta**2 - fwhm_phi) / fwhm_phi
    return FwhmReport(ell, s, fwhm_phi, fwhm_theta, theta_max, residual)


@dataclass(frozen=True)
class ParabolicRow:
    degree: int
    spin: int
    fwhm_theta: float
    pct_diff: float


def parabolic_accuracy_table(p_max: int = 8) -> list:
    """Ridge-width table over degrees 2^p, p = 1..p_max, and all spins.

    pct_diff is the absolute percentage deviation of fwhm_theta at spin s
    from the spin-0 value at the same degree.
    """
    p_max = int(p_max)
    if not 1 <= p_max <= 8:
        raise ValueError(f"p_max must lie in [1, 8], got {p_max}")
    rows = []
    for p in range(1, p_max + 1):
        ell = 2**p
        base = fwhm_report(ell, 0).fwhm_theta
        for s in range(ell + 1):
            width = fwhm_report(ell, s).fwhm_theta if s else base
            rows.append(ParabolicRow(ell, s, width, 100.0 * abs(width - base) / base))
    return rows
