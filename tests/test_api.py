"""Pins the package's public API, so a name added or dropped is a visible edit."""

import importlib
import inspect

import pytest

import scurve
from scurve import fourier

LAYERS = ["cli", "container", "fourier", "so3", "sphere", "tiling", "transform", "wigner"]

PUBLIC = [
    "ContainerError",
    "CurveletCoeffs",
    "CurveletWignerCoeffs",
    "FwhmReport",
    "HalfPiTable",
    "HarmonicCoeffs",
    "ParabolicRow",
    "QuadratureError",
    "SO3Grid",
    "SO3Signal",
    "SphereGrid",
    "SphereSignal",
    "Tiling",
    "TilingError",
    "TilingParams",
    "WignerCoeffs",
    "admissibility_residual",
    "analyze",
    "analyze_real",
    "build_halfpi_table",
    "build_tiling",
    "curvelet_harmonics",
    "fwhm_report",
    "halfpi_table",
    "lm_index",
    "parabolic_accuracy_table",
    "quadrature_weight",
    "random_coeffs",
    "read_coeffs",
    "read_container",
    "read_pgm",
    "read_sphere",
    "resample_to_sphere",
    "rotate_from_north",
    "rotate_to_north",
    "scale_band_limit",
    "scaling_band_limit",
    "schwartz_s",
    "sht_forward",
    "sht_forward_real",
    "sht_inverse",
    "sht_inverse_real",
    "smooth_step_k",
    "so3_forward_curvelet",
    "so3_forward_curvelet_real",
    "so3_forward_general",
    "so3_inverse_curvelet",
    "so3_inverse_curvelet_real",
    "so3_inverse_general",
    "synthesize",
    "synthesize_real",
    "wigner_d_edge_columns",
    "wigner_d_matrix",
    "write_coeffs",
    "write_sphere",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 55
    assert scurve.__all__ == PUBLIC
    assert fourier.__all__ == ["fft_workers", "weighted_convolve"]


# Parameter lists kept free of tuning knobs (quadrature tolerance, extra
# header keys); adding a parameter to one of these is a visible edit here.
SIGNATURES = {
    "build_tiling": ["params"],
    "smooth_step_k": ["lam", "t"],
    "write_sphere": ["path", "signal"],
    "write_coeffs": ["path", "coeffs"],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_pinned_signatures(name):
    params = inspect.signature(getattr(scurve, name)).parameters
    assert list(params) == SIGNATURES[name]


@pytest.mark.parametrize(
    "modname", ["scurve", *(f"scurve.{m}" for m in LAYERS)]
)
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
