"""Pins the package's public API, so a name added or dropped is a visible edit."""

import importlib
import inspect

import pytest

import scurve

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
    "so3_inverse_curvelet",
    "so3_inverse_curvelet_real",
    "synthesize",
    "synthesize_real",
    "wigner_d_edge_columns",
    "wigner_d_matrix",
    "write_coeffs",
    "write_sphere",
]


# The __all__ of every layer, in its module's order.
LAYER_NAMES = {
    "cli": ["gini_coefficient", "main"],
    "container": [
        "MAGIC",
        "ContainerError",
        "read_coeffs",
        "read_container",
        "read_pgm",
        "read_sphere",
        "resample_to_sphere",
        "write_coeffs",
        "write_sphere",
    ],
    "fourier": ["fft_workers", "weighted_convolve"],
    "so3": [
        "CurveletWignerCoeffs",
        "SO3Grid",
        "SO3Signal",
        "WignerCoeffs",
        "so3_forward_curvelet",
        "so3_forward_curvelet_real",
        "so3_inverse_curvelet",
        "so3_inverse_curvelet_real",
    ],
    "sphere": [
        "HarmonicCoeffs",
        "SphereGrid",
        "SphereSignal",
        "lm_index",
        "random_coeffs",
        "sht_forward",
        "sht_forward_real",
        "sht_inverse",
        "sht_inverse_real",
    ],
    "tiling": [
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
    ],
    "transform": [
        "CurveletCoeffs",
        "analyze",
        "analyze_real",
        "rotate_from_north",
        "rotate_to_north",
        "scale_band_limit",
        "scaling_band_limit",
        "synthesize",
        "synthesize_real",
    ],
    "wigner": [
        "HalfPiTable",
        "build_halfpi_table",
        "halfpi_table",
        "quadrature_weight",
        "wigner_d_matrix",
        "wigner_d_edge_columns",
    ],
}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 53
    assert scurve.__all__ == PUBLIC


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_are_pinned(layer):
    assert sorted(LAYER_NAMES) == LAYERS
    assert importlib.import_module(f"scurve.{layer}").__all__ == LAYER_NAMES[layer]


# Parameter lists kept free of tuning knobs (quadrature tolerance, extra
# header keys, convolution layouts); adding a parameter to one of these is
# a visible edit here.  A dotted name is looked up in that layer.
SIGNATURES = {
    "build_tiling": ["params"],
    "smooth_step_k": ["lam", "t"],
    "write_sphere": ["path", "signal"],
    "write_coeffs": ["path", "coeffs"],
    "fourier.weighted_convolve": ["buf", "h", "L"],
    "so3.so3_forward_curvelet": ["f", "L0"],
    "so3.so3_forward_curvelet_real": ["f", "L0"],
    "so3.so3_inverse_curvelet": ["w", "grid", "sink"],
    "so3.so3_inverse_curvelet_real": ["w", "grid", "sink"],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_pinned_signatures(name):
    layer, _, attr = name.rpartition(".")
    module = importlib.import_module(f"scurve.{layer}") if layer else scurve
    params = inspect.signature(getattr(module, attr)).parameters
    assert list(params) == SIGNATURES[name]


@pytest.mark.parametrize(
    "modname", ["scurve", *(f"scurve.{m}" for m in LAYERS)]
)
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
