"""Exact directional multiscale transforms for band-limited signals on the sphere.

The package decomposes spin signals sampled on an equiangular grid into
directionally sensitive scale signals living on the rotation group, plus
a low-frequency residue on the sphere, and reconstructs the input to
machine precision.  Supporting layers (rotation-matrix tables, sphere and
rotation-group harmonic transforms, the harmonic tiling, a binary
container format and a CLI) are importable on their own.
"""

from .container import (
    ContainerError,
    read_coeffs,
    read_container,
    read_pgm,
    read_sphere,
    resample_to_sphere,
    write_coeffs,
    write_sphere,
)
from .so3 import (
    CurveletWignerCoeffs,
    SO3Grid,
    SO3Signal,
    WignerCoeffs,
    so3_forward_curvelet,
    so3_forward_curvelet_real,
    so3_inverse_curvelet,
    so3_inverse_curvelet_real,
)
from .sphere import (
    HarmonicCoeffs,
    SphereGrid,
    SphereSignal,
    lm_index,
    random_coeffs,
    sht_forward,
    sht_forward_real,
    sht_inverse,
    sht_inverse_real,
)
from .tiling import (
    FwhmReport,
    ParabolicRow,
    QuadratureError,
    Tiling,
    TilingError,
    TilingParams,
    admissibility_residual,
    build_tiling,
    curvelet_harmonics,
    fwhm_report,
    parabolic_accuracy_table,
    schwartz_s,
    smooth_step_k,
)
from .transform import (
    CurveletCoeffs,
    analyze,
    analyze_real,
    rotate_from_north,
    rotate_to_north,
    scale_band_limit,
    scaling_band_limit,
    synthesize,
    synthesize_real,
)
from .wigner import (
    HalfPiTable,
    build_halfpi_table,
    halfpi_table,
    quadrature_weight,
    wigner_d_edge_columns,
    wigner_d_matrix,
)

__version__ = "0.1.0"

__all__ = [
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
