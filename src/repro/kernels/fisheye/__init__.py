"""Fisheye lens-correction benchmark (paper Section 4.1.3)."""

from .analysis import (
    BicubicAnalysis,
    InverseMappingAnalysis,
    analyse_bicubic,
    analyse_inverse_mapping,
    coordinate_significance_map,
)
from .bicubic import (
    PIXEL_PAIRS,
    bicubic_interp,
    bicubic_sample,
    bilinear_sample,
    cubic_weights,
)
from .geometry import LensConfig, inverse_map_grid, inverse_map_point
from .perforated import fisheye_perforated
from .sequential import default_config, fisheye_reference, make_fisheye_input
from .tasks import block_significance, fisheye_significance

__all__ = [
    "LensConfig",
    "default_config",
    "inverse_map_point",
    "inverse_map_grid",
    "cubic_weights",
    "bicubic_interp",
    "bicubic_sample",
    "bilinear_sample",
    "PIXEL_PAIRS",
    "make_fisheye_input",
    "fisheye_reference",
    "fisheye_significance",
    "fisheye_perforated",
    "block_significance",
    "analyse_inverse_mapping",
    "analyse_bicubic",
    "coordinate_significance_map",
    "InverseMappingAnalysis",
    "BicubicAnalysis",
]
