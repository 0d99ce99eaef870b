"""Cat-map image scrambling over overlapping square partitions.

The pipeline: tile the image with overlapping squares, run the cat map
once on every square to get a single permutation of the pixel indices,
decompose that permutation into orbits, and then any number of
iterations (even astronomically many) is a single sweep over the pixels.
Exact periods, orbit histograms, similarity curves and the Landau-function
period bound are computed from the same decomposition.
"""

from .acm import AcmParams, map_matrix, matrix_period
from .analysis import (
    OrbitHistogram,
    SimilarityCurve,
    image_period,
    orbit_histogram,
    similarity_at,
    similarity_curve,
    write_histogram_csv,
    write_similarity_csv,
)
from .bigfmt import scientific
from .errors import ImageFormatError, OacmError, ParameterError, PeriodSearchError
from .images import (
    KeyConfig,
    RasterImage,
    descramble,
    read_image,
    scramble,
    shift_pixels,
    write_image,
)
from .landau import LandauResult, landau_g, period_bound_for_image
from .permutation import (
    CycleDecomposition,
    Permutation,
    apply_iterations,
    build_oacm_permutation,
    cycle_decompose,
    cycles_for,
)
from .tiling import Tiling, TilingParams, square_locations

__all__ = [
    "AcmParams",
    "CycleDecomposition",
    "ImageFormatError",
    "KeyConfig",
    "LandauResult",
    "OacmError",
    "OrbitHistogram",
    "ParameterError",
    "PeriodSearchError",
    "Permutation",
    "RasterImage",
    "SimilarityCurve",
    "Tiling",
    "TilingParams",
    "apply_iterations",
    "build_oacm_permutation",
    "cycle_decompose",
    "cycles_for",
    "descramble",
    "image_period",
    "landau_g",
    "map_matrix",
    "matrix_period",
    "orbit_histogram",
    "period_bound_for_image",
    "read_image",
    "scientific",
    "scramble",
    "shift_pixels",
    "similarity_at",
    "similarity_curve",
    "square_locations",
    "write_histogram_csv",
    "write_image",
    "write_similarity_csv",
]
