"""The package's public names: one per capability, pinned so that none
comes back unnoticed."""

import oacm
import oacm.errors

PUBLIC_NAMES = [
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


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 35
    assert sorted(oacm.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert hasattr(oacm, name), name


def test_one_error_class_per_exit_code():
    # ParameterError exits 2 and ImageFormatError exits 3 in the CLI
    defined = [
        name for name, value in vars(oacm.errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    ]
    assert sorted(defined) == ["ImageFormatError", "OacmError", "ParameterError", "PeriodSearchError"]
