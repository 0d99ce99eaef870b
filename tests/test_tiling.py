"""Overlapping-square covers: coordinates, ordering, coverage."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import square_count
from oacm import ParameterError, TilingParams, square_locations
from oacm.tiling import _MAX_PIXELS


@st.composite
def tiling_params(draw, max_dim=600):
    height = draw(st.integers(1, max_dim))
    width = draw(st.integers(1, max_dim))
    size = draw(st.integers(1, min(height, width)))
    overlap = draw(st.integers(0, size - 1))
    return TilingParams(height, width, size, overlap)


class TestParams:
    def test_step(self):
        assert TilingParams(512, 512, 100, 25).step == 75

    def test_square_too_large(self):
        with pytest.raises(ParameterError):
            TilingParams(10, 20, 11, 0)

    def test_overlap_must_be_smaller_than_square(self):
        with pytest.raises(ParameterError):
            TilingParams(10, 10, 5, 5)
        with pytest.raises(ParameterError):
            TilingParams(10, 10, 5, -1)

    def test_pixel_limit(self):
        # int32 index scratch must hold every pixel index and every
        # difference of two of them
        assert _MAX_PIXELS == np.iinfo(np.int32).max
        assert TilingParams(1, _MAX_PIXELS, 1, 0).width == _MAX_PIXELS
        assert TilingParams(_MAX_PIXELS, 1, 1, 0).height == _MAX_PIXELS
        with pytest.raises(ParameterError, match="pixels exceeds the limit"):
            TilingParams(1, _MAX_PIXELS + 1, 1, 0)
        with pytest.raises(ParameterError, match="pixels exceeds the limit"):
            TilingParams(46341, 46341, 8, 0)  # 46341**2 = 2**31 + 4,633

    def test_dimensions_positive(self):
        with pytest.raises(ParameterError):
            TilingParams(0, 10, 1, 0)


class TestSquareLocations:
    def test_four_corner_cover(self):
        tiling = square_locations(TilingParams(256, 256, 192, 128))
        assert tiling.squares == ((0, 0), (64, 0), (0, 64), (64, 64))

    def test_two_square_cover(self):
        tiling = square_locations(TilingParams(1080, 1920, 1080, 240))
        assert tiling.squares == ((0, 0), (840, 0))

    def test_square_image_single_square(self):
        for overlap in (0, 3, 90):
            tiling = square_locations(TilingParams(100, 100, 100, overlap))
            assert tiling.squares == ((0, 0),)

    def test_counts(self):
        assert square_count(TilingParams(256, 256, 192, 128)) == 4
        assert square_count(TilingParams(1080, 1920, 1080, 240)) == 2
        assert square_count(TilingParams(512, 512, 100, 25)) == 49

    def test_known_axis_coordinates(self):
        tiling = square_locations(TilingParams(512, 512, 100, 25))
        xs = sorted({x for x, _ in tiling.squares})
        ys = sorted({y for _, y in tiling.squares})
        assert xs == ys == [0, 75, 150, 225, 300, 375, 412]

    @given(tiling_params())
    def test_coverage(self, params):
        tiling = square_locations(params)
        covered = np.zeros((params.height, params.width), dtype=bool)
        s = params.square_size
        for x, y in tiling.squares:
            covered[y : y + s, x : x + s] = True
        assert covered.all()

    @given(tiling_params())
    def test_squares_inside_image(self, params):
        tiling = square_locations(params)
        for x, y in tiling.squares:
            assert 0 <= x <= params.width - params.square_size
            assert 0 <= y <= params.height - params.square_size

    @given(tiling_params())
    def test_row_major_order_no_duplicates(self, params):
        squares = square_locations(params).squares
        assert len(set(squares)) == len(squares)
        assert list(squares) == sorted(squares, key=lambda sq: (sq[1], sq[0]))

    @given(tiling_params())
    def test_axis_spacing(self, params):
        # Regular coordinates sit exactly one step apart; the flush square
        # appended at the far edge may close a smaller gap.
        tiling = square_locations(params)
        for axis, length in ((0, params.width), (1, params.height)):
            coords = sorted({sq[axis] for sq in tiling.squares})
            assert coords[0] == 0
            assert coords[-1] == length - params.square_size
            gaps = [b - a for a, b in zip(coords, coords[1:])]
            assert all(g == params.step for g in gaps[:-1])
            if gaps:
                assert 0 < gaps[-1] <= params.step

    def test_deterministic(self):
        params = TilingParams(123, 456, 50, 7)
        assert square_locations(params) == square_locations(params)

    def test_json_form(self):
        tiling = square_locations(TilingParams(256, 256, 192, 128))
        data = json.loads(tiling.to_json())
        assert data == {
            "height": 256,
            "width": 256,
            "square_size": 192,
            "overlap": 128,
            "squares": [[0, 0], [64, 0], [0, 64], [64, 64]],
        }
