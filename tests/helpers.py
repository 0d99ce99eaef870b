"""Shared builders for the test modules."""

import numpy as np
from hypothesis import strategies as st

from oacm import (
    AcmParams,
    CycleDecomposition,
    ParameterError,
    Permutation,
    TilingParams,
    build_oacm_permutation,
    inverse_map_matrix,
    map_matrix,
    square_locations,
)
from oacm.permutation import _application_order


def single_square(n):
    """Tiling of an n x n image by one square."""
    return square_locations(TilingParams(n, n, n, 0))


def oacm_perm(h, w, s, o, p=1, q=1, **kw):
    return build_oacm_permutation(square_locations(TilingParams(h, w, s, o)), p, q, **kw)


def mask_build_reference(tiling, p, q, *, inverse=False):
    """The map applied as a map: every pixel is tested against every square.

    O(squares x pixels); kept as the oracle for build_oacm_permutation.
    """
    if p < 0 or q < 0:
        raise ParameterError(f"p and q must be non-negative, got p={p}, q={q}")
    params = tiling.params
    h, w, s = params.height, params.width, params.square_size
    mat = (inverse_map_matrix if inverse else map_matrix)(AcmParams(p, q, s))
    order = _application_order(tiling)
    if inverse:
        order.reverse()

    xs, ys = np.meshgrid(np.arange(w, dtype=np.int64), np.arange(h, dtype=np.int64))
    xs = xs.ravel()
    ys = ys.ravel()
    for x0, y0 in order:
        inside = (xs >= x0) & (xs < x0 + s) & (ys >= y0) & (ys < y0 + s)
        lx = xs[inside] - x0
        ly = ys[inside] - y0
        xs[inside] = x0 + (mat.a * lx + mat.b * ly) % s
        ys[inside] = y0 + (mat.c * lx + mat.d * ly) % s
    return Permutation(h, w, ys * w + xs)


def synthetic_cycles(lengths):
    """A decomposition with the given cycle lengths on a 1-wide image."""
    n = sum(lengths)
    starts = np.cumsum([0] + list(lengths))
    return CycleDecomposition(n, 1, np.arange(n, dtype=np.int64), starts.astype(np.int64))


@st.composite
def small_configs(draw, max_pixels=1024):
    height = draw(st.integers(1, 32))
    width = draw(st.integers(1, max(1, max_pixels // height)))
    size = draw(st.integers(1, min(height, width)))
    overlap = draw(st.integers(0, size - 1))
    p = draw(st.integers(0, 5))
    q = draw(st.integers(0, 5))
    return height, width, size, overlap, p, q
