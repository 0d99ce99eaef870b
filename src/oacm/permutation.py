"""One-pass scramble permutations and their cycle structure.

A pass applies the cat map to every square of a tiling in sequence, which
yields a single bijection on pixel indices (row-major, index = y*width + x).
Decomposing that bijection into orbits turns repeated scrambling into a
"scan": z iterations move each pixel z mod L slots along its length-L orbit,
at O(1) cost per pixel regardless of z.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .acm import AcmParams, inverse_map_matrix
from .errors import ParameterError
from .tiling import Tiling, TilingParams, square_locations


@dataclass(frozen=True, eq=False)
class Permutation:
    """Bijection on pixel indices: forward[i] is where pixel i moves to."""

    height: int
    width: int
    forward: np.ndarray

    def __post_init__(self):
        n = self.height * self.width
        fwd = np.ascontiguousarray(self.forward, dtype=np.int64)
        object.__setattr__(self, "forward", fwd)
        if fwd.shape != (n,):
            raise ParameterError(f"forward must have shape ({n},), got {fwd.shape}")
        if n and (np.bincount(fwd, minlength=n) != 1).any():
            raise ParameterError("forward is not a bijection on the pixel index space")

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return (
            self.height == other.height
            and self.width == other.width
            and np.array_equal(self.forward, other.forward)
        )


def _application_order(tiling: Tiling) -> list[tuple[int, int]]:
    """Corners in the order a pass visits them: rows top to bottom, each row
    right to left.

    Orderings of more than two squares are not conjugate to each other, so
    the cycle structure (and every period) depends on this choice; the
    reference periods pinned in the test suite fix it.
    """
    return sorted(tiling.squares, key=lambda sq: (sq[1], -sq[0]))


def build_oacm_permutation(tiling: Tiling, p: int, q: int) -> Permutation:
    """Net permutation of one scramble pass over all squares of the tiling.

    Each square, in _application_order, applies the (p, q) cat map on its
    own local coordinates, with the modulus equal to the square side.
    Descrambling walks the orbits of this same pass backwards.  Each square
    costs one s*s gather, so a pass costs O(sum of s^2) whatever the image
    size.
    """
    params = tiling.params
    h, w, s = params.height, params.width, params.square_size
    inv = inverse_map_matrix(AcmParams(p, q, s))

    # occ[y, x] is the original index of the pixel now at (y, x).  One local
    # gather index serves every square: the new block's slot (ly, lx) reads
    # the old block's flat slot at the inverse image of (lx, ly).
    lx = np.arange(s, dtype=np.int64)
    ly = lx[:, None]
    src = (inv.c * lx + inv.d * ly) % s * s + (inv.a * lx + inv.b * ly) % s

    occ = np.arange(h * w, dtype=np.int64).reshape(h, w)
    for x0, y0 in _application_order(tiling):
        block = occ[y0 : y0 + s, x0 : x0 + s]
        block[...] = np.take(block, src)
    forward = np.empty(h * w, dtype=np.int64)
    forward[occ.ravel()] = np.arange(h * w, dtype=np.int64)
    return Permutation(h, w, forward)


@dataclass(frozen=True, eq=False)
class CycleDecomposition:
    """Orbits of a permutation, stored flat for O(1)-per-pixel iteration.

    order holds every pixel index grouped by cycle, each cycle starting at
    its smallest index and cycles sorted by that index; starts[c] is the
    offset of cycle c in order and lengths[c] its length.
    """

    height: int
    width: int
    order: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lengths", np.diff(self.starts))


def cycle_decompose(perm: Permutation) -> CycleDecomposition:
    """Single-sweep orbit walk over one copy of the pass, which is also the
    visited mask: walking a pixel overwrites its successor with -1."""
    succ = array("q", perm.forward.tobytes())
    order = array("q")
    starts = array("q", [0])
    for i in range(len(succ)):
        if succ[i] < 0:
            continue
        j = i
        while (k := succ[j]) >= 0:
            succ[j] = -1
            order.append(j)
            j = k
        starts.append(len(order))
    return CycleDecomposition(
        perm.height, perm.width, np.frombuffer(order, np.int64), np.frombuffer(starts, np.int64)
    )


def cycles_for(
    height: int, width: int, square_size: int, overlap: int, p: int, q: int
) -> CycleDecomposition:
    """Orbits of one pass: cover the image, build the pass, decompose it.

    The one pipeline entry shared by the library and the CLI.  Each stage
    is called by its module-level name, so bench/spans.py can rebind and
    time it.
    """
    tiling = square_locations(TilingParams(height, width, square_size, overlap))
    return cycle_decompose(build_oacm_permutation(tiling, p, q))


def apply_iterations(cycles: CycleDecomposition, z: int, src: np.ndarray) -> np.ndarray:
    """Move every pixel of a buffer z steps along its orbit.

    The buffer is (N,) for one channel or (N, C) with the C samples of a
    pixel on one row; rows move as a whole.  Equivalent to applying the
    underlying permutation z times; z may be any int, huge or negative
    (negative z walks orbits backwards).  Slot starts[c] + i of cycle c
    moves to slot starts[c] + (i + z) mod lengths[c]; the per-slot index
    arrays are built one at a time and in place.
    """
    src = np.asarray(src)
    n = cycles.height * cycles.width
    if src.ndim not in (1, 2) or src.shape[0] != n:
        raise ParameterError(f"buffer must have shape ({n},) or ({n}, C), got {src.shape}")
    distinct, inv = np.unique(cycles.lengths, return_inverse=True)
    shift = np.array([z % int(d) for d in distinct], dtype=np.int64)[inv]
    dest = np.arange(n, dtype=np.int64)
    dest -= np.repeat(cycles.starts[:-1], cycles.lengths)
    dest += np.repeat(shift, cycles.lengths)
    dest %= np.repeat(cycles.lengths, cycles.lengths)
    dest += np.repeat(cycles.starts[:-1], cycles.lengths)
    dest = cycles.order[dest]
    fwd_z = np.empty_like(dest)
    fwd_z[cycles.order] = dest
    del dest
    out = np.empty_like(src)
    out[fwd_z] = src
    return out


def image_period(cycles: CycleDecomposition) -> int:
    """Exact image period: least common multiple of the orbit lengths."""
    return math.lcm(*{int(l) for l in cycles.lengths}) if cycles.lengths.size else 1
