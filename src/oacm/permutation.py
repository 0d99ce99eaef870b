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

from .acm import AcmParams, map_matrix
from .errors import ParameterError
from .tiling import Tiling, TilingParams, check_pixels, square_locations


@dataclass(frozen=True, eq=False)
class Permutation:
    """Bijection on pixel indices: forward[i] is where pixel i moves to."""

    height: int
    width: int
    forward: np.ndarray

    def __post_init__(self):
        check_pixels(self.height, self.width)
        n = self.height * self.width
        fwd = np.asarray(self.forward)
        if fwd.dtype.kind not in "iu":
            raise ParameterError(f"forward must hold integers, got dtype {fwd.dtype}")
        fwd = np.ascontiguousarray(fwd, dtype=np.int64)
        object.__setattr__(self, "forward", fwd)
        if fwd.shape != (n,):
            raise ParameterError(f"forward must have shape ({n},), got {fwd.shape}")
        if n and not 0 <= fwd.min() <= fwd.max() < n:
            raise ParameterError(f"forward must take values in [0, {n})")
        seen = np.zeros(n, dtype=bool)
        seen[fwd] = True
        if not seen.all():
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


def _outer_mod(rows: np.ndarray, cols: np.ndarray, s: int) -> np.ndarray:
    """rows[:, None] + cols[None, :] mod s, for entries already in [0, s)."""
    out = np.add.outer(rows, cols)
    return np.subtract(out, s, out=out, where=out >= s)


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
    m = map_matrix(AcmParams(p, q, s))

    # Walking the squares backwards, grid[y, x] is where the squares walked
    # so far send the pixel at (y, x): a block reads each slot's forward
    # image, through one local gather index shared by every square.
    lx = np.arange(s)
    src = _outer_mod(m.d * lx % s, m.c * lx % s, s)
    src *= s
    src += _outer_mod(m.b * lx % s, m.a * lx % s, s)

    # int32 scratch: TilingParams refuses pixel counts it cannot index
    grid = np.arange(h * w, dtype=np.int32).reshape(h, w)
    for x0, y0 in reversed(_application_order(tiling)):
        block = grid[y0 : y0 + s, x0 : x0 + s]
        block[...] = np.take(block, src)
    del src  # s*s intp: freed before Permutation copies the grid to int64
    return Permutation(h, w, grid.ravel())


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


# Ruling-set markers: in hashed round r (0 or 1), an unreached pixel i
# becomes a marker when bits 59 - 5r to 63 - 5r of its Fibonacci hash
# i * _MARKER_HASH mod 2**64 are zero, one pixel in 32.  A hash, not a
# stride: markers at multiples of 32 line up with the cat map's lattice and
# leave most orbits without one.
_MARKER_HASH = np.uint64(0x9E3779B97F4A7C15)
_HASHED_ROUNDS = 2
# Steps a walker takes before it stops where it stands; ranks are uint16.
_STEP_CAP = 256


def _is_marker(h: np.ndarray, rnd: int = 0) -> np.ndarray:
    """Whether each pixel index in h (uint64, overwritten with its hash)
    is a hashed marker of round rnd."""
    h *= _MARKER_HASH
    h >>= np.uint64(59 - 5 * rnd)
    h &= np.uint64(31)
    return h == 0


def _lockstep(fwd, is_marker, owner, rank, heads: np.ndarray, first_id: int):
    """Walk from every marker pixel in heads, with ids first_id onwards,
    along fwd in lock-step until each reaches a marker or has taken
    _STEP_CAP steps; record owner and rank of every pixel stepped on.

    Returns per walker the pixel it stopped before and the steps to it.  A
    capped walker stops before its next pixel, which no walker can reach;
    a later round makes it a marker.
    """
    nxt = np.empty(heads.size, dtype=np.int64)
    gap = np.full(heads.size, _STEP_CAP + 1, dtype=np.int64)
    walkers = np.arange(heads.size, dtype=np.int32)
    owner[heads] = walkers + first_id
    pos = heads
    for step in range(1, _STEP_CAP + 1):
        if not walkers.size:
            break
        pos = fwd[pos]
        stop = is_marker[pos]
        nxt[walkers[stop]] = pos[stop]
        gap[walkers[stop]] = step
        go = ~stop
        pos = pos[go]
        walkers = walkers[go]
        owner[pos] = walkers + first_id
        rank[pos] = step
    nxt[walkers] = fwd[pos]
    return nxt, gap


def _ruling_set(fwd: np.ndarray):
    """Steps 1 and 2 of cycle_decompose.

    Returns, per pixel, owner (the marker it hangs off, as a marker id) and
    rank (steps from that marker), and per marker id, succ (the next
    marker) and gap (steps to it).  Marker ids run round by round, each
    round in pixel order.
    """
    n = fwd.size
    # hash first: its n-sized scratch is freed before the per-pixel arrays exist
    heads = np.flatnonzero(_is_marker(np.arange(n, dtype=np.uint64)))
    owner = np.full(n, -1, dtype=np.int32)
    rank = np.zeros(n, dtype=np.uint16)
    is_marker = np.zeros(n, dtype=bool)
    nxts, gaps = [], []
    k = 0  # markers so far
    for rnd in range(_HASHED_ROUNDS):
        if rnd:
            heads = rest[_is_marker(rest.astype(np.uint64), rnd)]
        is_marker[heads] = True
        nxt, gap = _lockstep(fwd, is_marker, owner, rank, heads, k)
        nxts.append(nxt)
        gaps.append(gap)
        k += heads.size
        rest = np.flatnonzero(owner < 0)
    # every pixel still unreached is a marker one step from its successor
    owner[rest] = np.arange(k, k + rest.size, dtype=np.int32)
    succ = owner[np.concatenate((*nxts, fwd[rest]))]
    gap = np.concatenate((*gaps, np.ones(rest.size, dtype=np.int64)))
    return owner, rank, succ, gap


def _walk(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the bijection succ as (order, starts), cycles in no
    particular order.

    Cycles of one and two nodes are closed in numpy.  The rest take one
    self-marking walk: a copy of succ is also the visited mask, walking a
    node overwrites its successor with -1.
    """
    ids = np.arange(succ.size)
    loops = np.flatnonzero(succ == ids)
    pairs = np.flatnonzero((succ[succ] == ids) & (succ > ids))
    short = np.concatenate((loops, np.stack((pairs, succ[pairs]), axis=1).ravel()))
    visited = succ.astype(np.int64)
    visited[short] = -1
    nxt = array("q", visited.tobytes())
    del ids, visited
    order = array("q")
    starts = array("q", [0])
    visit, close = order.append, starts.append
    for i in range(len(nxt)):
        if nxt[i] < 0:
            continue
        j = i
        while (k := nxt[j]) >= 0:
            nxt[j] = -1
            visit(j)
            j = k
        close(len(order))
    short_ends = np.concatenate(
        (np.arange(1, loops.size + 1), loops.size + np.arange(2, 2 * pairs.size + 1, 2))
    )
    return (
        np.concatenate((np.frombuffer(order, np.int64), short)),
        np.concatenate((np.frombuffer(starts, np.int64), len(order) + short_ends)),
    )


def cycle_decompose(perm: Permutation) -> CycleDecomposition:
    """Orbits of the pass by a ruling-set walk.

    1. In each of _HASHED_ROUNDS rounds, every marker (_is_marker) starts a
       walker.  numpy steps all walkers along forward in lock-step,
       recording each pixel's owner (walker) and rank (steps from its
       marker), until a walker reaches the next marker or _STEP_CAP steps
       have passed.  Round 0 hashes every pixel, round 1 those no walker
       reached.  Walkers own disjoint pixels: a pixel has one predecessor.
    2. Every pixel still unreached becomes a marker one step from its
       successor.  This covers orbits without a hashed marker whatever the
       hash, and bounds the worst case by about the cost of walking every
       pixel in Python.
    3. _walk finds the cycles of the marker graph, about one node in 32
       pixels, in Python.
    4. Each pixel's slot is its marker's offset plus its rank; numpy then
       turns every cycle to start at its smallest index and sorts the
       cycles by it.
    """
    n = perm.forward.size
    owner, rank, succ, gap = _ruling_set(perm.forward)
    node_order, node_starts = _walk(succ)

    # Slots with the cycles in walk order, each from its first marker.
    gap = gap[node_order]
    seg_end = np.cumsum(gap)
    first = np.empty(node_order.size, dtype=np.int32)
    first[node_order] = seg_end - gap
    cyc_start = np.concatenate(([0], seg_end[node_starts[1:] - 1]))
    slot = first[owner]
    slot += rank
    del owner, rank
    walked = np.empty(n, dtype=np.int32)
    walked[slot] = np.arange(n, dtype=np.int32)

    # Canonical form: cycles sorted by their smallest pixel (head), each
    # turned to start there.  Heads arrive in a few ascending runs, which
    # the stable sort (timsort) merges in about linear time.
    head = np.minimum.reduceat(walked, cyc_start[:-1])
    by_head = np.argsort(head, kind="stable")
    source = cyc_start[:-1][by_head]
    turn = slot[head[by_head]] - source
    del slot
    starts = np.zeros(by_head.size + 1, dtype=np.int64)
    np.cumsum(np.diff(cyc_start)[by_head], out=starts[1:])
    order = walked[_rotation_index(starts, source, turn)]
    del walked
    return CycleDecomposition(perm.height, perm.width, order.astype(np.int64), starts)


def _rotation_index(starts: np.ndarray, source: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """int32 gather index that fills slot starts[c] + i of cycle c, of length
    L = starts[c+1] - starts[c], from slot source[c] + (i + turn[c]) mod L,
    where 0 <= turn[c] < L.  Every cycle is two runs of consecutive slots."""
    length = np.diff(starts)
    offset = source - starts[:-1] + turn
    shift = np.stack((offset, offset - length), axis=1).ravel().astype(np.int32)
    index = np.repeat(shift, np.stack((length - turn, turn), axis=1).ravel())
    index += np.arange(starts[-1], dtype=np.int32)
    return index


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
    moves to slot starts[c] + (i + z) mod lengths[c]: the buffer is
    gathered into slot order, each cycle rotated by one int32 gather index
    and scattered back.
    """
    src = np.asarray(src)
    n = cycles.height * cycles.width
    if src.ndim not in (1, 2) or src.shape[0] != n:
        raise ParameterError(f"buffer must have shape ({n},) or ({n}, C), got {src.shape}")
    distinct, inv = np.unique(cycles.lengths, return_inverse=True)
    turn = np.array([-z % int(d) for d in distinct], dtype=np.int64)[inv]
    # slot s now holds the pixel z steps behind it on its cycle
    behind = _rotation_index(cycles.starts, cycles.starts[:-1], turn)
    rows = np.ascontiguousarray(src)
    if rows.ndim == 2 and rows.size and not rows.dtype.hasobject:
        # one void item per row: a row moves as one unit, several times
        # faster than a 2-D row gather
        rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(n)
    out = np.empty_like(rows)
    out[cycles.order] = np.take(rows, cycles.order, axis=0)[behind]
    return out.view(src.dtype).reshape(src.shape)


def image_period(cycles: CycleDecomposition) -> int:
    """Exact image period: least common multiple of the orbit lengths."""
    return math.lcm(*{int(l) for l in cycles.lengths}) if cycles.lengths.size else 1
