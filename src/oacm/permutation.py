"""One-pass scramble permutations and their cycle structure.

A pass applies the cat map to every square of a tiling in sequence, which
yields a single bijection on pixel indices (row-major, index = y*width + x).
Decomposing that bijection into orbits turns repeated scrambling into a
"scan": z iterations move each pixel z mod L slots along its length-L orbit,
at O(1) cost per pixel regardless of z.
"""

from __future__ import annotations

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
        if not 0 <= fwd.min() <= fwd.max() < n:
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


def _outer_mod(rows: np.ndarray, cols: np.ndarray, s: int) -> np.ndarray:
    """rows[:, None] + cols[None, :] mod s, for entries already in [0, s)."""
    out = np.add.outer(rows, cols)
    return np.subtract(out, s, out=out, where=out >= s)


# Applying a row of squares a block at a time costs about
# len(xs) * (_CALL_PX + s*s) moves of a block pixel: _CALL_PX is one numpy
# call's overhead in such moves.  Applying it as one gather over the s*w
# band costs one such move a pixel while the band has at most _BAND_PX
# pixels, and two beyond, where it spills the cache.  On a 2-core x86 host
# (numpy 2.4, 1920-wide bands, p=2 q=3), a block gather took 2.2 us a call
# plus 2.3 ns a pixel (a call is about 960 pixels), and a band gather
# 2.0-2.5 ns a pixel up to 100 rows (192,000 pixels), 2.6-2.8 ns at 112 to
# 128 rows and 3.6-9.7 ns from 160 to 540 rows.
_CALL_PX = 1000
_BAND_PX = 200_000


def _walk_row(target: np.ndarray, xs: tuple[int, ...], s: int, src: np.ndarray) -> None:
    """Walk one row's squares backwards, left to right, over target, a band
    s rows high: each block gathers its slots' forward images through src."""
    for x0 in xs:
        block = target[:, x0 : x0 + s]
        block[...] = block.take(src)


def build_oacm_permutation(tiling: Tiling, p: int, q: int) -> Permutation:
    """Net permutation of one scramble pass over all squares of the tiling.

    Each square applies the (p, q) cat map on its own local coordinates,
    with the modulus equal to the square side.  A pass visits rows top to
    bottom, each row right to left.  Orderings of more than two squares are
    not conjugate to each other, so the cycle structure (and every period)
    depends on this order; the reference periods pinned in the test suite
    fix it.  Descrambling walks the orbits of this same pass backwards.

    Each square costs one s*s gather, so a pass costs O(sum of s^2)
    whatever the image size.  Every row has the same x corners, so when
    there are several rows and _CALL_PX and _BAND_PX rate it cheaper, one
    row is walked once over an identity band and every band then takes one
    gather through that composite.
    """
    params = tiling.params
    h, w, s = params.height, params.width, params.square_size
    xs = tiling.xs
    a, b, c, d = map_matrix(AcmParams(p, q, s))

    # Walking the squares backwards, grid[y, x] is where the squares walked
    # so far send the pixel at (y, x): a block reads each slot's forward
    # image, through one local gather index shared by every square.
    lx = np.arange(s)
    src = _outer_mod(d * lx % s, c * lx % s, s)
    src *= s
    src += _outer_mod(b * lx % s, a * lx % s, s)

    # Every row's squares gather within its band, so a row acts on the band
    # as one gather: the row walked over an identity strip.
    composite = None
    band_moves = s * w * (1 if s * w <= _BAND_PX else 2)
    if len(tiling.ys) > 1 and len(xs) * (_CALL_PX + s * s) > band_moves:
        composite = np.arange(s * w).reshape(s, w)
        _walk_row(composite, xs, s, src)
    # int32 scratch: TilingParams refuses pixel counts it cannot index
    grid = np.arange(h * w, dtype=np.int32).reshape(h, w)
    for y0 in reversed(tiling.ys):
        band = grid[y0 : y0 + s]
        if composite is None:
            _walk_row(band, xs, s, src)
        else:
            band[...] = band.take(composite)
    del src, composite  # freed before the grid is copied to int64
    # A bijection by construction, so Permutation's checks are skipped: they
    # cost as much as the rest of a build of large squares.
    perm = object.__new__(Permutation)
    perm.__dict__.update(height=h, width=w, forward=grid.ravel().astype(np.int64))
    return perm


@dataclass(frozen=True, eq=False)
class CycleDecomposition:
    """Orbits of a permutation, stored flat for O(1)-per-pixel iteration.

    order holds every pixel index grouped by cycle: cycle c is the run
    order[starts[c]:starts[c + 1]] of lengths[c] pixels, along which forward
    takes each pixel to the next and the last back to the first.  Where a
    cycle starts and the order of the cycles are not specified; the same
    permutation always gives the same layout.
    """

    height: int
    width: int
    order: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lengths", np.diff(self.starts))


# Ruling-set markers: a pixel i makes its successor a marker when the top
# five bits of its Fibonacci hash i * _MARKER_HASH mod 2**64 are zero, one
# pixel in 32.  A hash, not a stride: markers at multiples of 32 line up
# with the cat map's lattice and leave most orbits without one.
_MARKER_HASH = np.uint64(0x9E3779B97F4A7C15)
# Steps a walker takes before it stops where it stands.
_STEP_CAP = 256
# The walk also stops once at most this many walkers are still out: each
# step then costs about a dozen numpy calls' fixed overhead and moves
# almost nothing, and _close finishes the paths left in log rounds.  On a
# 2-core x86 host (numpy 2.4, medians of 21 interleaved calls), with 32,
# 128 and 512 here: the 96x128 24/23 cover (p=2 q=3) decomposed in 1.64,
# 1.21 and 1.15 ms, a 128x192 16/4 cover in 3.70, 3.05 and 3.72 ms, and a
# 256x256 64/16 cover in 3.92, 3.81 and 4.02 ms.
_FEW_WALKERS = 128
_REACHED = np.iinfo(np.int32).min  # code of a pixel some walker reached


def _is_hashed(i: np.ndarray) -> np.ndarray:
    """Whether each pixel index in i (uint64, overwritten with its hash) is
    hashed."""
    i *= _MARKER_HASH
    return i < np.uint64(1 << 59)


def _ruling_set(fwd: np.ndarray):
    """Steps 1 and 2 of cycle_decompose.

    Returns per marker id its pixel (markers), the next marker (succ) and
    the steps to it (gap); hashed markers come first, then the others, each
    in pixel order.  The trail holds every other pixel: trail[x] is r steps
    from marker who[x] for x in [bounds[r-1], bounds[r]).
    """
    n = fwd.size
    # code[i] is fwd[i], or ~fwd[i] when fwd[i] is a marker (the successor
    # of a hashed pixel): a step is one gather and a sign test.
    hashed = np.flatnonzero(_is_hashed(np.arange(n, dtype=np.uint64)))
    code = fwd.astype(np.int32)
    heads = code[hashed]
    code[hashed] = ~heads
    heads.sort()
    del hashed
    trail = np.empty(n, dtype=np.int32)
    who = np.empty(n, dtype=np.int32)
    nxt = np.empty(heads.size, dtype=np.int32)
    gap = np.empty(heads.size, dtype=np.int32)
    # Walkers step in lock-step; a walker that steps onto a marker stops
    # there, and the others append their pixels to the trail.  A pixel has
    # one predecessor, so its code is read once: it is marked reached then.
    pos, walkers, step, t, bounds = heads, np.arange(heads.size, dtype=np.int32), 0, 0, [0]
    while pos.size > _FEW_WALKERS and step < _STEP_CAP:
        step += 1
        here = pos
        pos = code.take(here)
        code[here] = _REACHED
        stop = np.flatnonzero(pos < 0)
        if stop.size:
            done = walkers[stop]
            nxt[done] = ~pos[stop]
            gap[done] = step
            go = pos >= 0
            pos, walkers = pos[go], walkers[go]
        trail[t : t + pos.size] = pos
        who[t : t + pos.size] = walkers
        t += pos.size
        bounds.append(t)
    # A walker still out stops before its next pixel.  No walker can reach
    # that pixel, so unless it is a marker it ends as one of its own.
    nxt[walkers] = code[pos]
    np.invert(nxt, out=nxt, where=nxt < 0)
    gap[walkers] = step + 1
    code[pos] = _REACHED
    # Every pixel no walker reached is a marker one step from its successor.
    # They are found a chunk at a time: at 1080x1920 one n-long mask left
    # the heap 7 MB larger at its peak, with the same live bytes.
    chunks = range(0, n, 1 << 18)
    rest = np.concatenate([np.flatnonzero(code[i : i + (1 << 18)] != _REACHED) + i for i in chunks])
    markers = np.concatenate((heads, rest), dtype=np.int32)
    code[markers] = np.arange(markers.size, dtype=np.int32)  # now pixel -> marker id
    succ = code[np.concatenate((nxt, fwd[rest]))]
    gap = np.concatenate((gap, np.ones(rest.size, dtype=np.int32)))
    return markers, succ, gap, trail[:t], who[:t], bounds


def _close(succ: np.ndarray, gap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step 3 of cycle_decompose: lay the cycles of the marker graph out in
    slots, gap[i] slots per node i, by pointer jumping.

    Returns per node its slot, and the slot bounds of the cycles, which run
    by their smallest node, each from that node (its head).
    """
    ids = np.arange(succ.size, dtype=np.int32)
    # lab[i] is the smallest of the 2**r nodes from i along succ, and jump
    # is succ applied 2**r times.  lab stops changing exactly when 2**r
    # covers the longest cycle: until then, the node 2**r before a cycle's
    # head has not seen it.  Index arrays are intp: numpy gathers through
    # int32 indices at about half the speed.
    lab, jump, rounds = ids.copy(), succ.astype(np.intp), 0
    while ((ahead := lab[jump]) < lab).any():
        np.minimum(lab, ahead, out=lab)
        jump = jump[jump]
        rounds += 1
    del ahead, jump
    heads = np.flatnonzero(lab == ids)
    # Wyllie's list ranking toward the heads: ptr[i] is the node 2**r on
    # from i, or its head if that comes first, and dist[i] the slots from i
    # to ptr[i].  The same number of rounds takes every ptr to its head.
    dist, ptr = gap.copy(), succ.astype(np.intp)
    dist[heads] = 0
    ptr[heads] = heads
    for _ in range(rounds):
        dist += dist[ptr]
        ptr = ptr[ptr]
    del ptr
    length = gap[heads] + dist[succ[heads]]
    cyc_start = np.zeros(heads.size + 1, dtype=np.int64)
    np.cumsum(length, out=cyc_start[1:])
    # a node sits dist slots before the end of its cycle, a head at its start
    end = ids  # reused: no longer needed as ids
    end[heads] = cyc_start[1:]
    slot = end[lab]
    slot -= dist
    slot[heads] = cyc_start[:-1]
    return slot, cyc_start


def cycle_decompose(perm: Permutation) -> CycleDecomposition:
    """Orbits of the pass by a ruling-set walk.

    1. The successor of every pixel that _is_hashed picks, about one in 32,
       becomes a marker and starts a walker.  numpy steps all walkers along
       forward in lock-step, appending each step's pixels and walkers to a
       trail.  A walker that steps onto the next marker records it and the
       step there and stops.  The walk ends after _STEP_CAP steps, or once
       at most _FEW_WALKERS walkers are out; a walker still out then stops
       before its next pixel.  Walkers reach disjoint pixels: a pixel has
       one predecessor, so each is marked reached when its code is read.
    2. Every pixel no walker reached becomes a marker one step from its
       successor.  This covers orbits without a hashed marker whatever the
       hash, and the rest of a path cut off where the walk ended.
    3. Pointer jumping over the marker graph (next marker, steps to it)
       labels each node with the smallest node of its cycle and ranks it by
       its slots from there (_close).  No Python loop runs per node: about
       log2 of the longest marker cycle numpy rounds do.
    4. A trail pixel's slot is its marker's slot plus its rank, and one
       scatter puts every pixel in its slot.  Each cycle is then one run of
       slots along forward, in the order and from the node _close gives it.
    """
    n = perm.forward.size
    markers, succ, gap, trail, who, bounds = _ruling_set(perm.forward)
    first, cyc_start = _close(succ, gap)
    del succ, gap
    # who becomes the slots in place, a run at a time: np.take on the whole
    # trail would hold intp copies of it
    for rank, (start, end) in enumerate(zip(bounds, bounds[1:]), 1):
        first.take(who[start:end], out=who[start:end])
        who[start:end] += rank
    walked = np.empty(n, dtype=np.int32)
    walked[who] = trail
    walked[first] = markers
    # freed now: medium arrays left between large ones fragment the heap
    del trail, who, markers, first
    return CycleDecomposition(perm.height, perm.width, walked.astype(np.int64), cyc_start)


def _rotation_index(starts: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """int32 gather index that fills slot starts[c] + i of cycle c, of length
    L = starts[c+1] - starts[c], from slot starts[c] + (i + turn[c]) mod L,
    where 0 <= turn[c] < L.  Every cycle is two runs of consecutive slots."""
    length = np.diff(starts)
    shift = np.stack((turn, turn - length), axis=1).ravel().astype(np.int32)
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
    moves to slot starts[c] + (i + z) mod lengths[c].  Each channel plane
    is gathered on its own, through one index of the pixel z steps behind
    every slot, and scattered back: an 8-bit plane stays in cache where a
    buffer of whole rows does not.
    """
    src = np.asarray(src)
    n = cycles.height * cycles.width
    if src.ndim not in (1, 2) or src.shape[0] != n:
        raise ParameterError(f"buffer must have shape ({n},) or ({n}, C), got {src.shape}")
    distinct, inv = np.unique(cycles.lengths, return_inverse=True)
    turn = np.array([-z % int(d) for d in distinct], dtype=np.int64)[inv]
    source = cycles.order[_rotation_index(cycles.starts, turn)]
    out = np.empty_like(src)
    plane, moved = np.empty((2, n), dtype=src.dtype)
    for channel in np.ndindex(src.shape[1:]):
        column = (slice(None), *channel)
        # "clip" writes straight into plane: source is in range
        np.take(src[column], source, out=plane, mode="clip")
        moved[cycles.order] = plane
        out[column] = moved
    return out

