"""Shared builders and reference oracles for the test modules."""

import json
import math
from array import array

import numpy as np
from hypothesis import strategies as st

from oacm import (
    AcmParams,
    CycleDecomposition,
    ParameterError,
    Permutation,
    Tiling,
    TilingParams,
    build_oacm_permutation,
    map_matrix,
    square_locations,
)


def single_square(n):
    """Tiling of an n x n image by one square."""
    return square_locations(TilingParams(n, n, n, 0))


def oacm_perm(h, w, s, o, p=1, q=1):
    return build_oacm_permutation(square_locations(TilingParams(h, w, s, o)), p, q)


def identity_perm(height, width):
    """The permutation that leaves every pixel in place."""
    return Permutation(height, width, np.arange(height * width, dtype=np.int64))


def key_json(key):
    """A KeyConfig as key-file JSON; iterations is a decimal string, as big keys need."""
    return json.dumps(
        {
            "square_size": key.square_size,
            "overlap": key.overlap,
            "p": key.p,
            "q": key.q,
            "iterations": str(key.iterations),
        }
    )


def square_count(params):
    """Number of squares the cover contains."""
    return len(square_locations(params).squares)


def invert(perm):
    """The inverse bijection."""
    inv = np.empty_like(perm.forward)
    inv[perm.forward] = np.arange(perm.forward.size, dtype=np.int64)
    return Permutation(perm.height, perm.width, inv)


def compose(outer, inner):
    """Apply inner first, then outer: result[i] = outer[inner[i]]."""
    if (outer.height, outer.width) != (inner.height, inner.width):
        raise ParameterError(
            f"dimension mismatch: {outer.height}x{outer.width} vs {inner.height}x{inner.width}"
        )
    return Permutation(outer.height, outer.width, outer.forward[inner.forward])


def cycle_list(cycles):
    """The orbits of a decomposition as a list of index arrays, in order."""
    return [
        cycles.order[cycles.starts[c] : cycles.starts[c + 1]]
        for c in range(len(cycles.starts) - 1)
    ]


def mask_build_reference(tiling, p, q):
    """The map applied as a map: every pixel is tested against every square,
    square by square in pass order: rows top to bottom, each right to left.

    O(squares x pixels); kept as the oracle for build_oacm_permutation.
    """
    if p < 0 or q < 0:
        raise ParameterError(f"p and q must be non-negative, got p={p}, q={q}")
    params = tiling.params
    h, w, s = params.height, params.width, params.square_size
    a, b, c, d = map_matrix(AcmParams(p, q, s))

    xs, ys = np.meshgrid(np.arange(w, dtype=np.int64), np.arange(h, dtype=np.int64))
    xs = xs.ravel()
    ys = ys.ravel()
    for x0, y0 in sorted(tiling.squares, key=lambda sq: (sq[1], -sq[0])):
        inside = (xs >= x0) & (xs < x0 + s) & (ys >= y0) & (ys < y0 + s)
        lx = xs[inside] - x0
        ly = ys[inside] - y0
        xs[inside] = x0 + (a * lx + b * ly) % s
        ys[inside] = y0 + (c * lx + d * ly) % s
    return Permutation(h, w, ys * w + xs)


def walk_decompose_reference(perm):
    """Single-sweep orbit walk over one copy of the pass, which is also the
    visited mask: walking a pixel overwrites its successor with -1.

    One Python step per pixel; kept as the oracle for cycle_decompose.
    """
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


@st.composite
def arbitrary_tilings(draw, max_pixels=1024):
    """A Tiling whose corner axes are any strictly ascending corners inside
    the image, with p and q.  Each axis runs with step 1 or step size
    (overlap 0) or takes any corners."""
    height = draw(st.integers(1, 32))
    width = draw(st.integers(1, max(1, max_pixels // height)))
    size = draw(st.integers(1, min(height, width)))

    def corners(limit):
        run = st.builds(
            lambda start, step: range(start, limit + 1, step),
            st.integers(0, limit),
            st.sampled_from([1, size]),
        )
        any_corners = st.lists(st.integers(0, limit), min_size=1, max_size=6, unique=True).map(sorted)
        return st.one_of(run, any_corners).map(tuple)

    xs, ys = draw(corners(width - size)), draw(corners(height - size))
    tiling = Tiling(TilingParams(height, width, size, 0), xs, ys)
    return tiling, draw(st.integers(0, 5)), draw(st.integers(0, 5))


def mat_mul(x, y, n):
    """The 2x2 product x @ y mod n, on row-major 4-tuples: entry (i, j) is
    the sum over k of x[i, k] * y[k, j]."""
    return tuple(
        sum(x[2 * i + k] * y[2 * k + j] for k in range(2)) % n for i in range(2) for j in range(2)
    )


def matrix_period_linear(params):
    """Smallest P >= 1 with A**P = I, by multiplying A up to 3n times.

    Oracle for matrix_period; the period never exceeds 3n (Dyson-Falk).
    """
    n = params.n
    a = map_matrix(params)
    ident = (1 % n, 0, 0, 1 % n)
    acc = ident
    for k in range(1, 3 * n + 1):
        acc = mat_mul(acc, a, n)
        if acc == ident:
            return k
    raise AssertionError(f"no period within 3n for n = {n}")


def landau_table_reference(n):
    """g(j) for every 0 <= j <= n: an exact knapsack over every prime power up to n."""
    table = [1] * (n + 1)
    for p in range(2, n + 1):
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        before = table[:]  # at most one power of p per partition
        pk = p
        while pk <= n:
            for j in range(pk, n + 1):
                table[j] = max(table[j], before[j - pk] * pk)
            pk *= p
    return table


def landau_g_bruteforce(n):
    """Max LCM over every integer partition of n, by exhaustive enumeration.

    Independent oracle for landau_g; partition counts explode, so n is
    capped at 40.
    """
    if not 1 <= n <= 40:
        raise ParameterError(f"bruteforce oracle only supports 1 <= n <= 40, got {n}")
    best = 1

    def rec(remaining, max_part, acc):
        nonlocal best
        if acc > best:
            best = acc
        for part in range(min(remaining, max_part), 1, -1):
            rec(remaining - part, part, math.lcm(acc, part))

    rec(n, n, 1)
    return best
