"""One-pass permutation construction, cycle structure, fast iteration."""

import os
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    arbitrary_tilings,
    compose,
    cycle_list,
    identity_perm,
    invert,
    mask_build_reference,
    oacm_perm,
    single_square,
    small_configs,
    walk_decompose_reference,
)
from oacm import (
    AcmParams,
    ParameterError,
    Permutation,
    Tiling,
    TilingParams,
    apply_iterations,
    build_oacm_permutation,
    cycle_decompose,
    image_period,
    matrix_period,
    square_locations,
)
from oacm.permutation import _FEW_WALKERS, _groups, _is_hashed, _ruling_set, _run


@contextmanager
def walker_groups(count):
    """cycle_decompose and apply_iterations split into count (1 or 2)
    groups at any size, as on a host of count CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("oacm.permutation._PARALLEL_PX", 0)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        mp.setattr(os, "cpu_count", lambda: count)
        yield


class TestPermutationType:
    def test_rejects_non_bijection(self):
        with pytest.raises(ParameterError):
            Permutation(2, 2, np.array([0, 0, 1, 2]))

    @pytest.mark.parametrize("forward", [[-1, 0, 1, 2], [0, 1, 2, 4]])
    def test_rejects_indices_out_of_range(self, forward):
        with pytest.raises(ParameterError, match="values in"):
            Permutation(2, 2, np.array(forward))

    @pytest.mark.parametrize("height, width", [(0, 4), (4, 0), (-1, -1)])
    def test_rejects_side_below_one(self, height, width):
        with pytest.raises(ParameterError, match="dimensions"):
            Permutation(height, width, np.arange(height * width))

    def test_rejects_more_pixels_than_the_limit(self):
        with pytest.raises(ParameterError, match="pixels"):
            Permutation(2**16, 2**15, np.arange(1))

    @pytest.mark.parametrize(
        "forward",
        [np.array([1.9, 0.2]), np.array([1.0, 0.0]), [1.0, 0.0], np.array([True, False])],
        ids=["fractional", "integral-float", "float-list", "bool"],
    )
    def test_rejects_non_integer_forward(self, forward):
        with pytest.raises(ParameterError, match="integer"):
            Permutation(1, 2, forward)

    @pytest.mark.parametrize(
        "forward",
        [
            np.array([[1, 0], [3, 2]], dtype=np.int32).ravel(),
            np.array([1, 0, 3, 2], dtype=np.uint16),
            [1, 0, 3, 2],
        ],
        ids=["int32", "uint16", "int-list"],
    )
    def test_integer_forward_is_stored_as_int64(self, forward):
        perm = Permutation(2, 2, forward)
        assert perm.forward.dtype == np.int64
        assert perm.forward.tolist() == [1, 0, 3, 2]

    def test_rejects_wrong_length(self):
        with pytest.raises(ParameterError):
            Permutation(2, 2, np.arange(5))

    def test_equality(self):
        a = identity_perm(2, 3)
        b = Permutation(2, 3, np.arange(6))
        assert a == b
        assert a != Permutation(3, 2, np.arange(6))


class TestBuild:
    def test_two_by_two_three_cycle(self):
        # Pixel (1,0) -> (1,1) -> (0,1) -> (1,0); origin stays put.
        perm = build_oacm_permutation(single_square(2), 1, 1)
        assert perm.forward.tolist() == [0, 3, 1, 2]

    def test_zero_parameters_give_identity(self):
        perm = oacm_perm(6, 9, 4, 2, p=0, q=0)
        assert perm == identity_perm(6, 9)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ParameterError):
            oacm_perm(4, 4, 2, 0, p=-1)

    @pytest.mark.parametrize("corner", [(-10, 0), (8, 0), (-3, 0), (0, 5), (7, 0), (0, 3), (0, -1)])
    def test_refuses_corner_outside_the_image(self, corner):
        # corners of a 4-square in a 6x10 image lie in [0, 6] x [0, 2]
        x, y = corner
        with pytest.raises(ParameterError, match="outside"):
            Tiling(TilingParams(6, 10, 4, 0), tuple(sorted({0, x})), tuple(sorted({0, y})))

    @pytest.mark.parametrize(
        "xs, ys",
        [((17, 4, 0), (2,)), ((0, 4, 4, 17), (2,)), ((0,), (2, 0)), ((0,), (1, 1))],
        ids=["x-unsorted", "x-repeated", "y-unsorted", "y-repeated"],
    )
    def test_refuses_corners_not_strictly_ascending(self, xs, ys):
        with pytest.raises(ParameterError, match="strictly ascending"):
            Tiling(TilingParams(8, 20, 3, 0), xs, ys)


class TestMatchesMaskReference:
    @given(small_configs())
    def test_small_configs(self, config):
        h, w, s, o, p, q = config
        tiling = square_locations(TilingParams(h, w, s, o))
        assert build_oacm_permutation(tiling, p, q) == mask_build_reference(tiling, p, q), config

    @given(arbitrary_tilings())
    def test_arbitrary_tilings(self, case):
        tiling, p, q = case
        assert build_oacm_permutation(tiling, p, q) == mask_build_reference(tiling, p, q), case

    def test_dense_cover(self):
        for h, w, s, o, squares in [
            # step 1: every pixel away from the border lies in 64 squares
            (24, 32, 8, 7, 17 * 25),
            (24, 32, 1, 0, 24 * 32),
            (24, 32, 3, 0, 8 * 11),
            # rows of 15 squares of 40 gather a block at a time
            (80, 600, 40, 0, 2 * 15),
        ]:
            tiling = square_locations(TilingParams(h, w, s, o))
            assert len(tiling.squares) == squares
            assert build_oacm_permutation(tiling, 2, 3) == mask_build_reference(tiling, 2, 3), s


class TestInvertCompose:
    def test_invert_identity(self):
        assert invert(identity_perm(3, 3)) == identity_perm(3, 3)

    def test_invert_twice(self):
        perm = oacm_perm(8, 8, 5, 2)
        assert invert(invert(perm)) == perm

    def test_invert_three_cycle(self):
        perm = build_oacm_permutation(single_square(2), 1, 1)
        assert invert(perm).forward.tolist() == [0, 2, 3, 1]

    def test_compose_identity(self):
        perm = oacm_perm(4, 6, 3, 1)
        ident = identity_perm(4, 6)
        assert compose(perm, ident) == perm
        assert compose(ident, perm) == perm

    def test_compose_with_inverse(self):
        perm = oacm_perm(7, 5, 4, 2)
        assert compose(perm, invert(perm)) == identity_perm(7, 5)

    def test_three_cycle_squared_is_inverse(self):
        perm = build_oacm_permutation(single_square(2), 1, 1)
        assert compose(perm, perm) == invert(perm)

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            compose(identity_perm(2, 3), identity_perm(3, 2))


class TestCycleDecompose:
    def test_identity_cycles(self):
        for perm in (identity_perm(2, 2), identity_perm(5, 7)):
            cycles = cycle_decompose(perm)
            assert_runs_follow_forward(cycles, perm)
            assert np.array_equal(cycles.starts, np.arange(perm.forward.size + 1))

    def test_two_by_two_lengths(self):
        cycles = cycle_decompose(build_oacm_permutation(single_square(2), 1, 1))
        assert sorted(cycles.lengths.tolist()) == [1, 3]

    def test_three_by_three_lengths(self):
        cycles = cycle_decompose(build_oacm_permutation(single_square(3), 1, 1))
        assert sorted(cycles.lengths.tolist()) == [1, 4, 4]
        assert image_period(cycles) == 4

    def test_cycles_partition_the_indices(self):
        perm = oacm_perm(9, 13, 6, 2, p=3, q=2)
        cycles = cycle_decompose(perm)
        seen = np.concatenate(cycle_list(cycles))
        assert sorted(seen.tolist()) == list(range(9 * 13))
        assert int(cycles.lengths.sum()) == 9 * 13

    def test_cycles_follow_forward(self):
        perm = oacm_perm(6, 6, 4, 1, p=2, q=5)
        for cyc in cycle_list(cycle_decompose(perm)):
            for i, j in zip(cyc, np.roll(cyc, -1)):
                assert perm.forward[i] == j

    def test_leaves_forward_unchanged(self):
        perm = oacm_perm(9, 13, 6, 2, p=3, q=2)
        before = perm.forward.copy()
        cycle_decompose(perm)
        assert np.array_equal(perm.forward, before)

    def test_single_long_cycle(self):
        n = 37
        perm = Permutation(1, n, np.roll(np.arange(n), -5))
        cycles = cycle_decompose(perm)
        assert cycles.starts.tolist() == [0, n]
        assert_runs_follow_forward(cycles, perm)


def assert_runs_follow_forward(cycles, perm):
    """order is a permutation of the pixels, cut by starts into contiguous
    runs, and forward takes the pixel in each slot to the next slot of its
    run, the last slot back to the first."""
    n = perm.forward.size
    assert np.array_equal(np.sort(cycles.order), np.arange(n))
    assert cycles.starts[0] == 0 and cycles.starts[-1] == n
    assert np.all(cycles.lengths > 0)
    after = np.arange(1, n + 1)
    after[cycles.starts[1:] - 1] = cycles.starts[:-1]
    assert np.array_equal(perm.forward[cycles.order], cycles.order[after])


def orbit_lengths(cycles):
    """Each pixel's orbit length."""
    out = np.empty(cycles.order.size, dtype=np.int64)
    out[cycles.order] = np.repeat(cycles.lengths, cycles.lengths)
    return out


def assert_matches_walk(perm):
    """The reference's orbits: the same cycles, each possibly rotated and in
    another order, which cycle_decompose does not fix.  Walked by one walker
    group and by two on two threads, bit for bit the same layout."""
    expect = orbit_lengths(walk_decompose_reference(perm))
    layouts = []
    for count in (1, 2):
        with walker_groups(count):
            got = cycle_decompose(perm)
        assert_runs_follow_forward(got, perm)
        assert np.array_equal(orbit_lengths(got), expect)
        layouts.append(got)
    alone, split = layouts
    assert np.array_equal(split.order, alone.order)
    assert np.array_equal(split.starts, alone.starts)


class TestMatchesWalkReference:
    @given(small_configs())
    def test_small_configs(self, config):
        assert_matches_walk(oacm_perm(*config))

    @given(st.integers(1, 40), st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_random_permutations(self, height, width, seed):
        forward = np.random.default_rng(seed).permutation(height * width)
        assert_matches_walk(Permutation(height, width, forward))

    def test_identity(self):
        assert_matches_walk(identity_perm(37, 41))

    def test_all_two_cycles(self):
        assert_matches_walk(Permutation(30, 40, np.arange(1200) ^ 1))

    def test_all_three_cycles(self):
        # too short to hold a hashed marker mostly: nearly every pixel is
        # left unreached and becomes a marker of its own
        i = np.arange(1200)
        assert_matches_walk(Permutation(30, 40, i - i % 3 + (i + 1) % 3))

    def test_small_square_cover(self):
        assert_matches_walk(oacm_perm(60, 90, 3, 0))

    def test_one_long_cycle(self):
        assert_matches_walk(Permutation(30, 40, np.roll(np.arange(1200), -7)))

    def test_dense_cover(self):
        assert_matches_walk(oacm_perm(257, 300, 40, 39, p=2, q=3))

    def test_cycles_through_unmarked_pixels(self, monkeypatch):
        # Cycle x runs h[0], 10 unhashed pixels (a), the other hashed pixels
        # h[1:], then half the rest (b).  The walkers from a[0] and b[0] are
        # out together until a's reaches h[2], a marker: the walk then ends
        # with one walker out, and the rest of b becomes one-step markers.
        # Cycle y runs through the other half, holds no hashed pixel and so
        # no walker, and becomes a cycle of one-step markers.
        monkeypatch.setattr("oacm.permutation._FEW_WALKERS", 1)
        n = 40 * 50
        hashed = _is_hashed(np.arange(n, dtype=np.uint64))
        h, unhashed = np.flatnonzero(hashed), np.flatnonzero(~hashed)[::-1]
        half = (unhashed.size + 10) // 2
        a, b = unhashed[:10], unhashed[10:half]
        assert h.size > 2 and b.size > 20
        forward = np.empty(n, dtype=np.int64)
        for seq in (np.concatenate((h[:1], a, h[1:], b)), unhashed[half:]):
            forward[seq] = np.roll(seq, -1)
        markers, _, gap, _, _, (runs,) = _ruling_set(forward, 1)
        steps = len(runs)
        assert steps == a.size + 1
        assert np.count_nonzero(gap == steps + 1) == 1
        cut = np.isin(markers, b[steps + 1 :])
        assert np.count_nonzero(cut) == b.size - steps - 1 and np.all(gap[cut] == 1)
        assert_matches_walk(Permutation(40, 50, forward))

    def test_walker_stops_on_its_first_step(self):
        # One cycle h1 -> h2 -> u... -> h1 through two hashed pixels: h2 is
        # a hashed marker, so its walker's first step lands on the marker
        # after it.  Every other pixel is fixed.
        n = 40 * 50
        hashed = _is_hashed(np.arange(n, dtype=np.uint64))
        h1, h2 = np.flatnonzero(hashed)[:2]
        seq = np.concatenate(([h1, h2], np.flatnonzero(~hashed)[:10]))
        forward = np.arange(n)
        forward[seq] = np.roll(seq, -1)
        markers, succ, gap = _ruling_set(forward, 1)[:3]
        (node,) = np.flatnonzero(markers == h2)
        assert gap[node] == 1
        assert markers[succ[node]] == seq[2]
        assert_matches_walk(Permutation(40, 50, forward))

    def test_capped_walker_one_pixel_short_of_a_marker(self, monkeypatch):
        # Cycle h0 -> m -> 19 unhashed pixels -> hx -> h0 with h0 and hx
        # hashed, and cycle h1 -> 19 unhashed pixels -> h1.  The walker from
        # the marker m reaches hx, which is not a marker, at step 20, when
        # the other walker steps onto its marker and leaves it the only one
        # out; the pixel after hx is the marker h0.  The other hashed pixels
        # are fixed, so their walkers stop on the first step.
        monkeypatch.setattr("oacm.permutation._FEW_WALKERS", 1)
        n = 40 * 50
        hashed = _is_hashed(np.arange(n, dtype=np.uint64))
        h0, hx, h1 = np.flatnonzero(hashed)[:3]
        path, other = np.split(np.flatnonzero(~hashed)[:39], [20])
        forward = np.arange(n)
        for seq in (np.concatenate(([h0], path, [hx])), np.append(other, h1)):
            forward[seq] = np.roll(seq, -1)
        markers, succ, gap, _, _, (runs,) = _ruling_set(forward, 1)
        assert len(runs) == path.size
        (node,) = np.flatnonzero(markers == path[0])
        assert gap[node] == path.size + 1
        assert markers[succ[node]] == h0
        assert_matches_walk(Permutation(40, 50, forward))

    def test_walk_stops_with_few_walkers_out(self):
        # The cover_analysis cover: the walk ends with walkers still out,
        # each stopped one step past the last one taken, before the pixel it
        # would have read next.
        perm = oacm_perm(96, 128, 24, 23, p=2, q=3)
        _, _, gap, _, _, (runs,) = _ruling_set(perm.forward, 1)
        steps = len(runs)
        assert steps > 0
        assert (gap == steps + 1).any()
        assert_matches_walk(perm)

    def test_walk_of_many_steps(self):
        # One cycle: k hashed pixels, one more than _FEW_WALKERS, each
        # followed by 290 unhashed ones, then the other hashed pixels back
        # to back, then the rest.  The k walkers each take 291 steps to the
        # next marker, so the walk runs that long: it ends on the number of
        # walkers out, not on a count of steps.
        h = w = 200
        n, k = h * w, _FEW_WALKERS + 1
        hashed = _is_hashed(np.arange(n, dtype=np.uint64))
        long, rest = np.split(np.flatnonzero(~hashed), [k * 290])
        first, others = np.split(np.flatnonzero(hashed), [k])
        groups = np.column_stack((first, long.reshape(k, 290))).ravel()
        seq = np.concatenate((groups, others, rest))
        forward = np.empty(n, dtype=np.int64)
        forward[seq] = np.roll(seq, -1)
        (runs,) = _ruling_set(forward, 1)[5]
        assert len(runs) == 291
        assert_matches_walk(Permutation(h, w, forward))

    def test_no_step_with_few_hashed_pixels(self):
        # At most _FEW_WALKERS hashed pixels: no walker steps, and every
        # orbit is closed from one-step markers alone.
        n = 40 * 50
        assert np.count_nonzero(_is_hashed(np.arange(n, dtype=np.uint64))) <= _FEW_WALKERS
        perm = Permutation(40, 50, np.random.default_rng(3).permutation(n))
        _, _, gap, _, _, (runs,) = _ruling_set(perm.forward, 1)
        assert runs == []
        assert np.all(gap == 1)
        assert_matches_walk(perm)

    def test_mixed_cycle_lengths(self):
        # Fixed points, 2-cycles, two long cycles through hashed pixels and
        # an orbit of 100 unhashed pixels in one permutation: marker cycles
        # of 1, 2, 7, 21 and 100 nodes, whose labels converge in different
        # rounds.
        n = 30 * 40
        hashed = _is_hashed(np.arange(n, dtype=np.uint64))
        rng = np.random.default_rng(5)
        unhashed = rng.permutation(np.flatnonzero(~hashed))[:100]
        rest = rng.permutation(np.setdiff1d(np.arange(n), unhashed))
        forward = np.arange(n)  # rest[:100] stay fixed points
        for seq in (unhashed, rest[300:900], rest[900:], *rest[100:300].reshape(-1, 2)):
            forward[seq] = np.roll(seq, -1)
        assert_matches_walk(Permutation(30, 40, forward))


class TestTwoGroups:
    def test_groups_by_size_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _groups(1 << 18) == 1
        assert _groups((1 << 18) + 1) == 2
        assert _groups(1080 * 1920) == 2

    def test_one_cpu_runs_one_group_and_no_thread(self, monkeypatch):
        # a process confined to one CPU, say by taskset -c 0
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr("oacm.permutation._PARALLEL_PX", 0)
        monkeypatch.setattr(threading, "Thread", no_thread)
        perm = oacm_perm(60, 90, 3, 0)
        assert _groups(perm.forward.size) == 1
        cycles = cycle_decompose(perm)
        assert_runs_follow_forward(cycles, perm)
        src = np.random.default_rng(2).integers(0, 256, (5400, 3), dtype=np.uint8)
        expect = np.empty_like(src)
        expect[perm.forward] = src
        assert np.array_equal(apply_iterations(cycles, 1, src), expect)

    def test_helper_failure_is_raised_by_the_caller(self):
        def task(fail):
            if fail:
                raise MemoryError("helper")
            return threading.current_thread()

        with pytest.raises(MemoryError, match="helper"):
            _run(task, [(False,), (True,)])
        caller, helper = _run(task, [(False,), (False,)])
        assert caller is threading.current_thread()
        assert helper is not caller

    @pytest.mark.parametrize("long_group", [0, 1])
    def test_one_group_walks_every_long_path(self, monkeypatch, long_group):
        # One cycle of blocks h, s, l, path, with h and s hashed: s is a
        # marker whose walker steps onto the marker l at once, and l's
        # walker walks its path and the next h up to the next s.  Sorted,
        # the markers alternate between the s and the l, so every l is in
        # group long_group and every s in the other.  With no walker left
        # out at the end, the l walkers' runs fill the whole trail, from
        # their end of it up to the other group's end, which has not moved.
        monkeypatch.setattr("oacm.permutation._FEW_WALKERS", 1)
        h, w = 50, 60  # 94 hashed pixels: 47 blocks
        n = h * w
        hashed = _is_hashed(np.arange(n, dtype=np.uint64))
        hs, unhashed = np.flatnonzero(hashed), np.flatnonzero(~hashed)
        k = hs.size // 2
        assert hs.size == 2 * k
        starts, shorts = hs[0::2], hs[1::2]
        # l is the first unhashed pixel after its own s, or after the s before
        after = shorts if long_group else np.concatenate(([-1], shorts[:-1]))
        longs = unhashed[np.searchsorted(unhashed, after, side="right")]
        paths = np.array_split(np.setdiff1d(unhashed, longs), k)
        blocks = zip(starts, shorts, longs, paths)
        seq = np.concatenate([[a, b, c, *path] for a, b, c, path in blocks])
        forward = np.empty(n, dtype=np.int64)
        forward[seq] = np.roll(seq, -1)

        markers, _, gap, trail, _, runs = _ruling_set(forward, 2)
        assert markers.size == 2 * k and trail.size == n - 2 * k
        assert np.array_equal(markers[long_group::2], longs)
        assert np.array_equal(markers[1 - long_group :: 2], shorts)
        assert np.all(gap[1 - long_group :: 2] == 1)
        meet = trail.size if long_group == 0 else 0
        assert runs[1 - long_group] == [slice(meet, meet)]
        filled = np.concatenate([np.arange(trail.size)[run] for run in runs[long_group]])
        assert np.array_equal(np.sort(filled), np.arange(trail.size))
        assert_matches_walk(Permutation(h, w, forward))

    @pytest.mark.parametrize(
        "config", [(60, 90, 3, 0), (64, 96, 16, 4, 2, 3), (50, 70, 50, 20)]
    )
    def test_shift_on_two_threads(self, config):
        # one plane goes in two halves, an even count in pairs, an odd one
        # in pairs and then two halves
        perm = oacm_perm(*config)
        n = perm.forward.size
        rng = np.random.default_rng(4)
        for z in (1, 7, -3):
            naive = np.arange(n)
            for _ in range(abs(z)):
                naive = (perm.forward if z > 0 else invert(perm).forward)[naive]
            for shape in ((n,), (n, 2), (n, 3)):
                src = rng.integers(0, 256, shape, dtype=np.uint8)
                expect = np.empty_like(src)
                expect[naive] = src
                for count in (1, 2):
                    with walker_groups(count):
                        out = apply_iterations(cycle_decompose(perm), z, src)
                    assert np.array_equal(out, expect)

    def test_matches_one_group_under_a_short_switch_interval(self):
        # the groups share code, nxt, gap, trail and who; a lost or crossed
        # write would change the layout
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with walker_groups(2):
                for seed in range(10):
                    forward = np.random.default_rng(seed).permutation(120 * 160)
                    assert_matches_walk(Permutation(120, 160, forward))
                assert_matches_walk(oacm_perm(120, 160, 16, 4))
        finally:
            sys.setswitchinterval(interval)


class TestApplyIterations:
    def test_zero_iterations(self):
        cycles = cycle_decompose(oacm_perm(5, 5, 3, 1))
        src = np.arange(25, dtype=np.uint8)
        assert np.array_equal(apply_iterations(cycles, 0, src), src)

    def test_period_many_iterations(self):
        cycles = cycle_decompose(oacm_perm(6, 6, 4, 2))
        period = image_period(cycles)
        src = np.arange(36, dtype=np.int64) * 3
        assert np.array_equal(apply_iterations(cycles, period, src), src)

    def test_one_iteration_matches_forward(self):
        perm = oacm_perm(4, 7, 3, 1, p=2, q=1)
        cycles = cycle_decompose(perm)
        src = np.arange(28)
        out = apply_iterations(cycles, 1, src)
        expect = np.empty_like(src)
        expect[perm.forward] = src
        assert np.array_equal(out, expect)

    def test_negative_iterations_walk_back(self):
        cycles = cycle_decompose(oacm_perm(6, 9, 5, 2))
        src = np.arange(54) % 7
        assert np.array_equal(
            apply_iterations(cycles, -3, apply_iterations(cycles, 3, src)), src
        )

    def test_huge_iteration_counts_reduce(self):
        cycles = cycle_decompose(oacm_perm(8, 8, 6, 3))
        period = image_period(cycles)
        src = np.arange(64)
        z = 10**120 * period + 7
        assert np.array_equal(
            apply_iterations(cycles, z, src), apply_iterations(cycles, 7, src)
        )

    def test_buffer_size_mismatch(self):
        cycles = cycle_decompose(identity_perm(3, 3))
        with pytest.raises(ParameterError):
            apply_iterations(cycles, 1, np.zeros(8))
        with pytest.raises(ParameterError):
            apply_iterations(cycles, 1, np.zeros((8, 3)))
        with pytest.raises(ParameterError):
            apply_iterations(cycles, 1, np.zeros((9, 1, 1)))

    def test_multichannel_rows_move_like_each_channel(self):
        cycles = cycle_decompose(oacm_perm(7, 9, 4, 2, p=2, q=3))
        rng = np.random.default_rng(2)
        rgb = rng.integers(0, 256, (63, 3), dtype=np.uint8)
        wide = rng.integers(-(2**62), 2**62, (63, 5))
        buffers = [
            rgb,
            np.asfortranarray(rgb),
            wide[:, 1:4:2],  # strided columns
            wide[:, :2],
            wide[:, 3:4],
        ]
        for src in buffers:
            for z in (1, 17, -5, 10**40):
                out = apply_iterations(cycles, z, src)
                assert out.shape == src.shape and out.dtype == src.dtype
                for c in range(src.shape[1]):
                    alone = apply_iterations(cycles, z, src[:, c].copy())
                    assert np.array_equal(out[:, c], alone)
                    assert np.array_equal(apply_iterations(cycles, z, src[:, c]), alone)

    def test_values_conserved(self):
        cycles = cycle_decompose(oacm_perm(7, 11, 5, 1, p=4, q=2))
        rng = np.random.default_rng(0)
        src = rng.integers(0, 256, 77, dtype=np.uint8)
        out = apply_iterations(cycles, 9, src)
        assert sorted(out.tolist()) == sorted(src.tolist())

    @given(small_configs(), st.sampled_from([0, 1, 2, 3, 7, 31, -1, -3, -7]), st.booleans())
    def test_matches_naive_repeated_application(self, config, z, plus_period):
        # Negative z applies the inverse |z| times; adding the image period
        # (at 3, the period + 3 case) must change nothing.
        h, w, s, o, p, q = config
        perm = oacm_perm(h, w, s, o, p, q)
        cycles = cycle_decompose(perm)
        step = perm.forward if z >= 0 else invert(perm).forward
        naive = np.arange(h * w)
        for _ in range(abs(z)):
            naive = step[naive]
        if plus_period:
            z += image_period(cycles)
        # moving the index buffer scatters each index to where its pixel lands
        index = np.arange(h * w)
        moved = np.empty_like(index)
        moved[naive] = index
        assert np.array_equal(apply_iterations(cycles, z, index), moved)

    def test_public_arrays_stay_int64(self):
        # index scratch is int32 inside the package; what it returns is not
        perm = oacm_perm(30, 40, 12, 5, p=2, q=3)
        cycles = cycle_decompose(perm)
        assert perm.forward.dtype == np.int64
        assert cycles.order.dtype == np.int64
        assert cycles.starts.dtype == np.int64
        assert cycles.lengths.dtype == np.int64
        period = image_period(cycles)
        src = np.random.default_rng(3).integers(0, 256, (1200, 3), dtype=np.uint8)
        for z, step, times in (
            (10**300 * period + 5, perm.forward, 5),
            (-(10**300) * period - 3, invert(perm).forward, 3),
        ):
            naive = np.arange(1200)
            for _ in range(times):
                naive = step[naive]
            expect = np.empty_like(src)
            expect[naive] = src
            out = apply_iterations(cycles, z, src)
            assert out.dtype == np.uint8
            assert np.array_equal(out, expect)

    def test_inverse_cycles_undo_forward_cycles(self):
        perm = oacm_perm(10, 6, 4, 1, p=2, q=3)
        fwd = cycle_decompose(perm)
        bwd = cycle_decompose(invert(perm))
        rng = np.random.default_rng(1)
        src = rng.integers(0, 256, 60, dtype=np.uint8)
        for z in (1, 5, 12):
            assert np.array_equal(
                apply_iterations(bwd, z, apply_iterations(fwd, z, src)), src
            )


class TestImagePeriod:
    def test_identity_period(self):
        assert image_period(cycle_decompose(identity_perm(4, 4))) == 1

    def test_single_square_matches_matrix_period(self):
        cycles = cycle_decompose(build_oacm_permutation(single_square(512), 1, 1))
        assert image_period(cycles) == 384
        assert image_period(cycles) == matrix_period(AcmParams(1, 1, 512))

    def test_period_divisible_by_every_length(self):
        cycles = cycle_decompose(oacm_perm(12, 18, 7, 3, p=2, q=1))
        period = image_period(cycles)
        assert all(period % int(length) == 0 for length in cycles.lengths)
