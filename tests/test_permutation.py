"""One-pass permutation construction, cycle structure, fast iteration."""

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
from oacm.permutation import _FEW_WALKERS, _STEP_CAP, _is_hashed, _ruling_set


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
    another order, which cycle_decompose does not fix."""
    got = cycle_decompose(perm)
    assert_runs_follow_forward(got, perm)
    assert np.array_equal(orbit_lengths(got), orbit_lengths(walk_decompose_reference(perm)))


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
        # Cycle x runs through the hashed pixels, then half the others: the
        # walker from the first of those stops at the step cap, and the rest
        # of that path becomes one-step markers.  Cycle y runs through the
        # other half, holds no hashed pixel and so no walker, and becomes a
        # cycle of one-step markers.  The walk runs to the cap however few
        # walkers are out.
        monkeypatch.setattr("oacm.permutation._FEW_WALKERS", 0)
        n = 40 * 50
        hashed = _is_hashed(np.arange(n, dtype=np.uint64))
        unhashed = np.flatnonzero(~hashed)[::-1]
        half = unhashed.size // 2
        assert half > _STEP_CAP + 1 and hashed.any()
        forward = np.empty(n, dtype=np.int64)
        for seq in (np.concatenate((np.flatnonzero(hashed), unhashed[:half])), unhashed[half:]):
            forward[seq] = np.roll(seq, -1)
        gap = _ruling_set(forward)[2]
        assert np.count_nonzero(gap == _STEP_CAP + 1) == 1
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
        markers, succ, gap = _ruling_set(forward)[:3]
        (node,) = np.flatnonzero(markers == h2)
        assert gap[node] == 1
        assert markers[succ[node]] == seq[2]
        assert_matches_walk(Permutation(40, 50, forward))

    def test_capped_walker_one_pixel_short_of_a_marker(self, monkeypatch):
        # One cycle h0 -> m -> 255 unhashed pixels -> hx -> h0 with h0 and hx
        # hashed: the walker from the marker m reaches hx, which is not a
        # marker, at the step cap, and the pixel after it is the marker h0.
        # The walk runs to the cap however few walkers are out.
        monkeypatch.setattr("oacm.permutation._FEW_WALKERS", 0)
        n = 40 * 50
        hashed = _is_hashed(np.arange(n, dtype=np.uint64))
        h0, hx = np.flatnonzero(hashed)[:2]
        path = np.flatnonzero(~hashed)[: _STEP_CAP]
        seq = np.concatenate(([h0], path, [hx]))
        forward = np.arange(n)
        forward[seq] = np.roll(seq, -1)
        markers, succ, gap = _ruling_set(forward)[:3]
        (node,) = np.flatnonzero(markers == path[0])
        assert gap[node] == _STEP_CAP + 1
        assert markers[succ[node]] == h0
        assert_matches_walk(Permutation(40, 50, forward))

    def test_walk_stops_with_few_walkers_out(self):
        # The cover_analysis cover: the walk ends before the step cap with
        # walkers still out, each stopped one step past the last one taken,
        # before the pixel it would have read next.
        perm = oacm_perm(96, 128, 24, 23, p=2, q=3)
        _, _, gap, _, _, bounds = _ruling_set(perm.forward)
        steps = len(bounds) - 1
        assert 0 < steps < _STEP_CAP
        assert (gap == steps + 1).any()
        assert_matches_walk(perm)

    def test_no_step_with_few_hashed_pixels(self):
        # At most _FEW_WALKERS hashed pixels: no walker steps, and every
        # orbit is closed from one-step markers alone.
        n = 40 * 50
        assert np.count_nonzero(_is_hashed(np.arange(n, dtype=np.uint64))) <= _FEW_WALKERS
        perm = Permutation(40, 50, np.random.default_rng(3).permutation(n))
        _, _, gap, _, _, bounds = _ruling_set(perm.forward)
        assert bounds == [0]
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
