"""Orbit histograms, similarity curves, recurrence peaks, CSV output."""

import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import compose, identity_perm, oacm_perm, single_square, small_configs, synthetic_cycles
from oacm import (
    ParameterError,
    build_oacm_permutation,
    cycle_decompose,
    image_period,
    orbit_histogram,
    similarity_at,
    similarity_curve,
    write_histogram_csv,
    write_similarity_csv,
)


@pytest.fixture(scope="module")
def square_512():
    return cycle_decompose(build_oacm_permutation(single_square(512), 1, 1))


class TestHistogram:
    def test_identity(self):
        hist = orbit_histogram(cycle_decompose(identity_perm(3, 3)))
        assert hist.bins == {1: 9}
        assert hist.total_pixels == 9

    def test_three_by_three(self):
        hist = orbit_histogram(cycle_decompose(build_oacm_permutation(single_square(3), 1, 1)))
        assert hist.bins == {1: 1, 4: 2}

    def test_single_square_lengths_divide_the_period(self, square_512):
        hist = orbit_histogram(square_512)
        assert all(384 % length == 0 for length in hist.bins)
        assert max(hist.bins) <= 384

    @given(small_configs())
    def test_mass_conservation(self, config):
        h, w, s, o, p, q = config
        hist = orbit_histogram(cycle_decompose(oacm_perm(h, w, s, o, p, q)))
        assert sum(length * count for length, count in hist.bins.items()) == h * w


class TestSimilarity:
    def test_rejects_non_positive_k(self):
        cycles = cycle_decompose(identity_perm(2, 2))
        with pytest.raises(ParameterError):
            similarity_at(cycles, 0)

    def test_three_by_three_values(self):
        cycles = cycle_decompose(build_oacm_permutation(single_square(3), 1, 1))
        assert similarity_at(cycles, 2) == Fraction(1, 9)
        assert similarity_at(cycles, 4) == 1

    def test_is_one_exactly_at_period_multiples(self):
        cycles = cycle_decompose(oacm_perm(6, 10, 4, 1, p=2, q=3))
        period = image_period(cycles)
        assert similarity_at(cycles, period) == 1
        assert similarity_at(cycles, 3 * period) == 1
        for k in range(1, period):
            assert similarity_at(cycles, k) < 1

    @given(small_configs(max_pixels=400))
    def test_matches_fixed_point_count(self, config):
        h, w, s, o, p, q = config
        perm = oacm_perm(h, w, s, o, p, q)
        cycles = cycle_decompose(perm)
        power = identity_perm(h, w)
        for k in range(1, 21):
            power = compose(perm, power)
            fixed = int((power.forward == np.arange(h * w)).sum())
            assert similarity_at(cycles, k) == Fraction(fixed, h * w)


class TestCurve:
    def test_identity_curve(self):
        curve = similarity_curve(cycle_decompose(identity_perm(2, 3)), 5)
        assert curve.points == tuple((k, Fraction(1)) for k in range(1, 6))

    def test_three_by_three_curve(self):
        cycles = cycle_decompose(build_oacm_permutation(single_square(3), 1, 1))
        curve = similarity_curve(cycles, 4)
        assert curve.points == (
            (1, Fraction(1, 9)),
            (2, Fraction(1, 9)),
            (3, Fraction(1, 9)),
            (4, Fraction(1)),
        )

    def test_single_square_curve_reaches_one_only_at_the_period(self, square_512):
        curve = similarity_curve(square_512, 384)
        points = dict(curve.points)
        assert points[384] == 1
        assert points[192] < 1
        assert all(s < 1 for k, s in curve.points if k < 384)

    def test_rejects_non_positive_k_max(self):
        with pytest.raises(ParameterError):
            similarity_curve(cycle_decompose(identity_perm(2, 2)), 0)

    def test_curve_holds_counts_not_points(self):
        # 8 B of counts per k: at most twice that is traced while the curve
        # is built, where 200,000 (k, Fraction) pairs take over 10 MB
        cycles = cycle_decompose(build_oacm_permutation(single_square(3), 1, 1))
        tracemalloc.start()
        try:
            curve = similarity_curve(cycles, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.points[-1] == (200_000, 1)
        assert peak <= 2 * 8 * 200_000

    @given(small_configs(), st.integers(1, 300))
    def test_every_point_matches_similarity_at(self, config, k_max):
        h, w, s, o, p, q = config
        cycles = cycle_decompose(oacm_perm(h, w, s, o, p, q))
        points = similarity_curve(cycles, k_max).points
        assert [k for k, _ in points] == list(range(1, k_max + 1))
        for k in range(1, k_max + 1):
            assert points[k - 1][1] == similarity_at(cycles, k)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=12), st.integers(1, 400))
    def test_synthetic_lengths_match_similarity_at(self, lengths, k_max):
        cycles = synthetic_cycles(lengths)
        points = similarity_curve(cycles, k_max).points
        for k in range(1, k_max + 1):
            assert points[k - 1][1] == similarity_at(cycles, k)


class TestCsv:
    def test_histogram_csv(self):
        hist = orbit_histogram(cycle_decompose(build_oacm_permutation(single_square(3), 1, 1)))
        out = io.StringIO()
        write_histogram_csv(hist, out)
        assert out.getvalue() == "length,count\n1,1\n4,2\n"

    def test_similarity_csv(self):
        cycles = cycle_decompose(build_oacm_permutation(single_square(3), 1, 1))
        out = io.StringIO()
        write_similarity_csv(similarity_curve(cycles, 4), out)
        assert out.getvalue() == (
            "k,similarity\n"
            "1,0.111111111111\n"
            "2,0.111111111111\n"
            "3,0.111111111111\n"
            "4,1\n"
        )
