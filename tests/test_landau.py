"""Maximal permutation order g(n) and its witness partitions."""

import math

import pytest

from helpers import landau_g_bruteforce, landau_table_reference
from oacm import (
    DEFAULT_CEILING,
    ParameterError,
    landau_g,
    period_bound_for_image,
)


def is_prime_power(m):
    if m < 2:
        return False
    for p in range(2, math.isqrt(m) + 1):
        if m % p == 0:
            while m % p == 0:
                m //= p
            return m == 1
    return True


class TestLandauG:
    def test_trivial(self):
        result = landau_g(1)
        assert result.g == 1
        assert result.series == ()

    def test_small_values(self):
        assert landau_g(5).g == 6
        assert landau_g(5).series == (2, 3)
        assert landau_g(10).g == 30
        assert landau_g(20).g == 420

    def test_matches_bruteforce(self):
        for n in range(1, 41):
            assert landau_g(n).g == landau_g_bruteforce(n), n

    def test_matches_exact_knapsack(self):
        table = landau_table_reference(3000)
        for n in range(1, 3001):
            assert landau_g(n).g == table[n], n

    def test_exact_when_splits_are_near_ties(self, monkeypatch):
        # A tie window of 0.3 in log makes many budget splits ambiguous, so
        # the answer rests on the exact comparison of every candidate split.
        monkeypatch.setattr("oacm.landau._TIE", 0.3)
        table = landau_table_reference(300)
        for n in range(1, 301):
            assert landau_g(n).g == table[n], n

    def test_monotone(self):
        values = [landau_g(n).g for n in range(1, 121)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_witness_is_valid(self):
        for n in range(1, 121):
            result = landau_g(n)
            assert math.lcm(*result.series) == result.g if result.series else result.g == 1
            assert sum(result.series) <= n
            assert all(is_prime_power(part) for part in result.series)
            for i, a in enumerate(result.series):
                for b in result.series[i + 1 :]:
                    assert math.gcd(a, b) == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            landau_g(0)

    def test_ceiling_enforced(self):
        with pytest.raises(ParameterError):
            landau_g(DEFAULT_CEILING + 1)


class TestBruteforce:
    def test_range_enforced(self):
        with pytest.raises(ParameterError):
            landau_g_bruteforce(0)
        with pytest.raises(ParameterError):
            landau_g_bruteforce(41)

    def test_known_values(self):
        assert landau_g_bruteforce(1) == 1
        assert landau_g_bruteforce(10) == 30
        assert landau_g_bruteforce(20) == 420


class TestPeriodBound:
    def test_single_pixel(self):
        assert period_bound_for_image(1, 1).g == 1

    def test_small_image(self):
        assert period_bound_for_image(5, 2).g == landau_g_bruteforce(10)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ParameterError):
            period_bound_for_image(0, 5)

    def test_ceiling_propagates(self):
        # 1081 x 1920 is one row over DEFAULT_CEILING; refused before any table is allocated
        with pytest.raises(ParameterError):
            period_bound_for_image(1081, 1920)
