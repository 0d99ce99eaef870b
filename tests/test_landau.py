"""Maximal permutation order g(n) and its witness partitions."""

import hashlib
import math
import random

import pytest

import oacm.landau
from helpers import landau_g_bruteforce, landau_table_reference
from oacm import ParameterError, landau_g, period_bound_for_image
from oacm.landau import DEFAULT_CEILING, _primes, _solve, _superchampion


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

    def test_pinned_at_ceiling(self):
        result = landau_g(2073600)
        digits = str(result.g)
        assert len(digits) == 2511
        assert hashlib.sha256(digits.encode()).hexdigest() == (
            "8f333ffb7341806e19e7c24a5d35769a330df9970e07c7e3493b78c0d41ebeb0"
        )
        assert len(result.series) == 763
        assert sum(result.series) == 2073600
        assert result.series[-3:] == (5807, 5821, 5827)


def superchampion_sum(n):
    """l(N_rho) for the superchampion landau_g starts from at n."""
    return sum(_superchampion(_primes(n), n)[1])


class TestLagrangianReduction:
    # n = l(N_rho) leaves no budget beyond the superchampion, n = l(N_rho) - 1
    # the most (it falls back to the superchampion before), n = l(N_rho) + 1 one.
    EDGES = [m + d for m in map(superchampion_sum, (20000, 120000, 290000)) for d in (-1, 0, 1)]

    def test_matches_unreduced_knapsack(self):
        sample = random.Random(20261020).sample(range(3001, 300001), 5)
        for n in sample + self.EDGES:
            assert landau_g(n).series == tuple(sorted(_solve(_primes(n), n))), n

    def test_unchanged_when_no_prime_is_fixed(self, monkeypatch):
        sizes = list(range(1, 201)) + [48000] + self.EDGES[:3]
        expected = [landau_g(n).series for n in sizes]
        monkeypatch.setattr("oacm.landau._SLACK", math.inf)
        assert [landau_g(n).series for n in sizes] == expected

    def test_unchanged_when_the_first_solve_frees_too_few(self, monkeypatch):
        # with no prime free at first, every free prime comes from widening by B
        sizes = list(range(1, 201)) + random.Random(7).sample(range(201, 100001), 5) + self.EDGES
        expected = [landau_g(n).series for n in sizes]
        monkeypatch.setattr("oacm.landau._free_count", lambda n: 0)
        assert [landau_g(n).series for n in sizes] == expected

    @pytest.mark.parametrize("n", [47915, 48000, 48057, 262144, 2073600])
    def test_one_solve_at_image_sizes(self, monkeypatch, n):
        # the first solve takes exactly _free_count(n) primes, its halves fewer,
        # and a second solve more
        sizes = []
        solve = oacm.landau._solve

        def spy(primes, m):
            sizes.append(len(primes))
            return solve(primes, m)

        monkeypatch.setattr("oacm.landau._solve", spy)
        landau_g(n)
        assert max(sizes) == oacm.landau._free_count(n)

    @pytest.mark.parametrize("n", [48000, 262144, 2073600])
    def test_most_primes_are_fixed(self, monkeypatch, n):
        # the largest call is a top-level one: every other is a half of one
        largest = 0
        solve = oacm.landau._solve

        def spy(primes, m):
            nonlocal largest
            largest = max(largest, len(primes))
            return solve(primes, m)

        monkeypatch.setattr("oacm.landau._solve", spy)
        landau_g(n)
        assert 0 < largest <= len(_primes(n)) // 2, (largest, len(_primes(n)))


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
