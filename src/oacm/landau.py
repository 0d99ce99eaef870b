"""Maximal permutation order on n elements (Landau's function).

g(n) is the largest LCM over all integer partitions of n and bounds the
period of any pixel permutation on n pixels.  The optimum is a product of
powers of distinct primes whose sum is at most n (the rest of the partition
is padding 1s), so g(n) is a knapsack in which each prime contributes at
most one of its powers.  The largest prime dividing g(n) is below
1.328 * sqrt(n ln n) (Massias, Nicolas & Robin, Math. Comp. 1989), so only
primes up to a bound with margin over that take part.

The knapsack runs in float64 log space and keeps no back-pointers.  To
rebuild the parts exactly, the primes are split in halves, one float pass
over each half gives the best log for every sum of parts, the budget is
split where the two halves together do best, and each half is solved again
on its share, down to single primes.  Memory stays O(n) and the work is
about two float passes.  Every split within _TIE in log of the best is
solved and the products are compared as integers, so the result is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

DEFAULT_CEILING = 1920 * 1080

# Up to the default ceiling a float log here is a sum of at most ~1,040
# terms below 2**13, each addition off by at most half an ulp (4.6e-13), so
# it lies within 5e-10 of its exact value and the best split scores within
# 1e-9 of the top.  Every split within _TIE of the top is solved exactly.
_TIE = 1e-8
_CHUNK = 1 << 15


@dataclass(frozen=True)
class LandauResult:
    """g(n) together with a partition of at most n achieving it.

    series holds the non-1 parts: pairwise coprime prime powers whose LCM
    (equivalently product) is g.
    """

    n: int
    g: int
    series: tuple[int, ...]


def _sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if mask[i]:
            mask[i * i :: i] = False
    return [int(p) for p in np.nonzero(mask)[0]]


def _knapsack(primes: list[int], m: int) -> np.ndarray:
    """best[j]: largest log of a product of powers of distinct primes from
    primes whose sum is exactly j, or -inf where no such product exists."""
    best = np.full(m + 1, -np.inf)
    best[0] = 0.0
    cand = np.empty(min(m + 1, _CHUNK))
    power_cand = np.empty_like(cand)
    for p in primes:
        log_p = math.log(p)
        # Sums are updated one cache-sized chunk at a time from the top down,
        # so every candidate extends a sum that holds no power of p yet.
        for hi in range(m + 1, p, -_CHUNK):
            lo = max(hi - _CHUNK, p)
            c = cand[: hi - lo]
            np.add(best[lo - p : hi - p], log_p, out=c)
            pk, k = p * p, 2
            while pk < hi:
                s = max(lo, pk)
                e = power_cand[: hi - s]
                np.add(best[s - pk : hi - pk], k * log_p, out=e)
                np.maximum(c[s - lo :], e, out=c[s - lo :])
                pk *= p
                k += 1
            np.maximum(best[lo:hi], c, out=best[lo:hi])
    return best


def _solve(primes: list[int], m: int) -> list[int]:
    """Powers of distinct primes from primes, summing to at most m, with the
    largest product."""
    if not primes:
        return []
    if len(primes) == 1:  # the largest power of the prime that fits
        p = pk = primes[0]
        while pk * p <= m:
            pk *= p
        return [pk] if pk <= m else []
    low, high = primes[: len(primes) // 2], primes[len(primes) // 2 :]
    high_best = _knapsack(high, m)
    np.maximum.accumulate(high_best, out=high_best)  # parts summing to at most m - j
    score = _knapsack(low, m)
    score += high_best[::-1]
    near = np.flatnonzero(score >= score.max() - _TIE)
    del high_best, score
    return max((_solve(low, int(j)) + _solve(high, m - int(j)) for j in near), key=math.prod)


def landau_g(n: int) -> LandauResult:
    """Exact g(n) with a witnessing series, for 1 <= n <= DEFAULT_CEILING."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > DEFAULT_CEILING:
        raise ParameterError(f"n = {n} exceeds the limit {DEFAULT_CEILING} (1920 x 1080 pixels)")
    bound = max(64, round(1.5 * math.sqrt(n * math.log(n))))
    series = tuple(sorted(_solve(_sieve(min(n, bound)), n)))
    return LandauResult(n, math.prod(series), series)


def period_bound_for_image(height: int, width: int) -> LandauResult:
    """Upper bound on any scramble period of a height x width image: g(pixels)."""
    if height < 1 or width < 1:
        raise ParameterError(f"image dimensions must be >= 1, got {height}x{width}")
    return landau_g(height * width)
