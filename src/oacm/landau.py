"""Maximal permutation order on n elements (Landau's function).

g(n) is the largest LCM over all integer partitions of n and bounds the
period of any pixel permutation on n pixels.  The optimum is a product of
powers of distinct primes whose sum is at most n (the rest of the partition
is padding 1s), so g(n) is a knapsack in which each prime contributes at
most one of its powers.  The largest prime dividing g(n) is below
1.328 * sqrt(n ln n) (Massias, Nicolas & Robin, Math. Comp. 1989), so only
primes up to a bound with margin over that take part.

Most exponents are fixed before any knapsack runs, by the Lagrangian bound
of Nicolas (1969) as used by Deléglise, Nicolas & Zimmermann ("Landau's
function for one million billions", J. Théor. Nombres Bordeaux 20, 2008).
Write l(p^k) = p^k for k >= 1 and l(p^0) = 0.  For rho > 0 the superchampion
N_rho gives each prime p the exponent k*_p that maximises
phi_p(k) = k log p - rho l(p^k), and rho is chosen so that the parts of N_rho
sum to l(N_rho) <= n.  Parts p^(k_p) summing to at most n then have

    sum k_p log p <= log N_rho + rho (n - l(N_rho)) - sum (phi_p(k*_p) - phi_p(k_p)),

where no term of the last sum is negative.  So if a feasible series gives
log g(n) >= L, no prime loses more than B = rho (n - l(N_rho)) - (L - log N_rho)
in the optimum, and a prime whose every other exponent loses more than B
keeps k*_p.  The primes within B of losing nothing lie in a window of width
about B / rho around 1/rho ~ sqrt(n ln n), which holds about
B sqrt(n ln n) / ln^2 n primes.  The solve leaves free the
8 sqrt(n ln n) / ln^2 n primes that lose least (50 of 180 at 48,000, 208 of
1,034 at 2,073,600), and its series gives the L that sets B.  Over 325 n
from 1,000 to 2,073,600 the primes within that B numbered at most
7.9 sqrt(n ln n) / ln^2 n at 99 % of n, so the knapsack almost always runs
once, on the same number of primes for every n of a size; where B frees a
prime held fixed, it runs again with that prime free.

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
from .tiling import check_pixels

DEFAULT_CEILING = 1920 * 1080

# Up to the default ceiling a float log here is a sum of at most ~1,040
# terms below 2**13, each addition off by at most half an ulp (4.6e-13), so
# it lies within 5e-10 of its exact value and the best split scores within
# 1e-9 of the top.  Every split within _TIE of the top is solved exactly.
_TIE = 1e-8
# A loss is two terms below 15 and B three below 6,000 in size, so each lies
# within 1e-11 of its exact value.  A prime is fixed only when its least loss
# exceeds B by more than _SLACK.
_SLACK = 1e-8
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


def _superchampion(primes: list[int], n: int) -> tuple[float, list[int]]:
    """rho and N_rho's part p^(k*_p) of each prime (0 where k*_p = 0), for
    the largest superchampion N_rho whose parts sum to at most n.

    As rho falls, N_rho gains a factor p where rho passes
    log p / (l(p^(k+1)) - l(p^k)).  These steps are taken from the largest
    rho down until the next one would take the sum past n, and rho is that
    step's value, so every k*_p maximises phi_p at rho.
    """
    steps = []  # (rho of the step, index of p, p's part after it)
    for i, p in enumerate(primes):
        log_p, part, power = math.log(p), 0, p
        while power <= n:
            steps.append((log_p / (power - part), i, power))
            part, power = power, power * p
    steps.sort(key=lambda step: -step[0])  # stable: a prime's steps stay in order
    parts = [0] * len(primes)
    for rho, i, power in steps:
        n -= power - parts[i]
        if n < 0:
            return rho, parts
        parts[i] = power
    return 0.0, parts


def _free_count(n: int) -> int:
    """How many primes the first solve leaves free: 8 sqrt(n ln n) / ln^2 n."""
    log_n = math.log(max(n, 2))
    return math.ceil(8 * math.sqrt(n * log_n) / log_n**2)


def _fix_and_solve(primes: list[int], n: int) -> list[int]:
    """_solve(primes, n), run only on the primes the Lagrangian bound leaves free."""
    rho, parts = _superchampion(primes, n)
    losses = []  # the least phi_p lost by moving p off its part in N_rho
    for p, part in zip(primes, parts):
        lower, upper = part // p if part > p else 0, part * p if part else p
        down = math.log(p) - rho * (part - lower) if part else math.inf
        up = rho * (upper - part) - math.log(p) if upper <= n else math.inf
        losses.append(min(down, up))
    spare = rho * (n - sum(parts))
    by_loss = sorted(range(len(primes)), key=losses.__getitem__)
    free = set(by_loss[: _free_count(n)])
    while True:
        held = [i for i in range(len(primes)) if i not in free]
        fixed = [parts[i] for i in held if parts[i]]
        free_sorted = sorted(free)
        solved = _solve([primes[i] for i in free_sorted], n - sum(fixed))
        # B for L = log of this series: the fixed parts cancel out of L - log N_rho
        bound = spare + math.log(math.prod(parts[i] or 1 for i in free_sorted)) - math.log(math.prod(solved))
        wider = [i for i in held if losses[i] <= bound + _SLACK]
        if not wider:
            return fixed + solved  # every prime held fixed loses more than B
        free.update(wider)


def _primes(n: int) -> list[int]:
    """Every prime that may divide g(n), with margin over the Massias-Nicolas-Robin bound."""
    return _sieve(min(n, max(64, round(1.5 * math.sqrt(n * math.log(n))))))


def landau_g(n: int) -> LandauResult:
    """Exact g(n) with a witnessing series, for 1 <= n <= DEFAULT_CEILING."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > DEFAULT_CEILING:
        raise ParameterError(f"n = {n} exceeds the limit {DEFAULT_CEILING} (1920 x 1080 pixels)")
    series = tuple(sorted(_fix_and_solve(_primes(n), n)))
    return LandauResult(n, math.prod(series), series)


def period_bound_for_image(height: int, width: int) -> LandauResult:
    """Upper bound on any scramble period of a height x width image: g(pixels)."""
    check_pixels(height, width)
    return landau_g(height * width)
