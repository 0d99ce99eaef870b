"""Correctness checks made apart from oacm.

Each check is either a reference computation written here from the
method's definition or a property every correct result must have.  A
check returns a list of problems; an empty list means the result passed.
None of them calls into oacm.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

# ln g(n) <= MASSIAS * sqrt(n ln n) for every n >= 1 (Massias 1984).
MASSIAS = 1.05313


# -- the pass, from the definition -------------------------------------------


def cover_corners(height: int, width: int, size: int, overlap: int) -> list[tuple[int, int]]:
    """Square corners (x, y), row-major.

    Along each axis: the multiples of the step that leave the square short
    of the far edge, plus one square flush against that edge.
    """

    def axis(length: int) -> list[int]:
        return sorted(set(range(0, length - size, size - overlap)) | {length - size})

    return [(x, y) for y in axis(height) for x in axis(width)]


def pass_order(corners: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The order the pinned periods fix: rows top to bottom, right to left in a row."""
    return sorted(corners, key=lambda c: (c[1], -c[0]))


def reference_pass(grid: np.ndarray, corners, size: int, p: int, q: int) -> np.ndarray:
    """One pass over a (height, width[, channels]) array, square by square.

    Inside each square the content at local (x, y) moves to
    (x + p*y, q*x + (1 + p*q)*y) mod size.
    """
    ly, lx = np.divmod(np.arange(size * size), size)
    dx = (lx + p * ly) % size
    dy = (q * lx + (1 + p * q) * ly) % size
    out = grid.copy()
    for x0, y0 in pass_order(corners):
        block = out[y0 : y0 + size, x0 : x0 + size].copy()
        out[y0 + dy, x0 + dx] = block[ly, lx]
    return out


def reference_forward(height: int, width: int, corners, size: int, p: int, q: int) -> np.ndarray:
    """forward[i] = where pixel i lands after one pass, from an occupant grid."""
    n = height * width
    occupant = reference_pass(np.arange(n).reshape(height, width), corners, size, p, q)
    forward = np.empty(n, dtype=np.int64)
    forward[occupant.ravel()] = np.arange(n)
    return forward


def orbit_lengths(forward: np.ndarray) -> list[int]:
    """Orbit lengths by a plain walk of the permutation."""
    fwd = forward.tolist()
    seen = bytearray(len(fwd))
    lengths = []
    for i in range(len(fwd)):
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            j = fwd[j]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def fixed_point_counts(forward: np.ndarray, k_max: int) -> list[int]:
    """counts[k-1] = pixels back home after k passes, by composing k times."""
    home = np.arange(forward.size)
    at = home
    counts = []
    for _ in range(k_max):
        at = forward[at]
        counts.append(int(np.count_nonzero(at == home)))
    return counts


def scientific(value: int) -> str:
    """Two significant figures, rounded half up, as in 9.2e+489."""
    exponent = len(str(value)) - 1
    if exponent == 0:
        return f"{value}.0e+0"
    unit = 10 ** (exponent - 1)
    head, rest = divmod(value, unit)
    head += 2 * rest >= unit
    if head == 100:
        head, exponent = 10, exponent + 1
    return f"{head // 10}.{head % 10}e+{exponent}"


# -- photo_scramble ------------------------------------------------------------


def check_round_trip(plain: bytes, restored: bytes) -> list[str]:
    if restored != plain:
        return ["descramble did not restore the input bytes"]
    return []


def check_period_pass(
    period: int, expected_scientific: str, one_pass: np.ndarray, after_period_plus_one: np.ndarray
) -> list[str]:
    """P + 1 passes equal one pass, and P reads as the paper's figure."""
    problems = []
    if scientific(period) != expected_scientific:
        problems.append(f"period reads {scientific(period)}, expected {expected_scientific}")
    if not np.array_equal(one_pass, after_period_plus_one):
        problems.append("P + 1 iterations differ from the reference single pass")
    return problems


# -- cover_analysis ------------------------------------------------------------


def check_cover(
    reference: np.ndarray,
    lengths: list[int],
    forward: np.ndarray,
    period: int,
    bins: dict[int, int],
    total_pixels: int,
    points: list[tuple[int, Fraction]],
    home_counts: list[int],
) -> list[str]:
    """Compare one configuration's pass, period, histogram and curve with the references.

    reference and lengths are the occupant-grid pass and its plain-walk
    orbit lengths; home_counts are brute-force fixed-point counts of the
    first powers of that pass.
    """
    problems = []
    if not np.array_equal(forward, reference):
        problems.append("pass differs from the occupant-grid reference")
    if period != math.lcm(*lengths):
        problems.append("period is not the lcm of the orbit lengths")
    if bins != dict(Counter(lengths)) or total_pixels != reference.size:
        problems.append("histogram differs from the orbit-length counts")
    if [k for k, _ in points] != list(range(1, len(points) + 1)):
        problems.append("similarity curve does not list k = 1, 2, ...")
    for k, count in enumerate(home_counts, start=1):
        if k <= len(points) and points[k - 1][1] != Fraction(count, reference.size):
            problems.append(f"similarity at k={k} differs from the fixed-point count")
            break
    if any((s == 1) != (k % period == 0) for k, s in points):
        problems.append("similarity reads 1 away from the multiples of the period")
    home_at_period = sum(length * count for length, count in bins.items() if period % length == 0)
    if home_at_period != total_pixels:
        problems.append("similarity at the period is not 1")
    return problems


# -- period_bounds -------------------------------------------------------------


def prime_factors(value: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= value:
        if value % d == 0:
            factors.append(d)
            while value % d == 0:
                value //= d
        d += 1
    if value > 1:
        factors.append(value)
    return factors


def check_landau(n: int, g: int, series, reference_g: int) -> list[str]:
    """The witness parts, Massias' bound and the stored knapsack value."""
    problems = []
    bases = []
    for part in series:
        factors = prime_factors(part)
        if len(factors) != 1:
            problems.append(f"witness part {part} is not a prime power")
        bases.extend(factors)
    if len(set(bases)) != len(bases):
        problems.append("witness parts share a prime")
    if sum(series) > n:
        problems.append(f"witness parts sum to {sum(series)} > n = {n}")
    if math.prod(series) != g:
        problems.append("witness parts do not multiply to g")
    if not math.log(g) <= MASSIAS * math.sqrt(n * math.log(n)):
        problems.append("ln g exceeds Massias' bound")
    if g != reference_g:
        problems.append("g differs from the textbook knapsack")
    return problems


def _mat_mul(x, y, n):
    return (
        (x[0] * y[0] + x[1] * y[2]) % n,
        (x[0] * y[1] + x[1] * y[3]) % n,
        (x[2] * y[0] + x[3] * y[2]) % n,
        (x[2] * y[1] + x[3] * y[3]) % n,
    )


def _mat_pow(m, e: int, n: int):
    result = (1 % n, 0, 0, 1 % n)
    while e:
        if e & 1:
            result = _mat_mul(result, m, n)
        m = _mat_mul(m, m, n)
        e >>= 1
    return result


def check_matrix_period(n: int, p: int, q: int, period: int) -> list[str]:
    """A^P = I, A^(P/r) != I for each prime r | P, and P <= 3n."""
    a = (1, p, q, 1 + p * q)
    ident = (1 % n, 0, 0, 1 % n)
    problems = []
    if not 1 <= period <= 3 * n:
        return [f"period {period} is outside [1, 3n]"]
    if _mat_pow(a, period, n) != ident:
        problems.append(f"A^{period} is not the identity mod {n}")
    for r in prime_factors(period):
        if _mat_pow(a, period // r, n) == ident:
            problems.append(f"A^({period}/{r}) is already the identity: period not minimal")
    return problems
