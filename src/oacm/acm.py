"""Generalized Arnold cat map on an N x N lattice.

The map sends a lattice point (x, y) to (x + p*y, q*x + (1 + p*q)*y) mod n.
The classic cat map is p = q = 1.  All arithmetic is done on residues, so
entries never exceed 2*(n-1)^2 before reduction and machine integers are
safe for any lattice side this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, PeriodSearchError

# matrix_period factors by trial division, whose cost grows as sqrt(n); a
# prime side just below this bound takes about 0.12 s.
MAX_PERIOD_SIDE = 10**12


def check_map_params(p: int, q: int) -> None:
    """Refuse a negative map parameter."""
    if p < 0 or q < 0:
        raise ParameterError(f"p and q must be non-negative, got p={p}, q={q}")


@dataclass(frozen=True)
class AcmParams:
    """Map parameters (p, q) on an n x n lattice, stored reduced mod n."""

    p: int
    q: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"lattice side must be >= 1, got {self.n}")
        check_map_params(self.p, self.q)
        object.__setattr__(self, "p", self.p % self.n)
        object.__setattr__(self, "q", self.q % self.n)


Matrix = tuple[int, int, int, int]  # row-major entries (a, b; c, d), each in [0, n)


def map_matrix(params: AcmParams) -> Matrix:
    """The forward map as a matrix: [[1, p], [q, 1 + p*q]] mod n."""
    p, q, n = params.p, params.q, params.n
    return 1 % n, p, q, (1 + p * q) % n


def _mul(x: Matrix, y: Matrix, n: int) -> Matrix:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g) % n, (a * f + b * h) % n, (c * e + d * g) % n, (c * f + d * h) % n


def _power(m: Matrix, z: int, n: int) -> Matrix:
    """m**z mod n for z >= 0, by square and multiply."""
    result = (1 % n, 0, 0, 1 % n)
    while z:
        if z & 1:
            result = _mul(result, m, n)
        z >>= 1
        if z:
            m = _mul(m, m, n)
    return result


def _factor(m: int) -> dict[int, int]:
    """Prime -> exponent for m >= 1, by trial division."""
    factors: dict[int, int] = {}
    r = 2
    while r * r <= m:
        while m % r == 0:
            factors[r] = factors.get(r, 0) + 1
            m //= r
        r += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def matrix_period(params: AcmParams) -> int:
    """Smallest P >= 1 with A**P = I mod n, found by order reduction.

    The order of any determinant-1 matrix mod p**e divides p**e * (p*p - 1),
    so M = lcm over p**e || n of p**e * (p*p - 1) is a multiple of the
    period (Dyson and Falk, "Period of a discrete cat mapping", Amer. Math.
    Monthly 1992, who also show P <= 3n).  For each prime r with r**e || M,
    B = A**(M / r**e) has order r**j for some j <= e, found by raising B to
    the r-th power until it is the identity; the period is the product of
    these r**j.  Each prime costs one power to the full exponent, so the
    work depends on the number of primes of M and not on how many of their
    factors the period drops.  Every factorization is by trial division up
    to sqrt(n + 1), so a side above MAX_PERIOD_SIDE is refused before any
    factoring.
    """
    n = params.n
    if n > MAX_PERIOD_SIDE:
        raise ParameterError(f"lattice side {n} exceeds the limit {MAX_PERIOD_SIDE}")
    a, ident = map_matrix(params), (1 % n, 0, 0, 1 % n)
    multiple = 1
    primes: set[int] = set()
    for p, e in _factor(n).items():
        multiple = math.lcm(multiple, p**e * (p * p - 1))
        primes.update((p,), _factor(p - 1), _factor(p + 1))
    if _power(a, multiple, n) != ident:
        raise PeriodSearchError(f"A**{multiple} is not the identity mod n = {n}")
    period = 1
    for r in primes:
        rest = multiple
        while rest % r == 0:
            rest //= r
        b = _power(a, rest, n)
        while b != ident:
            b = _power(b, r, n)
            period *= r
    return period
