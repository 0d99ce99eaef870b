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


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over Z_n, row-major entries (a, b; c, d)."""

    a: int
    b: int
    c: int
    d: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"modulus must be >= 1, got {self.n}")
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % self.n)

    @classmethod
    def identity(cls, n: int) -> "Mat2":
        return cls(1, 0, 0, 1, n)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        if self.n != other.n:
            raise ParameterError(f"modulus mismatch: {self.n} != {other.n}")
        n = self.n
        return Mat2(
            (self.a * other.a + self.b * other.c) % n,
            (self.a * other.b + self.b * other.d) % n,
            (self.c * other.a + self.d * other.c) % n,
            (self.c * other.b + self.d * other.d) % n,
            n,
        )


def map_matrix(params: AcmParams) -> Mat2:
    """The forward map as a matrix: [[1, p], [q, 1 + p*q]] mod n."""
    p, q, n = params.p, params.q, params.n
    return Mat2(1, p, q, 1 + p * q, n)


def mat_power_mod(m: Mat2, z: int) -> Mat2:
    """m**z with every intermediate product reduced mod n (square and multiply)."""
    if z < 0:
        raise ParameterError(f"exponent must be >= 0, got {z}")
    result = Mat2.identity(m.n)
    base = m
    while z:
        if z & 1:
            result = result @ base
        z >>= 1
        if z:
            base = base @ base
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
    Monthly 1992, who also show P <= 3n).  Each prime r of M is divided out
    while A**(M/r) is still the identity, which leaves the smallest period.
    Every factorization is by trial division up to sqrt(n + 1), so a side
    above MAX_PERIOD_SIDE is refused before any factoring.
    """
    if params.n > MAX_PERIOD_SIDE:
        raise ParameterError(f"lattice side {params.n} exceeds the limit {MAX_PERIOD_SIDE}")
    a = map_matrix(params)
    ident = Mat2.identity(params.n)
    period = 1
    primes: set[int] = set()
    for p, e in _factor(params.n).items():
        period = math.lcm(period, p**e * (p * p - 1))
        primes.update((p,), _factor(p - 1), _factor(p + 1))
    if mat_power_mod(a, period) != ident:
        raise PeriodSearchError(f"A**{period} is not the identity mod n = {params.n}")
    for r in primes:
        while period % r == 0 and mat_power_mod(a, period // r) == ident:
            period //= r
    return period
