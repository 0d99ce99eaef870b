"""Orbit statistics: the image period, length histograms and similarity curves.

Similarity after k iterations is the fraction of pixels sitting at their
original index, which depends only on the orbit-length histogram: a pixel
on a length-L orbit is home exactly when L divides k.  All values are
exact rationals; the curve hits 1 precisely at multiples of the image
period and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

import numpy as np

from .errors import ParameterError
from .permutation import CycleDecomposition


@dataclass(frozen=True)
class OrbitHistogram:
    """Count of cycles per distinct cycle length."""

    bins: dict[int, int]
    total_pixels: int


@dataclass(frozen=True, eq=False)
class SimilarityCurve:
    """Pixels home after k iterations, home[k - 1] for k in 1..home.size,
    out of total_pixels."""

    home: np.ndarray
    total_pixels: int

    @property
    def points(self) -> tuple[tuple[int, Fraction], ...]:
        """(k, similarity) for every k, as exact rationals.  Few distinct
        counts recur across k; each is one Fraction shared by all its k, so
        a held tuple costs about a pair per k."""
        counts, which = np.unique(self.home, return_inverse=True)
        values = [Fraction(count, self.total_pixels) for count in counts.tolist()]
        return tuple(enumerate(map(values.__getitem__, which.tolist()), start=1))


def orbit_histogram(cycles: CycleDecomposition) -> OrbitHistogram:
    # Every count of distinct lengths comes through here.  return_counts
    # takes numpy's sorting path: on numpy 2.4 the hashing one that plain
    # unique takes was 7x slower on a million lengths, and its first call
    # left a process 1.6 MB larger
    lengths, counts = np.unique(cycles.lengths, return_counts=True)
    bins = dict(zip(lengths.tolist(), counts.tolist()))
    return OrbitHistogram(bins, cycles.height * cycles.width)


def image_period(cycles: CycleDecomposition) -> int:
    """Exact image period: least common multiple of the orbit lengths."""
    return math.lcm(*orbit_histogram(cycles).bins)


def similarity_at(cycles: CycleDecomposition, k: int) -> Fraction:
    """Fraction of pixels back at their original index after k iterations.

    k may be arbitrarily large; only divisibility against the distinct
    orbit lengths is evaluated, never the permutation itself.
    """
    if k < 1:
        raise ParameterError(f"iteration count must be >= 1, got {k}")
    hist = orbit_histogram(cycles)
    home = sum(length * count for length, count in hist.bins.items() if k % length == 0)
    return Fraction(home, hist.total_pixels)


def similarity_curve(cycles: CycleDecomposition, k_max: int) -> SimilarityCurve:
    """Similarity at every k in 1..k_max."""
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
    hist = orbit_histogram(cycles)
    # Sieve: a length-L orbit puts its L pixels home at every multiple of L.
    home = np.zeros(k_max + 1, dtype=np.int64)
    for length, count in hist.bins.items():
        home[length::length] += length * count
    return SimilarityCurve(home[1:], hist.total_pixels)


def write_histogram_csv(hist: OrbitHistogram, stream: IO[str]) -> None:
    """Rows of length,count; lengths ascending."""
    stream.write("length,count\n")
    stream.write("".join(f"{length},{hist.bins[length]}\n" for length in sorted(hist.bins)))


def write_similarity_csv(curve: SimilarityCurve, stream: IO[str]) -> None:
    """Rows of k,similarity with similarity as a 12-significant-digit decimal.

    Both counts are below 2**53, so numpy's float64 home / total_pixels is
    the correctly rounded quotient that float(Fraction) gives.  Counts are
    converted and written a chunk of k at a time; no field needs quoting."""
    stream.write("k,similarity\n")
    for lo in range(0, curve.home.size, 1 << 14):
        values = (curve.home[lo : lo + (1 << 14)] / curve.total_pixels).tolist()
        stream.write("".join(f"{k},{s:.12g}\n" for k, s in enumerate(values, start=lo + 1)))
