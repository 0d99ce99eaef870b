"""Orbit statistics: length histograms, similarity curves, recurrence peaks.

Similarity after k iterations is the fraction of pixels sitting at their
original index, which depends only on the orbit-length histogram: a pixel
on a length-L orbit is home exactly when L divides k.  All values are
exact rationals; the curve hits 1 precisely at multiples of the image
period and nowhere else.
"""

from __future__ import annotations

import csv
from collections import Counter
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


@dataclass(frozen=True)
class SimilarityCurve:
    points: tuple[tuple[int, Fraction], ...]


def orbit_histogram(cycles: CycleDecomposition) -> OrbitHistogram:
    counts = Counter(int(l) for l in cycles.lengths)
    return OrbitHistogram(dict(sorted(counts.items())), cycles.height * cycles.width)


def _similarity_from_hist(hist: OrbitHistogram, k: int) -> Fraction:
    home = sum(length * count for length, count in hist.bins.items() if k % length == 0)
    return Fraction(home, hist.total_pixels)


def similarity_at(cycles: CycleDecomposition, k: int) -> Fraction:
    """Fraction of pixels back at their original index after k iterations.

    k may be arbitrarily large; only divisibility against the distinct
    orbit lengths is evaluated, never the permutation itself.
    """
    if k < 1:
        raise ParameterError(f"iteration count must be >= 1, got {k}")
    return _similarity_from_hist(orbit_histogram(cycles), k)


def similarity_curve(cycles: CycleDecomposition, k_max: int) -> SimilarityCurve:
    """Similarity at every k in 1..k_max."""
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
    hist = orbit_histogram(cycles)
    # Sieve: a length-L orbit puts its L pixels home at every multiple of L.
    home = np.zeros(k_max + 1, dtype=np.int64)
    for length, count in hist.bins.items():
        home[length::length] += length * count
    # Few distinct home counts recur across k; build each Fraction once.
    fractions: dict[int, Fraction] = {}
    points = []
    for k, value in enumerate(home.tolist()[1:], start=1):
        frac = fractions.get(value)
        if frac is None:
            frac = fractions[value] = Fraction(value, hist.total_pixels)
        points.append((k, frac))
    return SimilarityCurve(tuple(points))


def recurrence_peaks(curve: SimilarityCurve, threshold: Fraction | float) -> list[int]:
    """Iterations below the image period where similarity reaches the threshold.

    Similarity is exactly 1 only at multiples of the period, so the first
    such point in the curve marks the period; everything at or past it is
    excluded.
    """
    if not 0 < threshold <= 1:
        raise ParameterError(f"threshold must be in (0, 1], got {threshold}")
    period_k = next((k for k, s in curve.points if s == 1), None)
    return [
        k
        for k, s in curve.points
        if s >= threshold and (period_k is None or k < period_k)
    ]


def write_histogram_csv(hist: OrbitHistogram, stream: IO[str]) -> None:
    """Rows of length,count; lengths ascending."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["length", "count"])
    for length in sorted(hist.bins):
        writer.writerow([length, hist.bins[length]])


def write_similarity_csv(curve: SimilarityCurve, stream: IO[str]) -> None:
    """Rows of k,similarity with similarity as a 12-significant-digit decimal."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["k", "similarity"])
    for k, s in curve.points:
        writer.writerow([k, f"{float(s):.12g}"])
