"""The benchmark's workloads: inputs from a seed, timed operations, checks.

A workload runs in whole rounds of round_size operations; operate(i) is
the timed part of operation i, verify(i, output) checks its output outside
the timed part, and final_checks() and self_test() run once after the
timed loop.  Every call into oacm goes through the package's attributes
(oacm.cli.main, oacm.build_oacm_permutation, ...) so that a tracer can
wrap them.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import oacm
import oacm.cli
from checks import (
    check_cover,
    check_landau,
    check_matrix_period,
    check_period_pass,
    check_round_trip,
    cover_corners,
    fixed_point_counts,
    orbit_lengths,
    reference_forward,
    reference_pass,
)
from landau_reference import LANDAU_SHAPES, REFERENCE


class OperationFailed(Exception):
    """The program refused or failed an operation the workload expects to succeed."""


def swap_one_pixel(pixels: np.ndarray, channels: int) -> np.ndarray:
    """A copy with pixel 0 swapped for the first pixel that differs from it."""
    flat = pixels.reshape(-1, channels).copy()
    other = int(np.flatnonzero((flat != flat[0]).any(axis=1))[0])
    flat[[0, other]] = flat[[other, 0]]
    return flat.reshape(pixels.shape)


# -- photo_scramble ------------------------------------------------------------

PHOTO_HEIGHT, PHOTO_WIDTH = 1080, 1920
PHOTO_SQUARE, PHOTO_OVERLAP = 1080, 240
PHOTO_DIGITS = 480
# The image period of this two-square cover with p = q = 1, as the paper gives it.
PHOTO_PERIOD = "9.2e+489"


def _write_ppm(path: Path, pixels: np.ndarray) -> bytes:
    height, width, _ = pixels.shape
    data = f"P6\n{width} {height}\n255\n".encode() + pixels.tobytes()
    path.write_bytes(data)
    return data


def _ppm_pixels(data: bytes, height: int, width: int) -> np.ndarray:
    return np.frombuffer(data[-height * width * 3 :], dtype=np.uint8).reshape(height, width, 3)


def _write_key(path: Path, iterations: int) -> None:
    key = {"square_size": PHOTO_SQUARE, "overlap": PHOTO_OVERLAP, "p": 1, "q": 1}
    path.write_text(json.dumps({**key, "iterations": str(iterations)}))


class PhotoScramble:
    """Alternating oacm scramble and descramble of a 1080x1920 RGB file."""

    round_size = 2

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.pixels = np.random.default_rng(seed).integers(
            0, 256, size=(PHOTO_HEIGHT, PHOTO_WIDTH, 3), dtype=np.uint8
        )
        self.iterations = random.Random(seed).randrange(10 ** (PHOTO_DIGITS - 1), 10**PHOTO_DIGITS)
        self.plain = workdir / "plain.ppm"
        self.plain_bytes = _write_ppm(self.plain, self.pixels)
        self.key = workdir / "key.json"
        _write_key(self.key, self.iterations)
        self.scrambled = workdir / "scrambled.ppm"
        self.restored = workdir / "restored.ppm"
        self.first_scramble = None
        self.period_case = None

    def pixels_of(self, i: int) -> int:
        return PHOTO_HEIGHT * PHOTO_WIDTH

    def _cli(self, *argv) -> None:
        status = oacm.cli.main([str(a) for a in argv])
        if status != 0:
            raise OperationFailed(f"oacm {argv[0]} exited with {status}")

    def operate(self, i: int):
        if i == 0:
            self._cli("scramble", "--key", self.key, "--in", self.plain, "--out", self.scrambled)
        else:
            self._cli("descramble", "--key", self.key, "--in", self.scrambled, "--out", self.restored)

    def verify(self, i: int, output) -> list[str]:
        if i == 1:
            return check_round_trip(self.plain_bytes, self.restored.read_bytes())
        data = self.scrambled.read_bytes()
        if self.first_scramble is None:
            self.first_scramble = data
            if data == self.plain_bytes:
                return ["scramble left the image unchanged"]
        elif data != self.first_scramble:
            return ["scramble output changed between repeats"]
        return []

    def final_checks(self) -> list[str]:
        problems = []
        corners = cover_corners(PHOTO_HEIGHT, PHOTO_WIDTH, PHOTO_SQUARE, PHOTO_OVERLAP)
        tiling = oacm.square_locations(
            oacm.TilingParams(PHOTO_HEIGHT, PHOTO_WIDTH, PHOTO_SQUARE, PHOTO_OVERLAP)
        )
        if list(tiling.squares) != corners:
            problems.append(f"cover {list(tiling.squares)} differs from the reference {corners}")
        period = oacm.image_period(oacm.cycle_decompose(oacm.build_oacm_permutation(tiling, 1, 1)))
        key = self.workdir / "key-period.json"
        after = self.workdir / "period-plus-one.ppm"
        _write_key(key, period + 1)
        self._cli("scramble", "--key", key, "--in", self.plain, "--out", after)
        after_pixels = _ppm_pixels(after.read_bytes(), PHOTO_HEIGHT, PHOTO_WIDTH)
        one_pass = reference_pass(self.pixels, corners, PHOTO_SQUARE, 1, 1)
        self.period_case = (period, one_pass, after_pixels)
        return problems + check_period_pass(period, PHOTO_PERIOD, one_pass, after_pixels)

    def self_test(self) -> list[str]:
        period, one_pass, after = self.period_case
        plain = np.frombuffer(self.plain_bytes, dtype=np.uint8)
        header = len(self.plain_bytes) - self.pixels.size
        bad_restore = plain[:header].tobytes() + swap_one_pixel(plain[header:], 3).tobytes()
        missed = []
        if not check_round_trip(self.plain_bytes, bad_restore):
            missed.append("round trip accepted one swapped pixel")
        if not check_period_pass(period, PHOTO_PERIOD, one_pass, swap_one_pixel(after, 3)):
            missed.append("P + 1 pass accepted one swapped pixel")
        if not check_period_pass(period * 2, PHOTO_PERIOD, one_pass, after):
            missed.append("P + 1 pass accepted a period off by a factor 2")
        return missed


# -- cover_analysis ------------------------------------------------------------

COVER_HEIGHT, COVER_WIDTH, COVER_SQUARE, COVER_OVERLAP = 96, 128, 24, 23
COVER_PQ_MAX = 5
COVER_CONFIGS = 6
COVER_KMAX = 20_000
COVER_BRUTE_K = 32


class CoverAnalysis:
    """Periodicity analysis of a dense cover, one (p, q) configuration per operation."""

    def __init__(self, seed: int, workdir: Path):
        pairs = [(p, q) for p in range(1, COVER_PQ_MAX + 1) for q in range(1, COVER_PQ_MAX + 1)]
        self.configs = random.Random(seed).sample(pairs, COVER_CONFIGS)
        self.round_size = len(self.configs)
        self.first = {}

    def pixels_of(self, i: int) -> int:
        return COVER_HEIGHT * COVER_WIDTH

    def operate(self, i: int):
        p, q = self.configs[i]
        tiling = oacm.square_locations(
            oacm.TilingParams(COVER_HEIGHT, COVER_WIDTH, COVER_SQUARE, COVER_OVERLAP)
        )
        perm = oacm.build_oacm_permutation(tiling, p, q)
        cycles = oacm.cycle_decompose(perm)
        period = oacm.image_period(cycles)
        hist = oacm.orbit_histogram(cycles)
        curve = oacm.similarity_curve(cycles, COVER_KMAX)
        return tiling, perm, period, hist, curve

    def verify(self, i: int, output) -> list[str]:
        tiling, perm, period, hist, curve = output
        output = (
            list(tiling.squares),
            perm.forward.copy(),
            period,
            dict(hist.bins),
            hist.total_pixels,
            list(curve.points),
        )
        first = self.first.setdefault(i, output)
        same = all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(first, output)
        )
        return [] if same else [f"configuration {self.configs[i]} changed between repeats"]

    def _references(self, i: int):
        p, q = self.configs[i]
        corners = cover_corners(COVER_HEIGHT, COVER_WIDTH, COVER_SQUARE, COVER_OVERLAP)
        reference = reference_forward(COVER_HEIGHT, COVER_WIDTH, corners, COVER_SQUARE, p, q)
        return corners, reference, orbit_lengths(reference), fixed_point_counts(reference, COVER_BRUTE_K)

    def final_checks(self) -> list[str]:
        problems = []
        self.references = {}
        for i, (squares, forward, period, bins, total, points) in sorted(self.first.items()):
            corners, reference, lengths, homes = self.references[i] = self._references(i)
            found = check_cover(reference, lengths, forward, period, bins, total, points, homes)
            if squares != corners:
                found.append("cover differs from the reference corners")
            problems += [f"{self.configs[i]}: {problem}" for problem in found]
        return problems

    def self_test(self) -> list[str]:
        squares, forward, period, bins, total, points = self.first[0]
        _, reference, lengths, homes = self.references[0]
        good = dict(
            reference=reference, lengths=lengths, forward=forward, period=period,
            bins=bins, total_pixels=total, points=points, home_counts=homes,
        )

        def accepts(**corruption) -> bool:
            return not check_cover(**{**good, **corruption})

        swapped = forward.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        extra = dict(bins)
        extra[min(extra)] += 1
        shifted = list(points)
        shifted[0] = (1, shifted[0][1] + Fraction(1, total))
        missed = []
        if accepts(forward=swapped):
            missed.append("pass check accepted one swapped pixel")
        if accepts(period=period * 2):
            missed.append("period check accepted a period off by a factor 2")
        if accepts(bins=extra):
            missed.append("histogram check accepted a wrong count")
        if accepts(points=shifted):
            missed.append("similarity check accepted a wrong point")
        return missed


# -- period_bounds -------------------------------------------------------------

# Primes = +-2 mod 5 whose classic-map period is side + 1, so the search runs side + 1 steps.
LATTICE_SIDES = [200003, 200017, 200023, 200033, 200117, 200177, 200227, 200237]


class PeriodBounds:
    """Landau's bound g for a ~48,000-pixel image plus the cat map's period on a long lattice."""

    round_size = 1

    def __init__(self, seed: int, workdir: Path):
        rnd = random.Random(seed)
        self.shape = rnd.choice(LANDAU_SHAPES)
        self.side = rnd.choice(LATTICE_SIDES)
        stored = json.loads(REFERENCE.read_text())
        self.reference_g = int(stored[str(self.shape[0] * self.shape[1])])
        self.first = None

    def pixels_of(self, i: int) -> int:
        return self.shape[0] * self.shape[1]

    def operate(self, i: int):
        bound = oacm.period_bound_for_image(*self.shape)
        period = oacm.matrix_period(oacm.AcmParams(1, 1, self.side))
        return bound.n, bound.g, tuple(bound.series), period

    def verify(self, i: int, output) -> list[str]:
        if self.first is None:
            self.first = output
        return [] if output == self.first else ["results changed between repeats"]

    def final_checks(self) -> list[str]:
        n, g, series, period = self.first
        problems = [] if n == self.shape[0] * self.shape[1] else [f"bound is for n = {n}"]
        problems += check_landau(n, g, series, self.reference_g)
        return problems + check_matrix_period(self.side, 1, 1, period)

    def self_test(self) -> list[str]:
        n, g, series, period = self.first
        missed = []
        if not check_landau(n, g * 2, series, self.reference_g):
            missed.append("Landau check accepted g off by a factor 2")
        if not check_landau(n, g, series[:-1] + (series[-1] * 2,), self.reference_g):
            missed.append("Landau check accepted a wrong witness part")
        if not check_matrix_period(self.side, 1, 1, period * 2):
            missed.append("matrix-period check accepted a period off by a factor 2")
        if not check_matrix_period(self.side, 1, 1, period // 2):
            missed.append("matrix-period check accepted a period off by a factor 1/2")
        return missed


WORKLOADS = {
    "photo_scramble": PhotoScramble,
    "cover_analysis": CoverAnalysis,
    "period_bounds": PeriodBounds,
}
