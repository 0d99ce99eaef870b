"""End-to-end checks pinning the package's headline numbers.

One test per claim: the classic-map period table, the period relations,
exact big-integer periods of the two-square and four-square covers, the
scan/naive equivalence, matrix vs orbit periods, similarity correctness
with the dominant-orbit recurrence peak, the maximal-order function with
its period bound, and byte-exact scramble round trips.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    compose,
    identity_perm,
    key_json,
    landau_g_bruteforce,
    oacm_perm,
    single_square,
    small_configs,
)
from oacm import (
    AcmParams,
    KeyConfig,
    RasterImage,
    Tiling,
    TilingParams,
    apply_iterations,
    build_oacm_permutation,
    cycle_decompose,
    descramble,
    image_period,
    landau_g,
    matrix_period,
    orbit_histogram,
    period_bound_for_image,
    read_image,
    scientific,
    scramble,
    similarity_at,
    similarity_curve,
    square_locations,
    write_image,
)
from oacm.cli import main

# Classic-map (p = q = 1) matrix periods: lattice side -> period.
CLASSIC_PERIOD_TABLE = [
    (256, 192),
    (512, 384),
    (1024, 768),
    (1080, 180),
    (2048, 1536),
    (2992, 180),
    (3000, 1500),
    (4320, 360),
]

# Two-square covers of W x H landscape images (square side = H, overlap
# 2H - W): expected period as (mantissa tenths, decimal exponent).
TWO_SQUARE_ROWS = [
    (1920, 1080, (92, 489)),
    (1280, 1024, (17, 369)),
    (640, 480, (17, 167)),
    (320, 240, (19, 81)),
]

# Four-square covers of N x N images (square side S, overlap 2S - N).
FOUR_SQUARE_ROWS = [
    (256, 192, (40, 106)),
    (512, 384, (81, 236)),
    (1024, 768, (11, 458)),
]

# Small configs for exhaustive similarity checks: (h, w, s, o, p, q),
# all at most 1024 pixels.
SIMILARITY_CONFIGS = [
    (2, 2, 2, 0, 1, 1),
    (3, 3, 3, 0, 1, 1),
    (8, 8, 5, 2, 1, 1),
    (16, 16, 9, 4, 2, 1),
    (12, 20, 7, 3, 1, 2),
    (32, 32, 32, 0, 1, 1),
    (31, 33, 10, 4, 3, 2),
    (24, 24, 13, 6, 5, 3),
    (32, 24, 11, 1, 1, 1),
    (7, 11, 5, 2, 2, 5),
    (30, 34, 17, 16, 4, 1),
    (32, 32, 20, 8, 0, 0),
]


def cover_period(height, width, size, overlap):
    tiling = square_locations(TilingParams(height, width, size, overlap))
    return image_period(cycle_decompose(build_oacm_permutation(tiling, 1, 1)))


def literal_cover_period(height, width, size, overlap):
    """Period under the alternate cover rule that starts coordinates at 1
    instead of 0 (leaving row and column 0 without their own squares)."""
    params = TilingParams(height, width, size, overlap)

    def axis(length):
        coords = list(range(1, length - size + 1, params.step))
        coords.append(length - size)
        return tuple(sorted(set(coords)))

    perm = build_oacm_permutation(Tiling(params, axis(width), axis(height)), 1, 1)
    return image_period(cycle_decompose(perm))


def tenths_notation(tenths, exponent):
    """(43, 826) -> "4.3e+826", the form scientific() prints."""
    return f"{tenths // 10}.{tenths % 10}e+{exponent}"


def check_cover_rows(rows, describe):
    failures = []
    for height, width, size, overlap, expected in rows:
        period = cover_period(height, width, size, overlap)
        got, want = scientific(period), tenths_notation(*expected)
        if got != want:
            alt = literal_cover_period(height, width, size, overlap)
            failures.append(
                f"{describe(height, width, size, overlap)}: got {got}, expected {want}; "
                f"coordinates-from-1 reading gives {scientific(alt)}"
            )
    assert not failures, "\n".join(failures)


def period_prime_factors(lengths):
    """Prime -> exponent map of lcm(lengths), via the lengths themselves."""
    factors = {}
    for length in {int(x) for x in lengths}:
        rest = length
        for p in range(2, math.isqrt(length) + 1):
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                factors[p] = max(factors.get(p, 0), e)
        if rest > 1:
            factors[rest] = max(factors.get(rest, 0), 1)
    return factors


def test_classic_map_period_table(capsys):
    for n, expected in CLASSIC_PERIOD_TABLE:
        assert main(["acm-period", "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert out == f"{expected}\n", f"side {n}: reported {out.strip()}, expected {expected}"


def test_map_period_relations():
    # Doubled and tripled lattice-side relations on powers of five.
    assert matrix_period(AcmParams(1, 1, 5)) == 10
    assert matrix_period(AcmParams(1, 1, 25)) == 50
    assert matrix_period(AcmParams(1, 1, 10)) == 30
    assert matrix_period(AcmParams(1, 1, 50)) == 150
    assert matrix_period(AcmParams(1, 1, 30)) == 60
    for n in range(1, 513):
        assert matrix_period(AcmParams(1, 1, n)) <= 3 * n


def test_two_square_cover_periods():
    rows = [(h, w, h, 2 * h - w, expected) for w, h, expected in TWO_SQUARE_ROWS]
    check_cover_rows(rows, lambda h, w, s, o: f"{w}x{h} cover")


def test_four_square_cover_periods():
    rows = [(n, n, s, 2 * s - n, expected) for n, s, expected in FOUR_SQUARE_ROWS]
    check_cover_rows(rows, lambda h, w, s, o: f"{w}x{h} squares {s}")


@settings(max_examples=200)
@given(small_configs())
def test_scan_matches_naive_application(config):
    h, w, s, o, p, q = config
    perm = oacm_perm(h, w, s, o, p, q)
    cycles = cycle_decompose(perm)
    rng = np.random.default_rng(42)
    src = rng.integers(0, 256, h * w, dtype=np.uint8)
    naive = np.arange(h * w)
    steps = 0
    for z in (0, 1, 2, 7, 31):
        while steps < z:
            naive = perm.forward[naive]
            steps += 1
        # the index buffer pins the z-fold permutation itself, src a payload
        for buf in (np.arange(h * w), src):
            moved = np.empty_like(buf)
            moved[naive] = buf
            assert np.array_equal(apply_iterations(cycles, z, buf), moved), (config, z)


def test_single_square_period_equals_matrix_period():
    for n in range(1, 129):
        cycles = cycle_decompose(build_oacm_permutation(single_square(n), 1, 1))
        assert image_period(cycles) == matrix_period(AcmParams(1, 1, n)), n


def test_similarity_counts_and_minimality():
    for config in SIMILARITY_CONFIGS:
        h, w, s, o, p, q = config
        perm = oacm_perm(h, w, s, o, p, q)
        cycles = cycle_decompose(perm)

        # Divisor-sum similarity equals brute-force fixed-point counting.
        power = identity_perm(h, w)
        home = np.arange(h * w)
        for k in range(1, 51):
            power = compose(perm, power)
            fixed = int((power.forward == home).sum())
            assert similarity_at(cycles, k) * h * w == fixed, (config, k)

        # Exactly 1 at the period, strictly below 1 before it (exhaustive
        # up to 2000 iterations, then at every maximal proper divisor).
        period = image_period(cycles)
        assert similarity_at(cycles, period) == 1, config
        if period > 1:
            curve = similarity_curve(cycles, min(period - 1, 2000))
            assert all(sim < 1 for _, sim in curve.points), config
        for prime in period_prime_factors(cycles.lengths):
            assert similarity_at(cycles, period // prime) < 1, (config, prime)


def test_dominant_orbit_recurrence_peak():
    # The 512/100/25 cover has one orbit holding most pixels; its length is
    # a high-similarity recurrence point far below the full period.
    tiling = square_locations(TilingParams(512, 512, 100, 25))
    cycles = cycle_decompose(build_oacm_permutation(tiling, 1, 1))
    hist = orbit_histogram(cycles)
    dominant = max(hist.bins, key=lambda length: length * hist.bins[length])
    period = image_period(cycles)
    assert dominant < period
    assert similarity_at(cycles, dominant) >= 0.75


def test_maximal_order_matches_partition_bruteforce():
    for n in range(1, 31):
        result = landau_g(n)
        assert result.g == landau_g_bruteforce(n), n
        assert sum(result.series) <= n
        if result.series:
            assert math.lcm(*result.series) == result.g


def test_small_cover_periods_respect_maximal_order_bound():
    for h, w, s, o, p, q in SIMILARITY_CONFIGS:
        period = image_period(cycle_decompose(oacm_perm(h, w, s, o, p, q)))
        assert period <= landau_g(h * w).g, (h, w, s, o, p, q)


def test_maximal_order_at_half_megapixel_and_large_cover_bounds():
    g_half_megapixel = landau_g(262144).g
    assert scientific(g_half_megapixel) == tenths_notation(43, 826) == "4.3e+826"
    assert period_bound_for_image(512, 512).g == g_half_megapixel
    for w, h, expected in TWO_SQUARE_ROWS:
        assert cover_period(h, w, h, 2 * h - w) <= period_bound_for_image(h, w).g, (w, h)
    for n, s, expected in FOUR_SQUARE_ROWS:
        assert cover_period(n, n, s, 2 * s - n) <= period_bound_for_image(n, n).g, (n, s)


def test_scramble_round_trip_byte_exact(tmp_path, capsys):
    rng = np.random.default_rng(20260817)
    non_square = 0
    cases = []
    for _ in range(60):
        h = int(rng.integers(1, 49))
        w = int(rng.integers(1, 49))
        channels = int(rng.choice([1, 3]))
        s = int(rng.integers(1, min(h, w) + 1))
        o = int(rng.integers(0, s))
        p = int(rng.integers(0, 7))
        q = int(rng.integers(0, 7))
        if rng.random() < 0.5:
            iterations = int(rng.integers(0, 10**9))
        else:
            iterations = int(rng.integers(1, 10**18)) * 10**480 + int(rng.integers(0, 10**9))
        img = RasterImage(h, w, channels, rng.integers(0, 256, h * w * channels, dtype=np.uint8))
        key = KeyConfig(s, o, p, q, iterations)
        assert descramble(scramble(img, key), key) == img, (h, w, channels, s, o, p, q)
        non_square += h != w
        cases.append((img, key))
    assert len(cases) >= 50
    assert non_square >= 10

    # A few of the same cases through the files and the CLI, byte for byte.
    for idx in (0, 1, 2):
        img, key = cases[idx]
        src = tmp_path / f"src{idx}.pnm"
        mid = tmp_path / f"mid{idx}.pnm"
        back = tmp_path / f"back{idx}.pnm"
        keyfile = tmp_path / f"key{idx}.json"
        write_image(img, src)
        keyfile.write_text(key_json(key))
        assert main(["scramble", "--key", str(keyfile), "--in", str(src), "--out", str(mid)]) == 0
        assert main(["descramble", "--key", str(keyfile), "--in", str(mid), "--out", str(back)]) == 0
        capsys.readouterr()
        assert back.read_bytes() == src.read_bytes(), idx
