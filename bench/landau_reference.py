"""Regenerate landau_reference.json: g(n) for the period_bounds image sizes.

    python3 bench/landau_reference.py

g(n), Landau's function, is the largest order of a permutation of n
elements: the largest product of powers of distinct primes whose sum is at
most n.  This script computes it with the textbook exact knapsack, one
group per prime holding its powers, over every prime up to n and with
Python's exact integers.  No bound on the largest prime factor is assumed,
so nothing is shared with how oacm computes g.  It takes about 30 s,
too long for every benchmark run, so the values are stored.
"""

from __future__ import annotations

import json
from pathlib import Path

# period_bounds images: 47,900 to 48,100 pixels, each a different pixel count.
LANDAU_SHAPES = [(151, 318), (155, 310), (163, 294), (170, 282), (177, 271), (185, 259), (193, 249), (200, 240)]
REFERENCE = Path(__file__).resolve().parent / "landau_reference.json"


def primes_up_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


def landau_table(limit: int) -> list[int]:
    """best[j] = g(j) for 0 <= j <= limit."""
    best = [1] * (limit + 1)
    for p in primes_up_to(limit):
        powers = []
        power = p
        while power <= limit:
            powers.append(power)
            power *= p
        # descending j, so every candidate reads best[] from before p
        for j in range(limit, p - 1, -1):
            top = best[j]
            for power in powers:
                if power > j:
                    break
                cand = best[j - power] * power
                if cand > top:
                    top = cand
            best[j] = top
    return best


def main() -> None:
    sizes = sorted({h * w for h, w in LANDAU_SHAPES})
    table = landau_table(sizes[-1])
    REFERENCE.write_text(json.dumps({str(n): str(table[n]) for n in sizes}, indent=1) + "\n")
    print(f"wrote g(n) for n in {sizes} to {REFERENCE}")


if __name__ == "__main__":
    main()
