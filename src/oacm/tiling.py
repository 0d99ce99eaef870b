"""Overlapping-square covers of a rectangle.

Corner coordinates along each axis are the multiples of
step = square_size - overlap that keep the square strictly short of the
far edge, plus one square pushed flush against that edge.  The flush
square may overlap its neighbour by more than requested; that is the
price of covering every pixel.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import ParameterError

# Index scratch in permutation.py is int32.  It holds pixel indices and
# slots, at most N - 1, and differences of two of them (the shift of a run
# of slots), at most N - 1 in size; every sum it forms is again a slot.  So
# N <= 2**31 - 1 keeps every intermediate within int32.
_MAX_PIXELS = 2**31 - 1


def check_pixels(height: int, width: int) -> None:
    """Refuse an image side below 1, or more pixels than int32 index scratch
    can address."""
    if height < 1 or width < 1:
        raise ParameterError(f"image dimensions must be >= 1, got {height}x{width}")
    if height * width > _MAX_PIXELS:
        raise ParameterError(
            f"{height}x{width} = {height * width} pixels exceeds the limit of {_MAX_PIXELS}"
        )


def check_square(square_size: int, overlap: int) -> None:
    """Refuse a square side below 1 or an overlap outside [0, square_size)."""
    if square_size < 1:
        raise ParameterError(f"square size must be >= 1, got {square_size}")
    if not 0 <= overlap < square_size:
        raise ParameterError(f"overlap {overlap} must be in [0, square size = {square_size})")


@dataclass(frozen=True)
class TilingParams:
    height: int
    width: int
    square_size: int
    overlap: int

    def __post_init__(self):
        check_pixels(self.height, self.width)
        check_square(self.square_size, self.overlap)
        if self.square_size > min(self.height, self.width):
            raise ParameterError(
                f"square size {self.square_size} exceeds min(height, width) = "
                f"{min(self.height, self.width)}"
            )

    @property
    def step(self) -> int:
        return self.square_size - self.overlap


@dataclass(frozen=True)
class Tiling:
    """A grid of top-left square corners: every x in xs paired with every
    y in ys.

    Each axis is strictly ascending and keeps its squares inside the image.
    """

    params: TilingParams
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __post_init__(self):
        params = self.params
        for axis, corners, length in (("x", self.xs, params.width), ("y", self.ys, params.height)):
            last = length - params.square_size
            for a, b in zip(corners, corners[1:]):
                if a >= b:
                    raise ParameterError(f"{axis} corners must be strictly ascending: {a} before {b}")
            if corners and not 0 <= corners[0] <= corners[-1] <= last:
                raise ParameterError(
                    f"{axis} corners {corners[0]}..{corners[-1]} are outside [0, {last}]"
                )

    @property
    def squares(self) -> tuple[tuple[int, int], ...]:
        """The (x, y) corners, row-major: sorted by y, then x."""
        return tuple((x, y) for y in self.ys for x in self.xs)

    def to_json(self) -> str:
        squares = [list(sq) for sq in self.squares]
        return json.dumps({**asdict(self.params), "squares": squares})


def _axis_coords(length: int, size: int, step: int) -> list[int]:
    coords = list(range(0, length - size, step))  # multiples of step <= length-size-1
    coords.append(length - size)  # above every multiple, so still ascending and distinct
    return coords


def square_locations(params: TilingParams) -> Tiling:
    """Generate the ordered overlapping-square cover for the given parameters."""
    ys = _axis_coords(params.height, params.square_size, params.step)
    xs = _axis_coords(params.width, params.square_size, params.step)
    return Tiling(params, tuple(xs), tuple(ys))
