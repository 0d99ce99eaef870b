"""Command-line frontend.

Exit codes: 0 on success, 2 on parameter errors, 3 on I/O or image format
errors, 4 when the request does not fit in memory.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .acm import AcmParams, matrix_period
from .analysis import (
    image_period,
    orbit_histogram,
    similarity_curve,
    write_histogram_csv,
    write_similarity_csv,
)
from .bigfmt import scientific
from .errors import ImageFormatError, ParameterError
from .images import KeyConfig, descramble, read_image, scramble, write_image
from .landau import landau_g
from .permutation import cycles_for
from .tiling import TilingParams, square_locations


def _add_tiling_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--height", type=int, required=True, help="image height in pixels")
    parser.add_argument("--width", type=int, required=True, help="image width in pixels")
    parser.add_argument("--square-size", type=int, required=True, help="side of each square")
    parser.add_argument("--overlap", type=int, required=True, help="requested overlap in pixels")


def _add_map_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, default=1, help="map parameter p (default 1)")
    parser.add_argument("--q", type=int, default=1, help="map parameter q (default 1)")


@contextmanager
def _output(args):
    """Stream for a command's text: the --out file if given, else stdout."""
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w") as stream:
            yield stream


def cmd_tile(args) -> int:
    params = TilingParams(args.height, args.width, args.square_size, args.overlap)
    text = square_locations(params).to_json()
    with _output(args) as stream:
        print(text, file=stream)
    return 0


def cmd_period(args) -> int:
    cycles = cycles_for(args.height, args.width, args.square_size, args.overlap, args.p, args.q)
    period = image_period(cycles)
    print(f"period {period}")
    print(f"scientific {scientific(period)}")
    return 0


def cmd_similarity(args) -> int:
    cycles = cycles_for(args.height, args.width, args.square_size, args.overlap, args.p, args.q)
    curve = similarity_curve(cycles, args.kmax)
    with _output(args) as stream:
        write_similarity_csv(curve, stream)
    return 0


def cmd_histogram(args) -> int:
    cycles = cycles_for(args.height, args.width, args.square_size, args.overlap, args.p, args.q)
    hist = orbit_histogram(cycles)
    with _output(args) as stream:
        write_histogram_csv(hist, stream)
    return 0


def cmd_landau(args) -> int:
    result = landau_g(args.n)
    print(f"n {result.n}")
    print(f"g {result.g}")
    print(f"scientific {scientific(result.g)}")
    print("series " + " ".join(str(part) for part in result.series))
    return 0


def cmd_acm_period(args) -> int:
    print(matrix_period(AcmParams(args.p, args.q, args.n)))
    return 0


def cmd_shift(args) -> int:
    key = KeyConfig.from_json(Path(args.key).read_bytes())
    write_image(args.shift(read_image(args.input), key), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oacm",
        description="Cat-map scrambling over overlapping square partitions, with exact period analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tile", help="print the square cover as JSON")
    _add_tiling_args(sp)
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_tile)

    sp = sub.add_parser("period", help="exact image period for a configuration")
    _add_tiling_args(sp)
    _add_map_args(sp)
    sp.set_defaults(func=cmd_period)

    sp = sub.add_parser("similarity", help="similarity-vs-iteration curve as CSV")
    _add_tiling_args(sp)
    _add_map_args(sp)
    sp.add_argument("--kmax", type=int, required=True, help="last iteration to evaluate")
    sp.add_argument("--out", help="write CSV here instead of stdout")
    sp.set_defaults(func=cmd_similarity)

    sp = sub.add_parser("histogram", help="orbit-length histogram as CSV")
    _add_tiling_args(sp)
    _add_map_args(sp)
    sp.add_argument("--out", help="write CSV here instead of stdout")
    sp.set_defaults(func=cmd_histogram)

    sp = sub.add_parser("landau", help="maximal permutation order g(n) and a witness partition")
    sp.add_argument("--n", type=int, required=True, help="element (pixel) count")
    sp.set_defaults(func=cmd_landau)

    sp = sub.add_parser("acm-period", help="period of the plain cat-map matrix mod n")
    sp.add_argument("--n", type=int, required=True, help="lattice side")
    _add_map_args(sp)
    sp.set_defaults(func=cmd_acm_period)

    for name, shift in (("scramble", scramble), ("descramble", descramble)):
        sp = sub.add_parser(name, help=f"{name} a PGM/PPM image with a JSON key")
        sp.add_argument("--key", required=True, help="JSON key file")
        sp.add_argument("--in", dest="input", required=True, help="input image (P5/P6)")
        sp.add_argument("--out", required=True, help="output image path")
        sp.set_defaults(func=cmd_shift, shift=shift)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ImageFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParameterError) else 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
