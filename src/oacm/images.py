"""Binary netpbm I/O and keyed scrambling of raster images.

Only 8-bit P5 (graymap) and P6 (pixmap) files are supported; anything
else is rejected loudly rather than silently converted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acm import check_map_params
from .errors import ImageFormatError, ParameterError
from .permutation import CycleDecomposition, apply_iterations, cycles_for
from .tiling import check_pixels, check_square

_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}
_OTHER_NETPBM = {b"P1", b"P2", b"P3", b"P4", b"P7"}


@dataclass(frozen=True, eq=False)
class RasterImage:
    """8-bit image; samples are row-major and channel-interleaved.

    maxval is the netpbm white level the samples are scaled to; it is
    written back unchanged, so a round trip keeps what the header means.
    """

    height: int
    width: int
    channels: int
    samples: np.ndarray
    maxval: int = 255

    def __post_init__(self):
        check_pixels(self.height, self.width)
        if self.channels not in (1, 3):
            raise ParameterError(f"channels must be 1 or 3, got {self.channels}")
        if not 1 <= self.maxval <= 255:
            raise ParameterError(f"maxval must be in [1, 255], got {self.maxval}")
        samples = np.asarray(self.samples)
        expected = self.height * self.width * self.channels
        if samples.shape != (expected,):
            raise ParameterError(f"expected {expected} samples, got shape {samples.shape}")
        if samples.dtype.kind not in "iu":
            raise ParameterError(f"samples must hold integers, got dtype {samples.dtype}")
        # the cast below would wrap these silently; uint8 needs no scan at maxval 255
        wide = samples.dtype != np.uint8
        if wide and samples.min() < 0 or (wide or self.maxval < 255) and samples.max() > self.maxval:
            raise ParameterError(f"samples must be in [0, maxval = {self.maxval}]")
        object.__setattr__(self, "samples", np.ascontiguousarray(samples, dtype=np.uint8))

    def __eq__(self, other):
        if not isinstance(other, RasterImage):
            return NotImplemented
        return (
            (self.height, self.width, self.channels, self.maxval)
            == (other.height, other.width, other.channels, other.maxval)
            and np.array_equal(self.samples, other.samples)
        )


@dataclass(frozen=True)
class KeyConfig:
    """Scramble key: tiling shape, map parameters, and iteration count.

    iterations is an arbitrary-precision non-negative integer; image
    periods dwarf machine range, so JSON keys may carry it as a decimal
    string.
    """

    square_size: int
    overlap: int
    p: int
    q: int
    iterations: int

    def __post_init__(self):
        # TilingParams checks the square again against the image; checking
        # here refuses a bad key before any image is read
        check_square(self.square_size, self.overlap)
        check_map_params(self.p, self.q)
        if self.iterations < 0:
            raise ParameterError(f"iterations must be >= 0, got {self.iterations}")

    @classmethod
    def from_json(cls, text: str | bytes) -> "KeyConfig":
        # ValueError covers JSONDecodeError, bytes that do not decode (a
        # UnicodeDecodeError) and a number past int's digit limit;
        # RecursionError, arrays or objects nested too deep
        try:
            raw = json.loads(text, object_pairs_hook=_unique_names)
        except ParameterError:
            raise
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"key file is not readable JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParameterError("key file must contain a JSON object")
        try:
            fields = {name: raw[name] for name in ("square_size", "overlap", "p", "q", "iterations")}
        except KeyError as exc:
            raise ParameterError(f"key file is missing field {exc}") from exc
        for name, value in fields.items():
            # ints, or strings of ASCII digits for values beyond machine
            # width; int() alone would also take "+5", " 12 ", "1_000", "١٢"
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ParameterError(f"key field {name!r} must be an integer, got {value!r}")
            if isinstance(value, str) and not (value.isascii() and value.isdigit()):
                raise ParameterError(f"key field {name!r} is not a decimal string: {value!r}")
            try:
                fields[name] = int(value)
            except ValueError as exc:
                raise ParameterError(f"key field {name!r} is not an integer: {value!r}") from exc
        return cls(**fields)


def _unique_names(pairs):
    # json.loads keeps the last of repeated names; a key must mean one thing
    obj = {}
    for name, value in pairs:
        if name in obj:
            raise ParameterError(f"key file repeats field {name!r}")
        obj[name] = value
    return obj


def _parse_header(data: bytes):
    magic = data[:2]
    if magic in _OTHER_NETPBM:
        raise ImageFormatError(f"netpbm variant {magic.decode()} is not supported (P5/P6 only)")
    if magic not in _MAGIC_CHANNELS:
        raise ImageFormatError("not a binary netpbm file (missing P5/P6 magic)")
    if not (data[2:3].isspace() or data[2:3] == b"#"):
        raise ImageFormatError("missing whitespace after the magic number")
    fields = []
    i = 2
    while len(fields) < 3:
        while i < len(data):
            byte = data[i : i + 1]
            if byte.isspace():
                i += 1
            elif byte == b"#":
                nl = data.find(b"\n", i)
                i = len(data) if nl < 0 else nl + 1
            else:
                break
        # a comment may start right after a digit, as netpbm allows
        start = i
        while i < len(data) and not (data[i : i + 1].isspace() or data[i : i + 1] == b"#"):
            i += 1
        if i == start:
            raise ImageFormatError("header ended before width, height and maxval were read")
        token = data[start:i]
        # ASCII digits only: int() alone would also take b"+4" and b"4_0"
        if not token.isdigit():
            raise ImageFormatError(f"non-integer header field {token!r}")
        try:
            fields.append(int(token))
        except ValueError:  # more digits than int() converts
            raise ImageFormatError(f"header field of {len(token)} digits") from None
    if data[i : i + 1] == b"#":  # a glued comment's newline ends the header
        i = data.find(b"\n", i)
    if not 0 <= i < len(data):
        raise ImageFormatError("missing whitespace after maxval")
    i += 1  # exactly one whitespace byte separates header from raster
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"non-positive dimensions {width}x{height}")
    if 256 <= maxval <= 65535:
        raise ImageFormatError(f"maxval {maxval} needs 16-bit samples; only 8-bit is supported")
    if not 1 <= maxval <= 255:
        raise ImageFormatError(f"maxval {maxval} out of range")
    return _MAGIC_CHANNELS[magic], width, height, maxval, i


def read_image(path) -> RasterImage:
    data = Path(path).read_bytes()
    channels, width, height, maxval, offset = _parse_header(data)
    count = height * width * channels
    raster = data[offset:]
    if len(raster) < count:
        raise ImageFormatError(f"raster holds {len(raster)} bytes, header promises {count}")
    if len(raster) > count:
        raise ImageFormatError(
            f"{len(raster) - count} bytes follow the raster; multi-image streams are not supported"
        )
    # with the pixel count checked, a sample above maxval is all that
    # RasterImage can still refuse, and that is the file's fault
    check_pixels(height, width)
    try:
        return RasterImage(height, width, channels, np.frombuffer(raster, dtype=np.uint8), maxval)
    except ParameterError as exc:
        raise ImageFormatError(f"a sample exceeds the header's maxval {maxval}") from exc


def write_image(img: RasterImage, path) -> None:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + f"\n{img.width} {img.height}\n{img.maxval}\n".encode()
    with open(path, "wb") as stream:
        stream.writelines((header, img.samples))


def shift_pixels(img: RasterImage, cycles: CycleDecomposition, z: int) -> RasterImage:
    """Move every pixel z steps along the orbits (negative z moves back).

    All channels of a pixel move to the same place, one channel plane at
    a time.
    """
    out = apply_iterations(cycles, z, img.samples.reshape(-1, img.channels))
    return RasterImage(img.height, img.width, img.channels, out.reshape(-1), img.maxval)


def _shift_by_key(img: RasterImage, key: KeyConfig, z: int) -> RasterImage:
    cycles = cycles_for(img.height, img.width, key.square_size, key.overlap, key.p, key.q)
    return shift_pixels(img, cycles, z)


def scramble(img: RasterImage, key: KeyConfig) -> RasterImage:
    """Apply key.iterations passes of the keyed scramble to every channel."""
    return _shift_by_key(img, key, key.iterations)


def descramble(img: RasterImage, key: KeyConfig) -> RasterImage:
    """Exact inverse of scramble with the same key."""
    return _shift_by_key(img, key, -key.iterations)
