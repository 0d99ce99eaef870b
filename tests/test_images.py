"""Netpbm I/O, key parsing, and keyed scrambling."""

import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import key_json, oacm_perm
from oacm import (
    ImageFormatError,
    KeyConfig,
    ParameterError,
    RasterImage,
    cycle_decompose,
    cycles_for,
    descramble,
    apply_iterations,
    read_image,
    scramble,
    shift_pixels,
    write_image,
)


def gradient_image(height, width, channels):
    count = height * width * channels
    return RasterImage(height, width, channels, (np.arange(count) % 251).astype(np.uint8))


@st.composite
def images(draw):
    height = draw(st.integers(1, 24))
    width = draw(st.integers(1, 24))
    channels = draw(st.sampled_from([1, 3]))
    maxval = draw(st.sampled_from([255, 1, 15, 200]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, maxval + 1, height * width * channels, dtype=np.uint8)
    return RasterImage(height, width, channels, samples, maxval)


class TestRasterImage:
    def test_rejects_bad_channel_count(self):
        with pytest.raises(ParameterError):
            RasterImage(2, 2, 2, np.zeros(8, dtype=np.uint8))

    def test_rejects_wrong_sample_count(self):
        with pytest.raises(ParameterError):
            RasterImage(2, 2, 1, np.zeros(5, dtype=np.uint8))

    def test_maxval_defaults_to_255(self):
        assert gradient_image(2, 2, 1).maxval == 255

    def test_rejects_maxval_out_of_range(self):
        for maxval in (0, 256):
            with pytest.raises(ParameterError):
                RasterImage(1, 1, 1, np.zeros(1, dtype=np.uint8), maxval=maxval)

    def test_rejects_samples_above_maxval(self):
        with pytest.raises(ParameterError):
            RasterImage(1, 2, 1, np.array([3, 16], dtype=np.uint8), maxval=15)

    @pytest.mark.parametrize(
        "samples",
        [np.array([0, 1, 2, 300]), np.array([0.7, 0, 0, 0]), np.array([-1, 0, 0, 0])],
        ids=["above-255", "float", "negative"],
    )
    def test_rejects_samples_a_cast_would_change(self, samples):
        with pytest.raises(ParameterError):
            RasterImage(2, 2, 1, samples)

    def test_equality(self):
        a = gradient_image(3, 4, 1)
        b = gradient_image(3, 4, 1)
        assert a == b
        assert a != gradient_image(4, 3, 1)
        assert a != RasterImage(3, 4, 1, a.samples, maxval=250)


class TestReadImage:
    def test_minimal_graymap(self, tmp_path):
        path = tmp_path / "one.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        img = read_image(path)
        assert (img.height, img.width, img.channels) == (1, 1, 1)
        assert img.samples.tolist() == [0]

    def test_pixmap_sample_order(self, tmp_path):
        path = tmp_path / "rgb.ppm"
        path.write_bytes(b"P6\n3 2\n255\n" + bytes(range(18)))
        img = read_image(path)
        assert (img.height, img.width, img.channels) == (2, 3, 3)
        assert img.samples.tolist() == list(range(18))

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n  2\t# inline\n2\r\n# more\n255\n" + bytes(4))
        img = read_image(path)
        assert (img.height, img.width) == (2, 2)

    def test_comment_glued_to_a_token(self, tmp_path):
        # netpbm lets a comment start anywhere in the header, even right after a digit
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2#c\n255\n" + bytes(range(4)))
        img = read_image(path)
        assert (img.height, img.width, img.maxval) == (2, 2, 255)
        assert img.samples.tolist() == [0, 1, 2, 3]
        path.write_bytes(b"P5#c\n3#a\n1#b\n15#c\n" + bytes(range(3)))
        img = read_image(path)
        assert (img.height, img.width, img.maxval) == (1, 3, 15)
        assert img.samples.tolist() == [0, 1, 2]

    def test_single_space_header(self, tmp_path):
        path = tmp_path / "s.pgm"
        path.write_bytes(b"P5 2 2 255 " + bytes(4))
        assert read_image(path).width == 2

    def test_bytes_after_the_raster_refused(self, tmp_path):
        # netpbm allows nothing after the last image, and only the first
        # image of a stream would be read, so the rest is refused, not dropped
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x07extra")
        with pytest.raises(ImageFormatError, match="5 bytes follow the raster; multi-image"):
            read_image(path)
        image = b"P5\n4 4\n255\n" + bytes(range(16))
        path.write_bytes(image + image)
        with pytest.raises(ImageFormatError, match="multi-image streams are not supported"):
            read_image(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ImageFormatError, match="maxval 65535 needs 16-bit samples"):
            read_image(path)
        path.write_bytes(b"P5\n1 1\n256\n\x00\x00")
        with pytest.raises(ImageFormatError, match="maxval 256 needs 16-bit samples"):
            read_image(path)

    def test_other_netpbm_variants_rejected(self, tmp_path):
        for magic in (b"P1", b"P2", b"P3", b"P4", b"P7"):
            path = tmp_path / "v.pnm"
            path.write_bytes(magic + b"\n1 1\n255\n\x00")
            with pytest.raises(ImageFormatError, match=f"variant {magic.decode()} is not supported"):
                read_image(path)

    def test_non_netpbm_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"GIF89a....")
        with pytest.raises(ImageFormatError, match="missing P5/P6 magic"):
            read_image(path)

    def test_malformed_headers(self, tmp_path):
        cases = [
            (b"P5\n2 2", "header ended before"),
            (b"P5\n2 2\n255", "missing whitespace after maxval"),
            (b"P5\n2 x\n255\n\x00\x00\x00\x00", "non-integer header field b'x'"),
            (b"P5\n0 2\n255\n", "non-positive dimensions 0x2"),
            (b"P5\n2 2\n0\n\x00\x00\x00\x00", "maxval 0 out of range"),
            (b"P5\n2 2\n70000\n\x00\x00\x00\x00", "maxval 70000 out of range"),  # beyond 16 bit
            (b"P5\n4_0 1\n255\n" + bytes(40), "non-integer header field b'4_0'"),  # digit separator
            (b"P5\n+4 1\n255\n" + bytes(4), r"non-integer header field b'\+4'"),  # sign
            (b"P5\n4 1\n2_55\n" + bytes(4), "non-integer header field b'2_55'"),
            (b"P54 1 255 " + bytes(4), "missing whitespace after the magic"),
        ]
        for raw, reason in cases:
            path = tmp_path / "bad.pgm"
            path.write_bytes(raw)
            with pytest.raises(ImageFormatError, match=reason):
                read_image(path)

    def test_maxval_is_kept(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n15\n" + bytes(range(16)))
        img = read_image(path)
        assert img.maxval == 15
        assert img.samples.tolist() == list(range(16))

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 2\n15\n\x00\x0f\x10\x00")
        with pytest.raises(ImageFormatError, match="a sample exceeds the header's maxval 15"):
            read_image(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02")
        with pytest.raises(ImageFormatError, match="raster holds 3 bytes, header promises 4"):
            read_image(path)


_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
_ODD_FIELDS = st.one_of(
    st.integers(0, 10**30).map(lambda v: str(v).encode()),  # huge dimensions
    st.sampled_from([b"0", b"256", b"65535", b"65536", b"0" * 40 + b"7", b"9" * 5000]),
    st.sampled_from([b"+4", b"-1", b"4_0", b"0x10", b"1e3", b"\xd9\xa1", b"\xff"]),
    st.binary(max_size=4),
)
_DIMENSIONS = st.integers(1, 6).map(lambda v: str(v).encode())


@st.composite
def netpbm_bytes(draw):
    """Header bytes, mostly well-formed, then a short raster.

    One part in eight is odd: the magic may be another netpbm variant or
    junk; separators mix every whitespace byte with comments, some never
    closed, or are missing; a field may be empty, signed, non-ASCII or
    thousands of digits long; the file may be cut anywhere.  Trailing
    bytes may follow.
    """

    def often(usual, odd):
        return draw(draw(st.sampled_from([usual] * 7 + [odd])))

    items = st.sampled_from(_WHITESPACE + [b"#", b"# note\n", b"#\r\n", b"# open"])
    sep = st.lists(items, min_size=1, max_size=3).map(b"".join)
    other_magic = st.sampled_from([b"P1", b"P3", b"P7", b"p5"]) | st.binary(max_size=2)
    header = often(st.sampled_from([b"P5", b"P6"]), other_magic)
    for field in (_DIMENSIONS, _DIMENSIONS, st.sampled_from([b"1", b"15", b"255"])):
        header += often(sep, st.just(b"")) + often(field, _ODD_FIELDS)
    header += often(st.sampled_from(_WHITESPACE + [b"# glued\n"]), st.sampled_from([b"", b"#"]))
    data = header + draw(st.binary(max_size=120))
    data = often(st.just(data), st.integers(0, len(data)).map(lambda cut: data[:cut]))
    return data + draw(st.binary(max_size=8))


@st.composite
def valid_netpbm(draw):
    """A well-formed file and its (channels, width, height, maxval, raster).

    Header separators mix whitespace with comments, some glued to the
    token before them; the last may be a glued comment, whose newline then
    ends the header.
    """
    channels = draw(st.sampled_from([1, 3]))
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    maxval = draw(st.sampled_from([1, 15, 255]))
    space = st.sampled_from(_WHITESPACE)
    comment = st.sampled_from([b"#\n", b"# note\n", b"#\r\n", b"#P6 9 9 255\n"])
    sep = st.lists(space | comment, min_size=1, max_size=3).map(b"".join)
    data = b"P5" if channels == 1 else b"P6"
    for field in (width, height, maxval):
        data += draw(sep) + str(field).encode()
    data += draw(space | comment)
    count = width * height * channels
    raster = bytes(draw(st.lists(st.integers(0, maxval), min_size=count, max_size=count)))
    return data + raster, (channels, width, height, maxval, raster)


class TestHeaderFuzz:
    @settings(max_examples=500)
    @given(netpbm_bytes())
    def test_only_documented_errors_escape(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
        path.write_bytes(data)
        try:
            img = read_image(path)
        except ImageFormatError:
            return
        assert data[:2] in (b"P5", b"P6")
        assert img.samples.size == img.height * img.width * img.channels

    @given(valid_netpbm())
    def test_well_formed_headers_read_back(self, tmp_path_factory, case):
        data, (channels, width, height, maxval, raster) = case
        path = tmp_path_factory.getbasetemp() / "valid.pnm"
        path.write_bytes(data)
        img = read_image(path)
        assert (img.channels, img.width, img.height) == (channels, width, height)
        assert img.maxval == maxval
        assert img.samples.tobytes() == raster

    def test_huge_dimensions_are_truncated_data(self, tmp_path):
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n" + b"9" * 4000 + b" 1\n255\n" + bytes(16))
        with pytest.raises(ImageFormatError, match="raster holds 16 bytes, header promises"):
            read_image(path)

    @pytest.mark.parametrize("magic", [b"P5", b"P6"])
    def test_huge_raster_refused_without_allocating_it(self, tmp_path, magic):
        # 70000 x 70000 promises 4.9 GB (P5) or 14.7 GB (P6) of raster; the
        # file carries 4 KiB of it, and reading stays within a few file sizes
        path = tmp_path / "huge.pnm"
        path.write_bytes(magic + b"\n70000 70000\n255\n" + bytes(4096))
        tracemalloc.start()
        try:
            with pytest.raises(ImageFormatError, match="raster holds 4096 bytes, header promises"):
                read_image(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * path.stat().st_size


class TestWriteImage:
    @given(images())
    def test_round_trip(self, tmp_path_factory, img):
        path = tmp_path_factory.mktemp("io") / "img.pnm"
        write_image(img, path)
        assert read_image(path) == img

    def test_graymap_bytes(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_image(RasterImage(1, 2, 1, np.array([7, 9], dtype=np.uint8)), path)
        assert path.read_bytes() == b"P5\n2 1\n255\n\x07\x09"

    def test_maxval_written_back(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_image(RasterImage(1, 2, 1, np.array([3, 15], dtype=np.uint8), maxval=15), path)
        assert path.read_bytes() == b"P5\n2 1\n15\n\x03\x0f"

    def test_pixmap_magic(self, tmp_path):
        path = tmp_path / "c.ppm"
        write_image(gradient_image(2, 2, 3), path)
        assert path.read_bytes().startswith(b"P6\n")


_KEY_FIELDS = ("square_size", "overlap", "p", "q", "iterations")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _key_value(value):
    """What a key field decodes to under the documented rule: an int, or a
    string of ASCII digits; None if it must be refused."""
    if isinstance(value, bool):
        return None
    if isinstance(value, str) and value.isascii() and value.isdigit():
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        return int(value) if not limit or len(value) <= limit else None
    return value if isinstance(value, int) else None


@st.composite
def _key_field(draw, clean):
    """(JSON text of one field value, what it decodes to or None); a clean
    field is a non-negative int, bare or quoted."""
    kinds = ["int", "digits"] if clean else ["int", "digits", "long", "any", "any"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("int", "digits"):
        wide = st.integers(0 if clean else -(10**30), 10**600)
        value = draw(st.integers(0, 40) | wide)
        value = value if kind == "int" else str(value)
        return json.dumps(value), _key_value(value)
    if kind == "long":  # around int()'s digit limit, bare or quoted
        digits = "9" * draw(st.integers(4290, 4400))
        return draw(st.sampled_from([digits, json.dumps(digits)])), _key_value(digits)
    odd_digits = st.sampled_from(["\u0661\u0662", "\uff11", "1\u0662", "\u00b2", "+5", " 12"])
    value = draw(_JSON_VALUES | odd_digits)
    return json.dumps(value), _key_value(value)


@st.composite
def key_texts(draw):
    """Key-file text and the KeyConfig fields it spells, or None where
    from_json must refuse it.

    Half the keys are clean: five fields, each a non-negative int.  The
    rest mix fields of every JSON type, digit strings near int()'s limit
    or in other scripts, missing and extra fields, and top-level values
    that are not objects.  One key in eight, clean or not, repeats a field.
    """
    clean = draw(st.booleans())
    present = list(_KEY_FIELDS)
    if not clean and draw(st.booleans()):
        present = draw(st.lists(st.sampled_from(_KEY_FIELDS), unique=True, max_size=5))
    values = {name: draw(_key_field(clean)) for name in present}
    extra_names = st.text(max_size=6).filter(lambda k: k not in _KEY_FIELDS)
    extra = draw(st.dictionaries(extra_names, _JSON_VALUES, max_size=2))
    items = [(json.dumps(k), text) for k, (text, _) in values.items()]
    items += [(json.dumps(k), json.dumps(v)) for k, v in extra.items()]
    repeated = bool(items) and draw(st.integers(0, 7)) == 0
    if repeated:
        items.append(draw(st.sampled_from(items)))
    text = "{" + ", ".join(f"{k}: {v}" for k, v in draw(st.permutations(items))) + "}"
    fields = {name: decoded for name, (_, decoded) in values.items()}
    shape = "object" if clean else draw(st.sampled_from(["object", "object", "list", "scalar"]))
    if shape == "list":
        return f"[{text}]", None
    if shape == "scalar":
        return json.dumps(draw(_JSON_VALUES.filter(lambda v: not isinstance(v, dict)))), None
    if repeated or len(fields) < len(_KEY_FIELDS) or None in fields.values():
        return text, None
    return text, fields


class TestKeyConfig:
    def test_from_json(self):
        key = KeyConfig.from_json(
            '{"square_size": 10, "overlap": 3, "p": 2, "q": 1, "iterations": 5}'
        )
        assert key == KeyConfig(10, 3, 2, 1, 5)

    def test_iterations_as_decimal_string(self):
        big = 10**500 + 1
        key = KeyConfig.from_json(
            '{"square_size": 4, "overlap": 0, "p": 1, "q": 1, "iterations": "%d"}' % big
        )
        assert key.iterations == big

    def test_json_round_trip(self):
        key = KeyConfig(100, 25, 1, 1, 10**489)
        assert KeyConfig.from_json(key_json(key)) == key

    def test_rejects_bad_json(self):
        with pytest.raises(ParameterError):
            KeyConfig.from_json("{not json")
        with pytest.raises(ParameterError):
            KeyConfig.from_json("[1, 2]")

    def test_rejects_repeated_field(self):
        # json.loads alone keeps the last value, so this key would read as p = 2
        text = '{"square_size": 4, "overlap": 0, "p": 1, "q": 1, "iterations": 5, "p": 2}'
        with pytest.raises(ParameterError, match="key file repeats field 'p'"):
            KeyConfig.from_json(text)

    def test_rejects_missing_field(self):
        with pytest.raises(ParameterError):
            KeyConfig.from_json('{"square_size": 4, "overlap": 0, "p": 1, "q": 1}')

    def test_rejects_non_integer_fields(self):
        # int() would take the last four strings; only ASCII digits are decimal here
        strings = ('"1_000"', '" 12 "', '"+5"', '"\u0661\u0662"')
        for bad in ('1.5', 'true', 'null', '"abc"', '[3]', *strings):
            text = '{"square_size": 4, "overlap": 0, "p": 1, "q": 1, "iterations": %s}' % bad
            with pytest.raises(ParameterError):
                KeyConfig.from_json(text)

    @settings(max_examples=400)
    @given(key_texts())
    def test_fuzz_only_parameter_errors_escape(self, case):
        text, fields = case
        try:
            key = KeyConfig.from_json(text)
        except ParameterError:
            in_domain = fields is not None and (
                0 <= fields["overlap"] < fields["square_size"]
                and min(fields["p"], fields["q"], fields["iterations"]) >= 0
            )
            assert not in_domain, text[:200]
            return
        assert fields is not None, text[:200]
        assert key == KeyConfig(**fields)

    def test_rejects_out_of_domain_values(self):
        with pytest.raises(ParameterError):
            KeyConfig(0, 0, 1, 1, 1)
        with pytest.raises(ParameterError):
            KeyConfig(4, 4, 1, 1, 1)
        with pytest.raises(ParameterError):
            KeyConfig(4, 0, -1, 1, 1)
        with pytest.raises(ParameterError):
            KeyConfig(4, 0, 1, 1, -1)


class TestScramble:
    def test_zero_iterations_is_identity(self):
        img = gradient_image(6, 8, 1)
        assert scramble(img, KeyConfig(4, 1, 1, 1, 0)) == img

    def test_period_many_iterations_is_identity(self):
        # A 2x2 image under one square has period 3.
        img = gradient_image(2, 2, 1)
        assert scramble(img, KeyConfig(2, 0, 1, 1, 3)) == img
        assert scramble(img, KeyConfig(2, 0, 1, 1, 2)) != img

    def test_key_too_large_for_image(self):
        with pytest.raises(ParameterError):
            scramble(gradient_image(4, 4, 1), KeyConfig(8, 0, 1, 1, 1))

    @given(images(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 10**30))
    def test_round_trip(self, img, p, q, iterations):
        size = min(img.height, img.width)
        key = KeyConfig(size, size - 1 if size > 1 else 0, p, q, iterations)
        assert descramble(scramble(img, key), key) == img

    def test_iteration_additivity(self):
        img = gradient_image(10, 14, 3)
        key_a = KeyConfig(6, 2, 1, 1, 11)
        key_b = KeyConfig(6, 2, 1, 1, 31)
        key_sum = KeyConfig(6, 2, 1, 1, 42)
        assert scramble(scramble(img, key_a), key_b) == scramble(img, key_sum)

    def test_wrong_overlap_does_not_descramble(self):
        img = gradient_image(8, 8, 1)
        right = KeyConfig(4, 1, 1, 1, 5)
        wrong = KeyConfig(4, 2, 1, 1, 5)
        assert descramble(scramble(img, right), wrong) != img

    def test_maxval_survives_scramble(self):
        img = RasterImage(4, 4, 1, np.arange(16, dtype=np.uint8), maxval=15)
        key = KeyConfig(4, 0, 1, 1, 1)
        out = scramble(img, key)
        assert out.maxval == 15
        assert descramble(out, key) == img

    def test_channels_move_together(self):
        rng = np.random.default_rng(3)
        gray = rng.integers(0, 256, 12 * 9, dtype=np.uint8)
        color = RasterImage(12, 9, 3, np.repeat(gray, 3))
        out = scramble(color, KeyConfig(5, 2, 2, 1, 7))
        planes = out.samples.reshape(-1, 3)
        assert np.array_equal(planes[:, 0], planes[:, 1])
        assert np.array_equal(planes[:, 0], planes[:, 2])


class TestHelpers:
    def test_cycles_for_matches_direct_build(self):
        cycles = cycles_for(6, 10, 4, 1, 2, 3)
        direct = cycle_decompose(oacm_perm(6, 10, 4, 1, p=2, q=3))
        assert (cycles.height, cycles.width) == (6, 10)
        assert np.array_equal(cycles.order, direct.order)
        assert np.array_equal(cycles.starts, direct.starts)

    def test_shift_pixels_matches_apply_iterations(self):
        img = gradient_image(7, 5, 3)
        cycles = cycle_decompose(oacm_perm(7, 5, 3, 1))
        out = shift_pixels(img, cycles, 4)
        planes = img.samples.reshape(-1, 3)
        for c in range(3):
            expect = apply_iterations(cycles, 4, np.ascontiguousarray(planes[:, c]))
            assert np.array_equal(out.samples.reshape(-1, 3)[:, c], expect)
