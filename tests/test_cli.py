"""Command-line surface: output formats, the library scramble path, exit codes."""

import hashlib
import json
import os
import random
import threading
from pathlib import Path

import numpy as np
import pytest

import oacm.acm
import oacm.cli
import oacm.permutation
from helpers import oacm_perm
from oacm import (
    AcmParams,
    KeyConfig,
    RasterImage,
    cycle_decompose,
    image_period,
    matrix_period,
    read_image,
    scientific,
    scramble,
    write_image,
)
from oacm.acm import MAX_PERIOD_SIDE
from oacm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_key(tmp_path, **kw):
    fields = {"square_size": 4, "overlap": 1, "p": 1, "q": 1, "iterations": 5}
    fields.update(kw)
    path = tmp_path / "key.json"
    path.write_text(json.dumps(fields))
    return str(path)


def make_image(tmp_path, height=8, width=10, channels=1, seed=0, maxval=255):
    rng = np.random.default_rng(seed)
    img = RasterImage(
        height, width, channels,
        rng.integers(0, maxval + 1, height * width * channels, dtype=np.uint8),
        maxval,
    )
    path = tmp_path / "img.pnm"
    write_image(img, path)
    return str(path), img


class TestTile:
    def test_stdout_json(self, capsys):
        code, out, _ = run(
            capsys, "tile", "--height", "256", "--width", "256",
            "--square-size", "192", "--overlap", "128",
        )
        assert code == 0
        assert json.loads(out)["squares"] == [[0, 0], [64, 0], [0, 64], [64, 64]]

    def test_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "tiling.json"
        code, out, _ = run(
            capsys, "tile", "--height", "10", "--width", "10",
            "--square-size", "5", "--overlap", "2", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["square_size"] == 5


class TestPeriod:
    def test_output_lines(self, capsys):
        code, out, _ = run(
            capsys, "period", "--height", "16", "--width", "16",
            "--square-size", "16", "--overlap", "0",
        )
        assert code == 0
        lines = out.splitlines()
        period = int(lines[0].split()[1])
        assert lines[0] == f"period {period}"
        assert lines[1] == f"scientific {scientific(period)}"
        assert period == matrix_period(AcmParams(1, 1, 16))

    def test_p_q_flags(self, capsys):
        code, out, _ = run(
            capsys, "period", "--height", "12", "--width", "12",
            "--square-size", "8", "--overlap", "3", "--p", "2", "--q", "3",
        )
        assert code == 0
        want = image_period(cycle_decompose(oacm_perm(12, 12, 8, 3, p=2, q=3)))
        assert int(out.splitlines()[0].split()[1]) == want


class TestCsvCommands:
    def test_similarity(self, capsys):
        code, out, _ = run(
            capsys, "similarity", "--height", "3", "--width", "3",
            "--square-size", "3", "--overlap", "0", "--kmax", "4",
        )
        assert code == 0
        assert out == "k,similarity\n1,0.111111111111\n2,0.111111111111\n3,0.111111111111\n4,1\n"

    def test_histogram_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "hist.csv"
        code, out, _ = run(
            capsys, "histogram", "--height", "3", "--width", "3",
            "--square-size", "3", "--overlap", "0", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text() == "length,count\n1,1\n4,2\n"

    @pytest.mark.parametrize("command", ["tile", "similarity", "histogram"])
    def test_out_file_matches_stdout(self, capsys, tmp_path, command):
        argv = [command, "--height", "10", "--width", "12", "--square-size", "5", "--overlap", "2"]
        if command == "similarity":
            argv += ["--kmax", "30"]
        code, shown, _ = run(capsys, *argv)
        out_path = tmp_path / "out.txt"
        to_file = run(capsys, *argv, "--out", str(out_path))
        assert (code, to_file) == (0, (0, "", ""))
        assert out_path.read_bytes() == shown.encode()

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["similarity", "--height", "24", "--width", "32", "--square-size", "8",
                 "--overlap", "7", "--p", "2", "--q", "3", "--kmax", "5000"],
                "bbe9543a51efda844c54b9ec1fcf61db46150b9de1443ea04cb30b5c29439c8d",
            ),
            (
                ["histogram", "--height", "24", "--width", "32", "--square-size", "8",
                 "--overlap", "7", "--p", "2", "--q", "3"],
                "7a3c4f9951ec5eae55b588a3fdfa679847c045bc46da8c27df66cc0a1f957573",
            ),
            (
                ["similarity", "--height", "10", "--width", "12", "--square-size", "6",
                 "--overlap", "2", "--kmax", "1000"],
                "dbaa15979936b8cc11cd8435760d8d01924106bd982a0b0becfa33cd544965a7",
            ),
        ],
        ids=["similarity-24x32", "histogram-24x32", "similarity-10x12"],
    )
    def test_pinned_digests(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_failed_command_writes_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        code, _, err = run(
            capsys, "similarity", "--height", "3", "--width", "3",
            "--square-size", "3", "--overlap", "0", "--kmax", "0", "--out", str(out_path),
        )
        assert code == 2
        assert "error" in err
        assert not out_path.exists()


class TestLandau:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "landau", "--n", "10")
        assert code == 0
        assert out == "n 10\ng 30\nscientific 3.0e+1\nseries 2 3 5\n"

    def test_output_at_ceiling(self, capsys):
        code, out, _ = run(capsys, "landau", "--n", "2073600")
        assert code == 0
        assert out.startswith("n 2073600\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f66a18b54198b5952071f5f626d3e662334963812e64fe25779dd222080b4944"
        )

    def test_ceiling_maps_to_exit_2(self, capsys):
        code, _, err = run(capsys, "landau", "--n", str(2**21))
        assert code == 2
        assert "error" in err


class TestAcmPeriod:
    def test_classic(self, capsys):
        code, out, _ = run(capsys, "acm-period", "--n", "256")
        assert (code, out) == (0, "192\n")

    def test_generalized(self, capsys):
        code, out, _ = run(capsys, "acm-period", "--n", "50", "--p", "2", "--q", "3")
        assert code == 0
        assert int(out) == matrix_period(AcmParams(2, 3, 50))

    def test_large_prime_side(self, capsys):
        # 200003 is prime and -2 mod 5, so the period is side + 1.
        code, out, _ = run(capsys, "acm-period", "--n", "200003")
        assert (code, out) == (0, "200004\n")

    def test_side_at_the_limit(self, capsys):
        code, out, _ = run(capsys, "acm-period", "--n", str(MAX_PERIOD_SIDE))
        assert code == 0
        assert int(out) >= 1

    def test_side_over_the_limit_exits_2_before_factoring(self, capsys, monkeypatch):
        def no_factoring(m):
            raise AssertionError(f"factored {m}")

        monkeypatch.setattr(oacm.acm, "_factor", no_factoring)
        code, out, err = run(capsys, "acm-period", "--n", str(MAX_PERIOD_SIDE + 1))
        assert (code, out) == (2, "")
        assert "exceeds" in err


class TestScrambleCli:
    def test_round_trip(self, capsys, tmp_path):
        key = make_key(tmp_path)
        src, img = make_image(tmp_path)
        scrambled = str(tmp_path / "s.pnm")
        restored = str(tmp_path / "r.pnm")
        assert run(capsys, "scramble", "--key", key, "--in", src, "--out", scrambled)[0] == 0
        assert run(capsys, "descramble", "--key", key, "--in", scrambled, "--out", restored)[0] == 0
        assert read_image(restored) == img
        assert read_image(scrambled) != img

    def test_color_round_trip(self, capsys, tmp_path):
        key = make_key(tmp_path, square_size=5, overlap=2, iterations=123456789)
        src, img = make_image(tmp_path, height=9, width=7, channels=3)
        scrambled = str(tmp_path / "s.ppm")
        restored = str(tmp_path / "r.ppm")
        run(capsys, "scramble", "--key", key, "--in", src, "--out", scrambled)
        run(capsys, "descramble", "--key", key, "--in", scrambled, "--out", restored)
        assert read_image(restored) == img

    def test_deterministic_output(self, capsys, tmp_path):
        key = make_key(tmp_path)
        src, _ = make_image(tmp_path)
        a = tmp_path / "a.pnm"
        b = tmp_path / "b.pnm"
        run(capsys, "scramble", "--key", key, "--in", src, "--out", str(a))
        run(capsys, "scramble", "--key", key, "--in", src, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("channels", [1, 3])
    def test_bytes_match_the_library(self, capsys, tmp_path, channels):
        key = make_key(tmp_path, square_size=5, overlap=2, p=2, q=3, iterations=10**40 + 7)
        src, _ = make_image(tmp_path, height=9, width=11, channels=channels, maxval=15)
        out = tmp_path / "cli.pnm"
        assert run(capsys, "scramble", "--key", key, "--in", src, "--out", str(out))[0] == 0
        want = tmp_path / "lib.pnm"
        write_image(scramble(read_image(src), KeyConfig.from_json(Path(key).read_text())), want)
        assert out.read_bytes() == want.read_bytes()

    def test_cache_dir_is_a_usage_error(self, capsys, tmp_path):
        key = make_key(tmp_path)
        src, _ = make_image(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["scramble", "--key", key, "--in", src, "--out", str(tmp_path / "s.pnm"),
                  "--cache-dir", str(tmp_path / "cache")])
        assert exc.value.code == 2
        assert not (tmp_path / "s.pnm").exists()


class TestPinnedBytes:
    """Scrambled bytes at a photo-like two-square shape, pinned by SHA-256.

    The samples come from random.Random, whose stream does not depend on
    the numpy version.  A change to the pass, the orbits or the shift that
    moves any byte fails here.
    """

    @pytest.mark.parametrize(
        "magic, height, width, maxval, key, digests",
        [
            (
                b"P6", 108, 192, 255,
                {"square_size": 108, "overlap": 24, "p": 1, "q": 1,
                 "iterations": str(random.Random(480).randrange(10**479, 10**480))},
                {"scramble": "96bd806bf0794447eea9091055b3c0f2c8c3de7d23198d52d7000bbeffb09526",
                 "descramble": "3fb4acd06037b4e8ed32d73b5366f60dd5c31a7840baa08abb395185b7df553c"},
            ),
            (
                b"P5", 100, 120, 15,
                {"square_size": 10, "overlap": 3, "p": 2, "q": 3, "iterations": str(10**40 + 7)},
                {"scramble": "09812ba0c280365b46c85f4f99711278a4256d19f422e4a2e2ab0d99b8ca411a",
                 "descramble": "0b726401e95b4b270bc43d5cf37b9dbccfc93c9b9ae322c56f439b7c2e2ffbc1"},
            ),
        ],
        ids=["P6-108x192-two-squares", "P5-100x120-maxval-15"],
    )
    def test_digests(self, capsys, tmp_path, magic, height, width, maxval, key, digests):
        channels = 3 if magic == b"P6" else 1
        raw = random.Random(height).randbytes(height * width * channels)
        samples = bytes(b % (maxval + 1) for b in raw)
        src = tmp_path / "plain.pnm"
        src.write_bytes(magic + f"\n{width} {height}\n{maxval}\n".encode() + samples)
        key_path = make_key(tmp_path, **key)
        for command, digest in digests.items():
            out = tmp_path / f"{command}.pnm"
            argv = [command, "--key", key_path, "--in", str(src), "--out", str(out)]
            assert run(capsys, *argv)[0] == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command
        restored = tmp_path / "restored.pnm"
        run(capsys, "descramble", "--key", key_path, "--in", str(tmp_path / "scramble.pnm"),
            "--out", str(restored))
        assert restored.read_bytes() == src.read_bytes()


class TestMaxval:
    def test_scramble_keeps_the_header_maxval(self, capsys, tmp_path):
        key = make_key(tmp_path, square_size=4, overlap=0)
        src = tmp_path / "m.pgm"
        src.write_bytes(b"P5\n4 4\n15\n" + bytes(range(16)))
        out = tmp_path / "s.pgm"
        assert run(capsys, "scramble", "--key", key, "--in", str(src), "--out", str(out))[0] == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n4 4\n15\n")
        assert sorted(data[-16:]) == list(range(16))

    def test_sample_above_maxval_exits_3(self, capsys, tmp_path):
        key = make_key(tmp_path, square_size=2, overlap=0)
        src = tmp_path / "over.pgm"
        src.write_bytes(b"P5\n2 2\n15\n\x00\x01\x02\xff")
        code, _, err = run(capsys, "scramble", "--key", key, "--in", str(src),
                           "--out", str(tmp_path / "o.pgm"))
        assert code == 3
        assert "error" in err


class TestExitCodes:
    def test_parameter_error(self, capsys):
        code, _, err = run(
            capsys, "period", "--height", "10", "--width", "10",
            "--square-size", "20", "--overlap", "0",
        )
        assert code == 2
        assert "error" in err

    def test_bad_key_json(self, capsys, tmp_path):
        key = tmp_path / "key.json"
        key.write_text("{broken")
        src, _ = make_image(tmp_path)
        code, _, err = run(capsys, "scramble", "--key", str(key), "--in", src,
                           "--out", str(tmp_path / "o.pnm"))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            # 5000 digits is past Python's default limit for int <-> str conversion
            '{"square_size": 4, "overlap": 1, "p": 1, "q": 1, "iterations": %s}' % ("9" * 5000),
            "[" * 100_000 + "]" * 100_000,
            # not UTF-8: a UTF-16 byte-order mark, and a byte that cannot start a UTF-8 character
            b"\xff\xfe{}",
            b'{"p": "\x80"}',
        ],
        ids=["huge-number", "deep-nesting", "utf16-bom", "not-utf8"],
    )
    def test_unreadable_key_exits_2(self, capsys, tmp_path, text):
        key = tmp_path / "key.json"
        key.write_bytes(text if isinstance(text, bytes) else text.encode())
        src, _ = make_image(tmp_path)
        code, _, err = run(capsys, "scramble", "--key", str(key), "--in", src,
                           "--out", str(tmp_path / "o.pnm"))
        assert code == 2
        assert err.startswith("error: key file")
        assert not (tmp_path / "o.pnm").exists()

    def test_repeated_key_field_exits_2(self, capsys, tmp_path):
        key = tmp_path / "key.json"
        key.write_text('{"square_size": 4, "overlap": 1, "p": 1, "q": 1, "iterations": 5, "p": 2}')
        src, _ = make_image(tmp_path)
        code, _, err = run(capsys, "scramble", "--key", str(key), "--in", src,
                           "--out", str(tmp_path / "o.pnm"))
        assert code == 2
        assert err == "error: key file repeats field 'p'\n"
        assert not (tmp_path / "o.pnm").exists()

    def test_multi_image_stream_exits_3(self, capsys, tmp_path):
        key = make_key(tmp_path, square_size=4, overlap=0)
        src = tmp_path / "two.pgm"
        image = b"P5\n4 4\n255\n" + bytes(range(16))
        src.write_bytes(image + image)
        code, _, err = run(capsys, "scramble", "--key", key, "--in", str(src),
                           "--out", str(tmp_path / "o.pgm"))
        assert code == 3
        assert "multi-image streams are not supported" in err
        assert not (tmp_path / "o.pgm").exists()

    def test_missing_input_file(self, capsys, tmp_path):
        key = make_key(tmp_path)
        code, _, err = run(capsys, "scramble", "--key", key, "--in",
                           str(tmp_path / "none.pgm"), "--out", str(tmp_path / "o.pnm"))
        assert code == 3

    def test_malformed_image(self, capsys, tmp_path):
        key = make_key(tmp_path)
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"not an image")
        code, _, err = run(capsys, "scramble", "--key", key, "--in", str(bad),
                           "--out", str(tmp_path / "o.pnm"))
        assert code == 3

    @pytest.mark.parametrize("magic", [b"P5", b"P6"])
    def test_huge_raster_header_exits_3(self, capsys, tmp_path, magic):
        key = make_key(tmp_path)
        src = tmp_path / "huge.pnm"
        src.write_bytes(magic + b"\n70000 70000\n255\n" + bytes(64))
        code, _, err = run(capsys, "scramble", "--key", key, "--in", str(src),
                           "--out", str(tmp_path / "o.pnm"))
        assert code == 3
        assert "header promises" in err
        assert not (tmp_path / "o.pnm").exists()

    def test_oversize_image_exits_2_before_allocating(self, capsys, monkeypatch):
        def allocating(params):
            raise AssertionError("the cover of an oversize image was built")

        monkeypatch.setattr(oacm.permutation, "square_locations", allocating)
        code, out, err = run(
            capsys, "period", "--height", "70000", "--width", "70000",
            "--square-size", "8", "--overlap", "0",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: 70000x70000 = 4900000000 pixels exceeds the limit")
        assert err.count("\n") == 1

    def test_memory_error_exits_4(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(oacm.cli, "cmd_period", exhausted)
        code, out, err = run(
            capsys, "period", "--height", "200000", "--width", "200000",
            "--square-size", "10", "--overlap", "0",
        )
        assert code == 4
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 298. GiB for an array\n"

    def test_memory_error_on_the_helper_thread_exits_4(self, capsys, monkeypatch, tmp_path):
        # at photo size on two CPUs the walk's second group runs on a
        # helper thread; what it raises ends the command like the caller's
        walk = oacm.permutation._walk

        def walk_on_main_thread_only(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError
            return walk(*args)

        monkeypatch.setattr(oacm.permutation, "_walk", walk_on_main_thread_only)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        src, out_path = tmp_path / "photo.ppm", tmp_path / "out.ppm"
        write_image(RasterImage(1080, 1920, 3, np.zeros(1080 * 1920 * 3, dtype=np.uint8)), src)
        key = make_key(tmp_path, square_size=1080, overlap=240)
        code, out, err = run(
            capsys, "scramble", "--key", key, "--in", str(src), "--out", str(out_path)
        )
        assert code == 4
        assert out == ""
        assert err == "error: out of memory\n"
        assert not out_path.exists()

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
