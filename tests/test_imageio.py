"""Round trips, decode errors, resampling, and manifests."""

import math
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from _oracles import filter_scanline, unfilter_reference
from segens import imageio
from segens.cli import main
from segens.errors import DecodeError, NumericError
from segens.imageio import (ManifestRecord, load_feature_stack, load_gray,
                            load_mask, load_probmap, read_manifest, sample,
                            store_feature_stack, store_gray, store_mask,
                            store_probmap, write_manifest)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestPgm:
    def test_mask_round_trip_pgm(self, tmp_path, rng):
        mask = (rng.random((9, 7)) > 0.5).astype(np.uint8)
        path = tmp_path / "m.pgm"
        store_mask(mask, path)
        assert np.array_equal(load_mask(path), mask)

    def test_all_zero_and_all_one(self, tmp_path):
        for fill in (0, 1):
            path = tmp_path / f"m{fill}.pgm"
            store_mask(np.full((4, 4), fill, np.uint8), path)
            assert (load_mask(path) == fill).all()

    def test_threshold_rule(self, tmp_path):
        img = np.array([[0, 127, 128, 255]], np.uint8)
        path = tmp_path / "g.pgm"
        store_gray(img, path)
        assert load_mask(path).tolist() == [[0, 0, 1, 1]]

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x01\xff")
        assert load_gray(path).tolist() == [[1, 255]]

    def test_truncated_raster_reports_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(DecodeError, match="expected 16 bytes, found 7") as e:
            load_gray(path)
        assert e.value.offset is not None

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DecodeError, match="maxval 65535"):
            load_gray(path)

    @pytest.mark.parametrize("maxval,expected", [
        (1, [0, 255]), (3, [0, 85, 170, 255]), (6, [0, 43, 85, 128, 170, 213, 255])])
    def test_low_maxval_rescaled_to_255(self, tmp_path, maxval, expected):
        # Netpbm: sample v reads as round(v * 255 / maxval), halves up
        n = maxval + 1
        path = tmp_path / "low.pgm"
        path.write_bytes(b"P5\n%d 1\n%d\n" % (n, maxval) + bytes(range(n)))
        assert load_gray(path).tolist() == [expected]

    def test_maxval_one_mask_loads_as_mask(self, tmp_path, rng):
        mask = (rng.random((5, 6)) > 0.5).astype(np.uint8)
        path = tmp_path / "bits.pgm"
        path.write_bytes(b"P5\n6 5\n1\n" + mask.tobytes())
        assert np.array_equal(load_mask(path), mask)

    def test_sample_above_maxval_reports_offset(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n3 1\n1\n\x00\x01\x02")
        with pytest.raises(DecodeError, match="exceeds maxval 1") as e:
            load_gray(path)
        assert e.value.offset == len(b"P5\n3 1\n1\n") + 2

    # a header token is a run of bytes other than space, tab, CR and LF;
    # '#' outside a token starts a comment that runs to the next LF or EOF;
    # the three integers are ASCII decimal, with no sign or '_'
    @pytest.mark.parametrize("data, message, offset", [
        (b"P5", "truncated PGM header", 2),
        (b"P5 2 1 #c", "truncated PGM header", 9),  # comment runs to EOF
        (b"P5\n2#c\n1 255\n\x01\x02", "bad PGM header token b'2#c'", 3),
        (b"P5 2 x 255\n\x00\x00", "bad PGM header token b'x'", 5),
        (b"P5 -2 1 255 ", "bad PGM header token b'-2'", 3),
        (b"P5 1_0 1 255 " + bytes(10), "bad PGM header token b'1_0'", 3),
        (b"P5 +2 1 255 \x00\x00", "bad PGM header token b'+2'", 3),
        (b"P5 2 1 +255 \x00\x00", "bad PGM header token b'+255'", 7),
        # int() would strip the vertical tab and form feed
        (b"P5 2\x0b 1 255 \x00\x00", "bad PGM header token b'2\\x0b'", 3),
        (b"P5 2 \x0c1 255 \x00\x00", "bad PGM header token b'\\x0c1'", 5),
        (b"P5 2 1 0 ", "unsupported maxval 0 (8-bit only)", 7),
        # no byte after maxval: the raster starts one past EOF
        (b"P5 2 1 255", "truncated PGM raster: expected 2 bytes, found 0", 11),
        (b"P5\n2 1\n255\n", "truncated PGM raster: expected 2 bytes, found 0", 11),
        (b"P5 0 2 255 ", "bad PGM dimensions 0x2", 3)])
    def test_header_error_message_and_offset(self, tmp_path, data, message,
                                             offset):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(DecodeError) as e:
            load_gray(path)
        assert (e.value.args[0], e.value.offset) == (message, offset)

    @pytest.mark.parametrize("data, want", [
        (b"P5\r2\r1\r255\r\x01\x02", [[1, 2]]),  # CR separates tokens
        (b"P5#c\n2 1\n255\n\x01\x02", [[1, 2]]),  # comment right after the magic
        (b"P5 2 1 #c\r3\n255\n\x01\x02", [[1, 2]]),  # only LF ends a comment
        (b"P5 2 1 255\n# x", [[35, 32]]),  # the raster may start with '#'
        (b"P5 02 1 0255 \x01\x02", [[1, 2]])])  # leading zeros are decimal
    def test_header_tokens(self, tmp_path, data, want):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        assert load_gray(path).tolist() == want

    def test_color_ppm_rejected(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(DecodeError, match="P5"):
            load_gray(path)


class TestStoreGray:
    # uint8 only: every other dtype raises before a file exists, whatever
    # its values; [[300, -1], [2.7, 7]] must not be written as 44, 255, 2, 7
    @pytest.mark.parametrize("suffix", [".pgm", ".png"])
    @pytest.mark.parametrize("bad, error", [
        ([[300, -1], [2.7, 7]], ValueError), ([[300, 1]], ValueError),
        ([[-1, 1]], ValueError), ([[2.5, 1]], ValueError),
        ([[math.nan, 1]], ValueError), ([[math.inf, 1]], ValueError),
        (np.array([[0, 255]], np.uint16), ValueError),
        (np.array([[0, 127]], np.int8), ValueError),
        (np.array([[0, 255]], np.float32), ValueError),
        (np.array([[0, 1]], bool), ValueError)])
    def test_values_that_do_not_fit_a_byte_write_nothing(self, tmp_path, bad,
                                                         error, suffix):
        path = tmp_path / f"g{suffix}"
        bad = np.asarray(bad)
        with pytest.raises(error, match=f"^image must be uint8, got {bad.dtype}$"):
            store_gray(bad, path)
        assert not path.exists()


def _png_chunk(ctype, payload):
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def _build_png(img, filters):
    h, w = img.shape
    raw = b""
    prev = bytes(w)
    for r in range(h):
        f = filters[r % len(filters)]
        raw += bytes([f]) + filter_scanline(f, bytes(img[r]), prev)
        prev = bytes(img[r])
    return (b"\x89PNG\r\n\x1a\n"
            + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
            + _png_chunk(b"IDAT", zlib.compress(raw))
            + _png_chunk(b"IEND", b""))


class TestUnfilter:
    @pytest.mark.parametrize("filters", [(0,), (1,), (2,), (3,), (4,),
                                         "mixed"])
    def test_matches_per_pixel_reference(self, rng, filters):
        width, height = 64, 12
        if filters == "mixed":
            filters = rng.permutation(np.arange(height) % 5)  # each type twice
        # half the bytes near the ends of the range, so sums wrap at 0 and 255
        edges = rng.choice(np.array([0, 1, 254, 255], np.uint8), (height, width))
        pixels = np.where(rng.random((height, width)) < 0.5, edges,
                          rng.integers(0, 256, (height, width), dtype=np.uint8))
        ftypes = np.resize(np.asarray(filters, np.uint8), height)
        raw = np.column_stack([ftypes, pixels]).astype(np.uint8).tobytes()
        want, wrapped, on_zero = unfilter_reference(raw, width, height)
        got = imageio._unfilter_scanlines(raw, width, height)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert {0, 255} <= set(pixels.ravel().tolist())
        if set(ftypes.tolist()) != {0}:
            assert wrapped > 0 and on_zero > 0

    # Filter layouts big enough for the anti-diagonal wavefront: each maps
    # an rng to (filter type per row, width, the spans that must take it).
    LAYOUTS = {
        "paeth": lambda rng: ([4] * 256, 256, [(0, 256)]),
        "average": lambda rng: ([3] * 256, 256, [(0, 256)]),
        # random 1-4 rows, cut by None rows; the 9-row tail stays on rows
        "cut spans": lambda rng: (
            np.where(np.isin(np.arange(300), [0, 140, 141, 290]), 0,
                     rng.choice([1, 2, 3, 4], 300, p=[.1, .1, .3, .5])),
            256, [(1, 140), (142, 290)]),
        # a long span beside 1-row Paeth and Average spans
        "long and short": lambda rng: (
            [4] * 150 + [0, 4, 0, 3, 0, 4, 1, 0], 200, [(0, 150)]),
        # like libpng's adaptive filter on a photograph: None rows, a Sub
        # row, then Paeth with Up and Average rows inside the span
        "photo": lambda rng: (
            [0, 0, 1] + rng.choice([2, 3, 4], 253, p=[.02, .04, .94]).tolist(),
            256, [(2, 256)]),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_wavefront_matches_per_pixel_reference(self, rng, layout):
        ftypes, width, spans = self.LAYOUTS[layout](rng)
        ftypes = np.asarray(ftypes, np.uint8)
        assert imageio._wavefront_spans(ftypes, width) == spans
        height = len(ftypes)
        edges = rng.choice(np.array([0, 1, 254, 255], np.uint8), (height, width))
        pixels = np.where(rng.random((height, width)) < 0.5, edges,
                          rng.integers(0, 256, (height, width), dtype=np.uint8))
        raw = np.column_stack([ftypes, pixels]).tobytes()
        want, wrapped, on_zero = unfilter_reference(raw, width, height)
        got = imageio._unfilter_scanlines(raw, width, height)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert wrapped > 0 and on_zero > 0

    def test_invalid_filter_byte_names_row(self):
        raw = bytes([0]) + bytes(64) + bytes([5]) + bytes(64)
        with pytest.raises(DecodeError, match="invalid PNG scanline filter 5 in row 1"):
            imageio._unfilter_scanlines(raw, 64, 2)


class TestPng:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (13, 9), dtype=np.uint8)
        path = tmp_path / "i.png"
        store_gray(img, path)
        assert np.array_equal(load_gray(path), img)

    def test_mask_round_trip_png(self, tmp_path, rng):
        mask = (rng.random((8, 8)) > 0.3).astype(np.uint8)
        path = tmp_path / "m.png"
        store_mask(mask, path)
        assert np.array_equal(load_mask(path), mask)

    @pytest.mark.parametrize("filters", [(0,), (1,), (2,), (3,), (4,),
                                         (0, 1, 2, 3, 4)])
    def test_all_scanline_filters_decode(self, tmp_path, rng, filters):
        img = rng.integers(0, 256, (10, 6), dtype=np.uint8)
        path = tmp_path / "f.png"
        path.write_bytes(_build_png(img, filters))
        assert np.array_equal(load_gray(path), img)

    def test_color_png_rejected(self, tmp_path):
        header = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)
        data = (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", header)
                + _png_chunk(b"IDAT", zlib.compress(b"\x00\x01\x02\x03"))
                + _png_chunk(b"IEND", b""))
        path = tmp_path / "rgb.png"
        path.write_bytes(data)
        with pytest.raises(DecodeError, match="color type 2"):
            load_gray(path)

    def test_16bit_png_rejected(self, tmp_path):
        header = struct.pack(">IIBBBBB", 1, 1, 16, 0, 0, 0, 0)
        data = (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", header)
                + _png_chunk(b"IDAT", zlib.compress(b"\x00\x00\x00"))
                + _png_chunk(b"IEND", b""))
        path = tmp_path / "deep.png"
        path.write_bytes(data)
        with pytest.raises(DecodeError, match="bit depth 16"):
            load_gray(path)

    def test_truncated_png_reports_offset(self, tmp_path, rng):
        img = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        good = _build_png(img, (0,))
        path = tmp_path / "t.png"
        path.write_bytes(good[:len(good) - 10])
        with pytest.raises(DecodeError) as e:
            load_gray(path)
        assert e.value.offset is not None

    @pytest.mark.parametrize("size", [0, 8, 12, 14])
    def test_wrong_size_ihdr_reports_chunk_offset(self, tmp_path, size):
        header = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
        data = (b"\x89PNG\r\n\x1a\n"
                + _png_chunk(b"IHDR", (header + b"\x00")[:size])
                + _png_chunk(b"IDAT", zlib.compress(b"\x00\x00"))
                + _png_chunk(b"IEND", b""))
        path = tmp_path / "short.png"
        path.write_bytes(data)
        with pytest.raises(DecodeError, match=f"IHDR has {size} bytes") as e:
            load_gray(path)
        assert e.value.offset == 8

    IDAT_AT = 33  # the signature and the IHDR chunk come first

    @staticmethod
    def _gray_png(path, width, height, idat):
        header = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", header)
                         + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b""))
        return path

    @pytest.mark.parametrize("width, height, raw_size", [
        (0, 3, 3), (3, 0, 0), (0, 0, 0), (2**32 - 1, 2**32 - 1, 0)])
    def test_bad_dimensions_report_ihdr_offset(self, tmp_path, width, height,
                                               raw_size):
        # raw_size filter bytes would decode a zero-size raster as valid
        path = self._gray_png(tmp_path / "dims.png", width, height,
                              zlib.compress(bytes(raw_size)))
        with pytest.raises(DecodeError, match="bad PNG dimensions") as e:
            load_gray(path)
        assert e.value.offset == 16  # IHDR payload: signature + chunk header

    @pytest.mark.parametrize("fields, message, offset", [
        ((1, 0, 0), "unsupported PNG compression/filter method", 26),
        ((0, 1, 0), "unsupported PNG compression/filter method", 26),
        ((0, 0, 1), "interlaced PNG not supported", 28)],
        ids=["compression", "filter", "interlace"])
    def test_unsupported_ihdr_method_reports_its_offset(self, tmp_path, fields,
                                                        message, offset):
        header = struct.pack(">IIBBBBB", 1, 1, 8, 0, *fields)
        path = tmp_path / "method.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", header)
                         + _png_chunk(b"IDAT", zlib.compress(b"\x00\x00"))
                         + _png_chunk(b"IEND", b""))
        with pytest.raises(DecodeError) as e:
            load_gray(path)
        assert (e.value.args[0], e.value.offset) == (message, offset)

    def test_oversized_idat_is_not_inflated(self, tmp_path):
        # 64 MiB of zeros behind a 2x2 header; only 6 bytes are expected
        deflate = zlib.compressobj()
        block = bytes(1 << 20)
        idat = b"".join(deflate.compress(block) for _ in range(64)) + deflate.flush()
        path = self._gray_png(tmp_path / "bomb.png", 2, 2, idat)
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError, match="exceeds the expected 6 bytes") as e:
                load_gray(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert e.value.offset == self.IDAT_AT

    def test_incomplete_idat_stream_rejected(self, tmp_path):
        # all 6 pixel bytes are present; only the Adler-32 trailer is cut
        idat = zlib.compress(b"\x00\x01\x02" * 2)[:-4]
        path = self._gray_png(tmp_path / "cut.png", 2, 2, idat)
        with pytest.raises(DecodeError, match="incomplete") as e:
            load_gray(path)
        assert e.value.offset == self.IDAT_AT

    @pytest.mark.parametrize("raw, message", [
        (b"\x00\x01\x02\x05\x03\x04", "invalid PNG scanline filter 5 in row 1"),
        (b"\x00\x01\x02", "pixel data length 3 != expected 6"),
        (None, "decompression failed")])
    def test_pixel_data_errors_report_first_idat_offset(self, tmp_path, raw,
                                                        message):
        idat = b"not a zlib stream" if raw is None else zlib.compress(raw)
        header = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
        half = len(idat) // 2  # two IDAT chunks: the offset is the first's
        path = tmp_path / "px.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", header)
                         + _png_chunk(b"IDAT", idat[:half])
                         + _png_chunk(b"IDAT", idat[half:])
                         + _png_chunk(b"IEND", b""))
        with pytest.raises(DecodeError, match=message) as e:
            load_gray(path)
        assert e.value.offset == self.IDAT_AT

    def test_invalid_filter_after_long_span_reports_idat_offset(self, tmp_path,
                                                                 rng):
        # rows 0-199 are a span the wavefront decodes; row 200 is bad
        raw = np.column_stack([[4] * 200 + [7, 4],
                               rng.integers(0, 256, (202, 256))]).astype(np.uint8)
        assert imageio._wavefront_spans(raw[:200, 0], 256) == [(0, 200)]
        path = self._gray_png(tmp_path / "bad.png", 256, 202,
                              zlib.compress(raw.tobytes()))
        with pytest.raises(DecodeError,
                           match="invalid PNG scanline filter 7 in row 200") as e:
            load_gray(path)
        assert e.value.offset == self.IDAT_AT

    # IHDR comes first and once; without that rule these files decode, as
    # a 1x1 and a 4x1 image
    @pytest.mark.parametrize("chunks, offset, found", [
        ([(b"tEXt", b"k\x00v"), (b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)),
          (b"IDAT", zlib.compress(b"\x00\x07"))], 8, "tEXt"),
        ([(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)),
          (b"IHDR", struct.pack(">IIBBBBB", 4, 1, 8, 0, 0, 0, 0)),
          (b"IDAT", zlib.compress(b"\x00\x07\x07\x07\x07"))], 33, "IHDR")])
    def test_ihdr_first_and_once(self, tmp_path, chunks, offset, found):
        path = tmp_path / "order.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + b"".join(
            _png_chunk(ctype, payload) for ctype, payload in chunks)
            + _png_chunk(b"IEND", b""))
        with pytest.raises(DecodeError) as e:
            load_gray(path)
        assert e.value.args[0] == ("PNG IHDR must come first and only once; "
                                   f"found {found!r}")
        assert (e.value.offset, e.value.path) == (offset, path)
        assert main(["eval", "--pred", str(path), "--gt", str(path)]) == 2

    def test_crc_mismatch_detected(self, tmp_path, rng):
        img = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        good = bytearray(_build_png(img, (0,)))
        good[-5] ^= 0xFF  # corrupt the IEND CRC
        path = tmp_path / "bad.png"
        path.write_bytes(bytes(good))
        with pytest.raises(DecodeError, match="CRC"):
            load_gray(path)


class TestProbMap:
    def test_round_trip_quantization_bound(self, tmp_path, rng):
        pm = rng.random((16, 16)).astype(np.float32)
        path = tmp_path / "p.pgm"
        store_probmap(pm, path)
        back = load_probmap(path)
        assert np.abs(back.astype(np.float64) - pm).max() <= 1.0 / 510 + 1e-12

    def test_half_rounds_up(self, tmp_path):
        path = tmp_path / "h.pgm"
        store_probmap(np.array([[0.5]], np.float32), path)
        assert path.read_bytes()[-1] == 128
        assert abs(load_probmap(path)[0, 0] - 128 / 255) < 1e-7

    def test_every_level_loads_as_its_float32_ratio(self, tmp_path):
        # one pixel per sample value, at the full and at a short maxval;
        # the mask is read from the same levels
        for maxval in (255, 7):
            path = tmp_path / f"levels{maxval}.pgm"
            path.write_bytes(b"P5\n%d 1\n%d\n" % (maxval + 1, maxval)
                             + bytes(range(maxval + 1)))
            levels = load_gray(path)
            assert (np.diff(levels.astype(int)) > 0).all()  # all 256 at 255
            back = load_probmap(path)
            assert back.dtype == np.float32
            want = levels.astype(np.float32) / np.float32(255)
            assert back.tobytes() == want.tobytes()
            mask = load_mask(path)
            assert mask.dtype == np.uint8 and mask.flags.writeable
            assert np.array_equal(mask, levels > 127)
            assert set(np.unique(mask).tolist()) == {0, 1}

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            store_probmap(np.array([[1.5]]), tmp_path / "x.pgm")

    def test_levels_match_formula_and_input_is_kept(self, tmp_path, rng):
        # every exact half-level, its neighbours either side, and noise
        halves = (np.arange(255) + 0.5) / 255
        pm = np.concatenate([halves, np.nextafter(halves, 0),
                             np.nextafter(halves, 1), rng.random(256),
                             [0.0, 1.0]])[None, :]
        kept = pm.copy()
        path = tmp_path / "f.pgm"
        store_probmap(pm, path)
        assert pm.tobytes() == kept.tobytes()
        want = np.floor(kept * 255.0 + 0.5).astype(np.uint8)
        assert load_gray(path).tobytes() == want.tobytes()

    def test_memory_is_one_float64_copy(self, tmp_path):
        # a 1024x1024 float32 map traces 9 MB: one 8 MB float64 copy,
        # scaled in place, and the 8-bit image, whose buffer is written
        # after the header; a copy of the 8-bit image and the joined PGM
        # bytes made 12 MB, and the copy, scaled copy and floor 24 MB
        pm = np.random.default_rng(3).random((1024, 1024), dtype=np.float32)
        path = tmp_path / "big.pgm"
        tracemalloc.start()
        try:
            store_probmap(pm, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20, f"peak {peak / 2**20:.1f} MB"
        want = np.floor(pm.astype(np.float64) * 255.0 + 0.5).astype(np.uint8)
        assert path.read_bytes() == b"P5\n1024 1024\n255\n" + want.tobytes()


class TestFst:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        stack = rng.standard_normal((3, 5, 4)).astype(np.float32)
        path = tmp_path / "s.fst"
        store_feature_stack(stack, path)
        back = load_feature_stack(path)
        assert back.tobytes() == stack.tobytes()

    def test_known_tiny_file_layout(self, tmp_path):
        path = tmp_path / "one.fst"
        store_feature_stack(np.ones((1, 1, 1), np.float32), path)
        data = path.read_bytes()
        assert len(data) == 4 + len(b"1 1 1\n") + 4
        assert data[:4] == b"FST1"
        assert data[4:10] == b"1 1 1\n"
        assert data[10:] == b"\x00\x00\x80\x3f"

    def test_truncated_payload_names_counts(self, tmp_path):
        path = tmp_path / "bad.fst"
        path.write_bytes(b"FST1" + b"2 2 2\n" + b"\x00" * 30)
        with pytest.raises(DecodeError, match="expected 32 bytes, got 30"):
            load_feature_stack(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "nope.fst"
        path.write_bytes(b"XXXX1 1 1\n\x00\x00\x00\x00")
        with pytest.raises(DecodeError, match="magic"):
            load_feature_stack(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        payload = struct.pack("<4f", 0.5, 1.0, float("inf"), float("nan"))
        path = tmp_path / "inf.fst"
        path.write_bytes(b"FST1" + b"1 2 2\n" + payload)
        with pytest.raises(DecodeError, match="non-finite") as e:
            load_feature_stack(path)
        assert e.value.offset == len(b"FST1" + b"1 2 2\n") + 8  # the third value

    # the dims are ASCII decimal: int() alone would take a sign, '_' and
    # other scripts' digits; each payload fits the dims int() would read
    @pytest.mark.parametrize("dims, floats", [
        ("\u0663 2 2".encode(), 12), (b"3 2 2_0", 120), (b"+1 1 1", 1),
        (b"-1 1 1", 1), (b"1 1 1\xff", 1)])
    def test_dims_are_ascii_decimal(self, tmp_path, dims, floats):
        path = tmp_path / "dims.fst"
        path.write_bytes(b"FST1" + dims + b"\n" + bytes(4 * floats))
        with pytest.raises(DecodeError) as e:
            load_feature_stack(path)
        assert (e.value.args[0], e.value.offset) == ("unparseable FST dims line", 4)

    @pytest.mark.parametrize("dims, floats", [(b"2 2", 4), (b"0 2 2", 0)])
    def test_dims_are_three_positive_integers(self, tmp_path, dims, floats):
        path = tmp_path / "dims.fst"
        path.write_bytes(b"FST1" + dims + b"\n" + bytes(4 * floats))
        with pytest.raises(DecodeError, match="^bad FST dims ") as e:
            load_feature_stack(path)
        assert e.value.offset == 4

    def test_store_rejects_non_finite(self, tmp_path):
        # the one non-finite contract: NumericError (exit 4), no file written
        path = tmp_path / "n.fst"
        for bad in (np.nan, np.inf, -np.inf):
            stack = np.ones((2, 3, 3), np.float32)
            stack[1, 2, 0] = bad
            with pytest.raises(NumericError, match="non-finite"):
                store_feature_stack(stack, path)
            assert not path.exists()


def reference_sample(arr, sy, sx, mode):
    """Per-pixel ``sample`` with the same arithmetic order."""
    h, w = arr.shape

    def at(i, j):
        return float(arr[i, j]) if 0 <= i < h and 0 <= j < w else 0.0

    if mode == "nearest" or arr.dtype == np.uint8:
        out = np.zeros(sy.shape, arr.dtype)
    else:
        out = np.zeros(sy.shape, np.float32)
    for k in np.ndindex(sy.shape):
        y, x = float(sy[k]), float(sx[k])
        if mode == "nearest":
            out[k] = at(math.floor(y), math.floor(x))
            continue
        i, j = math.floor(y - 0.5), math.floor(x - 0.5)
        fy, fx = y - 0.5 - i, x - 0.5 - j
        acc = 0.0
        for di, wy in ((0, 1.0 - fy), (1, fy)):
            for dj, wx in ((0, 1.0 - fx), (1, fx)):
                acc += wy * wx * at(i + di, j + dj)
        out[k] = min(max(math.floor(acc + 0.5), 0), 255) if arr.dtype == np.uint8 else acc
    return out


def _sample_source(rng, dtype, shape):
    """uint8 noise, or float32 noise with negative values and -0.0."""
    if dtype == np.uint8:
        return rng.integers(0, 256, shape).astype(np.uint8)
    arr = rng.normal(size=shape).astype(np.float32)
    arr[arr > 0.8] = -0.0
    return arr


# every source dtype and mode; the ids name the zero border ``sample`` reads
# past every edge
SAMPLE_CASES = [pytest.param(dtype, mode, id=f"{np.dtype(dtype).name}-zero-{mode}")
                for dtype in (np.uint8, np.float32) for mode in ("bilinear", "nearest")]


class TestSample:
    @pytest.mark.parametrize("dtype, mode", SAMPLE_CASES)
    def test_matches_per_pixel_reference(self, rng, dtype, mode):
        for h, w in ((1, 1), (3, 5), (6, 4)):
            arr = _sample_source(rng, dtype, (h, w))
            # on, inside and beyond every edge, in the second ring of the
            # bilinear pad (-2 <= y - 0.5 < -1, h + 0.5 <= y - 0.5 <= h + 1.5),
            # beyond it and far beyond it, plus pixel centers and random
            # interior points
            ys = np.concatenate([[-1e300, -1.7, -1.0, -0.5, 0.0, 0.25, 0.5, h - 0.5, h,
                                  h + 0.5, h + 1.0, h + 1.7, h + 2.0, h + 2.3, 1e300],
                                 rng.uniform(0, h, 4)])
            xs = np.concatenate([[-1e300, -2.2, -1.5, -0.5, 0.0, 0.5, 0.75, w - 0.5, w,
                                  w + 0.5, w + 1.1, w + 1.5, w + 2.0, 1e300],
                                 rng.uniform(0, w, 4)])
            sy, sx = np.meshgrid(ys, xs, indexing="ij")
            out = sample(arr, sy, sx, mode)
            want = reference_sample(arr, sy, sx, mode)
            assert out.dtype == want.dtype
            assert out.tobytes() == want.tobytes()
            vectors = sample(arr, ys[:, None], xs[None, :], mode)
            assert vectors.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, mode", SAMPLE_CASES)
    def test_grids_spanning_several_chunks(self, rng, dtype, mode):
        # 97 x 211 outputs take three chunks of rows, the last one partial,
        # and their coordinates reach far past every edge of a 9 x 13 source
        h, w, oh, ow = 9, 13, 97, 211
        rows = imageio._CHUNK_PIXELS // ow
        assert oh > 2 * rows and oh % rows
        arr = _sample_source(rng, dtype, (h, w))
        ys = np.linspace(-3 * h, 4 * h, oh) + rng.uniform(-0.5, 0.5, oh)
        xs = np.linspace(-3 * w, 4 * w, ow) + rng.uniform(-0.5, 0.5, ow)
        gy, gx = np.meshgrid(ys, xs, indexing="ij")
        # a full grid no pair of vectors spans: sheared, with jitter
        sy = gy + 0.3 * gx + rng.uniform(-1, 1, gy.shape)
        sx = gx - 0.2 * gy + rng.uniform(-1, 1, gx.shape)
        out = sample(arr, sy, sx, mode)
        want = reference_sample(arr, sy, sx, mode)
        assert out.dtype == want.dtype
        assert out.tobytes() == want.tobytes()
        want = reference_sample(arr, gy, gx, mode)
        for vy, vx in ((ys[:, None], xs[None, :]), (gy, xs), (ys[:, None], gx)):
            assert sample(arr, vy, vx, mode).tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["bilinear", "nearest"])
    def test_huge_coordinates_read_the_edge(self, mode):
        # an int64 cast of +1e300 wrapped to INT64_MIN, which read row 0;
        # past each edge lies the zero pad, just inside it the edge pixel
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4) + 10
        for y, x, edge in ((1e300, 1.5, 19), (-1e300, 1.5, 11), (1.5, 1e300, 17),
                           (1.5, -1e300, 14), (1e300, -1e300, 18)):
            assert sample(arr, [y], [x], mode)[0] == 0
            inside = [min(max(c, 0.5), n - 0.5) for c, n in ((y, 3), (x, 4))]
            assert sample(arr, [inside[0]], [inside[1]], mode)[0] == edge

    @pytest.mark.parametrize("mode", ["bilinear", "nearest"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, mode, bad):
        arr = np.ones((3, 4), np.float32)
        ys = np.array([[0.5], [bad]])
        xs = np.array([[0.5, 1.5]])
        for sy, sx in ((ys, xs), (xs.T, ys.T)):
            with pytest.raises(ValueError, match="finite"):
                sample(arr, sy, sx, mode)

    def test_uint8_rounds_half_up(self):
        arr = np.array([[0, 1]], np.uint8)
        assert sample(arr, np.array([0.5]), np.array([1.0]), "bilinear")[0] == 1

    def test_unknown_mode_rejected(self):
        arr = np.zeros((2, 2), np.uint8)
        with pytest.raises(ValueError, match="mode"):
            sample(arr, np.zeros(1), np.zeros(1), "cubic")


class TestManifest:
    def test_round_trip_with_empty_fields(self, tmp_path):
        records = [
            ManifestRecord("train", "a.pgm", "b.pgm", ("p1.pgm", "p2.pgm"),
                           ("f.fst",)),
            ManifestRecord("test", "", "gt.pgm"),
        ]
        path = tmp_path / "m.tsv"
        write_manifest(records, path)
        assert read_manifest(path) == records

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_only_newline_ends_a_record(self, tmp_path, sep):
        # str.splitlines read this line as two records
        path = tmp_path / "m.tsv"
        path.write_bytes(f"test\ta.pgm\tg.pgm{sep}train\tb.pgm\tc.pgm\n"
                         .encode("utf-8"))
        assert read_manifest(path) == [ManifestRecord(
            "test", "a.pgm", f"g.pgm{sep}train", ("b.pgm",), ("c.pgm",))]

    def test_crlf_manifest_reads_as_lf(self, tmp_path):
        records = [ManifestRecord("train", "a.pgm", "b.pgm", ("p.pgm",)),
                   ManifestRecord("test", "", "gt.pgm", (), ("f.fst",))]
        path = tmp_path / "m.tsv"
        write_manifest(records, path)
        lf = path.read_bytes()
        path.write_bytes(lf.replace(b"\n", b"\r\n"))
        assert read_manifest(path) == records
        # only one "\r" goes with the "\n"; another stays in the last field
        path.write_bytes(lf.replace(b"\n", b"\r\r\n"))
        assert [r.fsts for r in read_manifest(path)] == [("\r",), ("f.fst\r",)]

    def test_bad_split_names_the_file_and_line(self, tmp_path):
        # the message named neither, unlike a line with too many fields
        path = tmp_path / "m.tsv"
        path.write_text("train\ta.pgm\tb.pgm\ntset\tc.pgm\td.pgm\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: split must be one of ('train', 'validation', "
                "'test'), got 'tset'")):
            read_manifest(path)

    def test_bad_split_tag_rejected(self):
        with pytest.raises(ValueError, match="split"):
            ManifestRecord("dev", "a", "b")
