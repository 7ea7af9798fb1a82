"""A seeded hostile-input corpus for the decoders and the manifest.

Each valid file is truncated at every byte offset and has every byte
flipped twice: its top bit, and a nonzero mask drawn from a seeded RNG.
Every case must decode, or raise ``DecodeError`` or ``OSError``; the
CLI maps both to exit 2. Any other exception (``struct.error``,
``IndexError``, ``KeyError``, a ``ValueError`` that exits 1, ...) is a
defect.

Manifests are truncated, bit-flipped and given inserted bytes at seeded
offsets, and run through every command that reads one. A manifest that
``read_manifest`` rejects must exit 2 (``DecodeError``) or 1 (any other
``ValueError``); one it reads may exit 0, 1 or 2. No case may end in a
traceback.
"""

import random
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from _oracles import filter_scanline
from segens import ensemble, imageio
from segens.cli import main
from segens.errors import DecodeError

SEED = 2024


def _mutants(data, seed=SEED):
    rng = random.Random(seed)
    for n in range(len(data)):
        yield f"truncated to {n} bytes", data[:n]
    for i in range(len(data)):
        for mask in (0x80, rng.randrange(1, 256)):
            flipped = bytearray(data)
            flipped[i] ^= mask
            yield f"byte {i} xor {mask:#04x}", bytes(flipped)


def _defects(path, load):
    """Write each mutant of ``path`` over it and load it; returns the
    cases that end in an exception other than DecodeError or OSError."""
    original = path.read_bytes()
    bad = []
    for case, data in _mutants(original):
        path.write_bytes(data)
        try:
            load(path)
        except (DecodeError, OSError):
            pass
        except Exception as exc:  # any other type is the defect
            bad.append(f"{case}: {type(exc).__name__}: {exc}")
    path.write_bytes(original)
    return bad


@pytest.fixture
def image():
    rng = np.random.default_rng(5)
    return rng.integers(0, 256, (6, 7), dtype=np.uint8)


@pytest.mark.parametrize("suffix", [".png", ".pgm"])
def test_image_corpus(tmp_path, image, suffix):
    path = tmp_path / f"image{suffix}"
    imageio.store_gray(image, path)
    assert _defects(path, imageio.load_gray) == []


def test_feature_stack_corpus(tmp_path):
    path = tmp_path / "stack.fst"
    stack = np.random.default_rng(6).random((2, 3, 4), dtype=np.float32)
    imageio.store_feature_stack(stack, path)
    assert _defects(path, imageio.load_feature_stack) == []


def test_model_header_corpus(tmp_path):
    # half of the flips set a byte's top bit, which makes the header
    # invalid UTF-8: that used to raise UnicodeDecodeError, a ValueError
    # that `stack predict` reported as invalid input (exit 1)
    path = tmp_path / "params.json"
    ensemble.save_metalearner(ensemble.build_metalearner(1, seed=0), path,
                              hyper=ensemble.HyperParams())
    assert _defects(path, ensemble.load_metalearner) == []


def _png(width, height):
    header = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + imageio._png_chunk(b"IHDR", header)
            + imageio._png_chunk(b"IDAT", zlib.compress(bytes(8)))
            + imageio._png_chunk(b"IEND", b""))


@pytest.mark.parametrize("name, data, load", [
    ("huge.pgm", b"P5\n2000000000 2000000000\n255\n" + bytes(8),
     imageio.load_gray),
    ("huge.png", _png(2**31 - 1, 2**31 - 1), imageio.load_gray),
    ("huge.fst", b"FST1100000 100000 100000\n" + bytes(8),
     imageio.load_feature_stack)])
def test_oversized_dims_rejected_without_allocating(tmp_path, name, data, load):
    # each header promises far more pixels than memory holds; the decoder
    # must compare the promise with the bytes present before allocating
    path = tmp_path / name
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak / 1024:.0f} KB"


def test_png_without_idat_names_the_missing_chunk(tmp_path):
    # IHDR then IEND: the empty pixel stream read as an incomplete one,
    # with no offset
    header = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    path = tmp_path / "no_idat.png"
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + imageio._png_chunk(b"IHDR", header)
                     + imageio._png_chunk(b"IEND", b""))
    with pytest.raises(DecodeError, match="PNG has no IDAT chunk") as e:
        imageio.load_gray(path)
    assert e.value.offset == 8 + 12 + len(header)  # the IEND chunk
    assert main(["bu-preview", "--mask", str(path),
                 "--out", str(tmp_path / "soft.pgm")]) == 2


@pytest.mark.parametrize("height, width", [(4000, 128), (1, 65536)])
def test_paeth_raster_decodes_in_bounded_memory(tmp_path, height, width):
    # 4000 rows are one span for the wavefront; one 65536-pixel row takes
    # the row loop. Beyond the file, its IDAT copy, the inflated scanlines
    # and the raster, decoding may hold 1 MB: buffers that grew with
    # rows x (rows + width) would need 32 MB for the first image.
    img = np.random.default_rng(SEED).integers(0, 256, (height, width),
                                               dtype=np.uint8)
    raw, prev = bytearray(), bytes(width)
    for row in img:
        raw += b"\x04" + filter_scanline(4, row.tobytes(), prev)
        prev = row.tobytes()
    header = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    idat = zlib.compress(raw)
    path = tmp_path / "paeth.png"
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + imageio._png_chunk(b"IHDR", header)
                     + imageio._png_chunk(b"IDAT", idat)
                     + imageio._png_chunk(b"IEND", b""))
    imageio._pred_table()  # built once per process, on first use
    tracemalloc.start()
    try:
        got = imageio.load_gray(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, img)
    held = path.stat().st_size + len(idat) + len(raw) + img.nbytes
    assert peak < held + (1 << 20), f"peak {peak / 2**20:.2f} MB"


@pytest.mark.parametrize("ctype", [b"PLTE", b"ABCD"])
def test_unknown_critical_png_chunk_rejected(tmp_path, ctype):
    # a decoder must not skip a critical chunk (uppercase first letter) it
    # does not know; PLTE is one for a grayscale image
    header = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    chunks = [(b"IHDR", header), (b"tEXt", b"k\x00v"), (ctype, bytes(3)),
              (b"IDAT", zlib.compress(bytes(6))), (b"IEND", b"")]
    data = b"\x89PNG\r\n\x1a\n"
    for name, payload in chunks:
        if name == ctype:
            at = len(data)
        data += imageio._png_chunk(name, payload)
    path = tmp_path / "critical.png"
    path.write_bytes(data)
    with pytest.raises(DecodeError, match=f"unknown critical PNG chunk '{ctype.decode()}'") as e:
        imageio.load_gray(path)
    assert e.value.offset == at
    assert main(["bu-preview", "--mask", str(path),
                 "--out", str(tmp_path / "soft.pgm")]) == 2
    # the ancillary tEXt chunk alone is skipped
    path.write_bytes(data.replace(imageio._png_chunk(ctype, bytes(3)), b""))
    assert np.array_equal(imageio.load_gray(path), np.zeros((2, 2), np.uint8))


# command -> (manifest lines, the first input path it reads, extra argv)
_MANIFEST_COMMANDS = {
    "eval": (["test\t\tg0.pgm\tp0.pgm", "test\t\tg1.pgm\tp1.pgm"], "p0.pgm",
             ["eval"]),
    "stack train": (["train\t\tg0.pgm\t\ts0.fst", "validation\t\tg1.pgm\t\ts1.fst"],
                    "s0.fst", ["stack", "train", "--epochs", "1",
                               "--params", "{out}/params.json"]),
    "stack predict": (["test\ti0.pgm\t\t\ts0.fst", "test\ti1.pgm\t\t\ts1.fst"],
                      "s0.fst", ["stack", "predict", "--params", "model.json",
                                 "--outdir", "{out}"]),
    # both records share i0.pgm, so replacing it reaches whichever is drawn
    "augment": (["train\ti0.pgm\tg0.pgm", "train\ti0.pgm\tg1.pgm"], "i0.pgm",
                ["augment", "--count", "2", "--outdir", "{out}",
                 "--out-manifest", "{out}.tsv"]),
}


def _manifest_mutants(data, seed=SEED, n=8):
    rng = random.Random(seed)
    for _ in range(n):
        k = rng.randrange(len(data))
        yield f"truncated to {k} bytes", data[:k]
        i, mask = rng.randrange(len(data)), 1 << rng.randrange(8)
        flipped = data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]
        yield f"byte {i} xor {mask:#04x}", flipped
        i, byte = rng.randrange(len(data) + 1), rng.randrange(256)
        yield f"byte {byte:#04x} inserted at {i}", data[:i] + bytes([byte]) + data[i:]


def _expected_codes(path):
    try:
        imageio.read_manifest(path)
    except DecodeError:
        return {2}
    except ValueError:
        return {1}
    return {0, 1, 2}


@pytest.mark.parametrize("command", _MANIFEST_COMMANDS)
def test_manifest_corpus(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(7)
    for i in range(2):
        imageio.store_gray(rng.integers(0, 256, (6, 6), dtype=np.uint8), f"i{i}.pgm")
        imageio.store_mask(np.eye(6, dtype=np.uint8), f"g{i}.pgm")
        imageio.store_probmap(rng.random((6, 6)), f"p{i}.pgm")
        imageio.store_feature_stack(rng.random((2, 6, 6), dtype=np.float32),
                                    f"s{i}.fst")
    (tmp_path / "junk.bin").write_bytes(b"NOTANIMAGE")
    ensemble.save_metalearner(ensemble.build_metalearner(2, seed=0), "model.json")
    lines, first_read, argv = _MANIFEST_COMMANDS[command]
    valid = "\n".join(lines) + "\n"
    cases = [("valid", valid.encode(), {0}),
             ("six fields", (valid + "\t".join(["test"] * 6) + "\n").encode(), {1}),
             ("unknown split", valid.replace("t", "x", 1).encode(), {1}),
             ("missing file", valid.replace(first_read, "absent.pgm").encode(), {2}),
             ("undecodable file", valid.replace(first_read, "junk.bin").encode(), {2})]
    cases += [(case, data, None) for case, data in _manifest_mutants(valid.encode())]
    bad, seen = [], set()
    for k, (case, data, want) in enumerate(cases):
        Path("m.tsv").write_bytes(data)
        want = want or _expected_codes("m.tsv")
        run = [a.format(out=f"out{k}") for a in argv] + ["--manifest", "m.tsv"]
        try:
            code = main(run)
        except Exception as exc:  # a traceback is the defect
            bad.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        seen.add(code)
        if code not in want:
            bad.append(f"{case}: exit {code}, want one of {sorted(want)}")
    capsys.readouterr()
    assert bad == []
    assert {0, 1, 2} <= seen
