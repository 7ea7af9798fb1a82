"""Stand-alone writers and readers for the files the benchmark exchanges
with segens.

The benchmark writes its inputs with these functions rather than with
segens' own encoders, so that the inputs do not change when segens'
writers do, and it reads segens' outputs back without segens' decoders,
so that the output checks do not trust the code they check.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(ctype, payload):
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def filter_scanlines(image):
    """All five PNG filter outputs of every scanline, as (5, H, W) uint8.

    Filters predict from the raw bytes of the left, upper and upper-left
    neighbours (0 outside the image), so every row filters independently.
    """
    x = np.asarray(image, dtype=np.int16)
    a = np.zeros_like(x)
    a[:, 1:] = x[:, :-1]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, 1:] = x[:-1, :-1]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    predictions = (0, a, b, (a + b) // 2, paeth)
    return np.stack([(x - pred) % 256 for pred in predictions]).astype(np.uint8)


def encode_png(image, filter_type=None):
    """Encode a uint8 (H, W) array as an 8-bit grayscale PNG.

    With ``filter_type`` None each scanline takes the filter whose output
    has the least sum of absolute values read as signed bytes, the
    heuristic libpng uses; ties go to the lower filter type. Returns
    (png bytes, rows per filter type as a length-5 int array).
    """
    img = np.asarray(image)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError(f"need a 2-D uint8 image, got {img.dtype} {img.shape}")
    h, w = img.shape
    filtered = filter_scanlines(img)
    if filter_type is None:
        wide = filtered.astype(np.int32)
        types = np.minimum(wide, 256 - wide).sum(axis=2).argmin(axis=0)
    else:
        types = np.full(h, int(filter_type))
    rows = filtered[types, np.arange(h)]
    raw = np.concatenate([types.astype(np.uint8)[:, None], rows], axis=1)
    return assemble_png((h, w), raw.tobytes()), np.bincount(types, minlength=5)


def assemble_png(shape, scanlines):
    """An 8-bit grayscale PNG of ``shape`` from its filtered scanlines."""
    h, w = shape
    header = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (PNG_SIG + _png_chunk(b"IHDR", header)
            + _png_chunk(b"IDAT", zlib.compress(scanlines, 6))
            + _png_chunk(b"IEND", b""))


def png_scanline_bytes(data):
    """(height, width) and the inflated scanlines (filter byte + row) of a PNG."""
    if data[:8] != PNG_SIG:
        raise ValueError("not a PNG")
    pos, dims, idat = 8, None, b""
    while pos + 8 <= len(data):
        length, ctype = struct.unpack(">I4s", data[pos:pos + 8])
        payload = data[pos + 8:pos + 8 + length]
        if ctype == b"IHDR":
            dims = struct.unpack(">II", payload[:8])[::-1]
        elif ctype == b"IDAT":
            idat += payload
        pos += 12 + length
    if dims is None:
        raise ValueError("PNG has no IHDR")
    return dims, zlib.decompress(idat)


def decode_png(data):
    """The (H, W) uint8 raster of an 8-bit grayscale PNG, each scanline
    unfiltered by its filter type as the PNG specification defines it."""
    (h, w), raw = png_scanline_bytes(data)
    lines = np.frombuffer(raw, np.uint8).reshape(h, w + 1)
    out = np.zeros((h + 1, w), np.int64)  # row 0 is the zero row above the image
    for r in range(h):
        ftype, f, up = int(lines[r, 0]), lines[r, 1:].astype(np.int64), out[r]
        if ftype == 0:
            row = f
        elif ftype == 1:
            row = np.cumsum(f) % 256
        elif ftype == 2:
            row = (f + up) % 256
        elif ftype in (3, 4):
            row, a, c = [], 0, 0
            for x, b in zip(f.tolist(), up.tolist()):
                if ftype == 3:
                    pred = (a + b) // 2
                else:
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
                a, c = (x + pred) % 256, b
                row.append(a)
        else:
            raise ValueError(f"invalid PNG filter type {ftype} in row {r}")
        out[r + 1] = row
    return out[1:].astype(np.uint8)


def encode_pgm(image):
    img = np.asarray(image, dtype=np.uint8)
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.tobytes()


def decode_pgm(data):
    """Binary 8-bit PGM with a comment-free header, as segens writes it."""
    tokens = data.split(maxsplit=4)
    if tokens[0] != b"P5" or int(tokens[3]) != 255:
        raise ValueError("not an 8-bit binary PGM")
    w, h = int(tokens[1]), int(tokens[2])
    raster = data[len(data) - w * h:]
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def encode_fst(stack):
    arr = np.ascontiguousarray(stack, dtype="<f4")
    c, h, w = arr.shape
    return b"FST1" + f"{c} {h} {w}\n".encode() + arr.tobytes()


def decode_fst(data):
    if data[:4] != b"FST1":
        raise ValueError("not an FST container")
    nl = data.index(b"\n", 4)
    c, h, w = (int(t) for t in data[4:nl].split())
    return np.frombuffer(data[nl + 1:], dtype="<f4").reshape(c, h, w).astype(np.float32)


def write_metalearner_v1(layers, path, seed=0):
    """Write (weights, bias) pairs in the "stack-metalearner-v1" layout:
    a JSON header naming one FST file per tensor."""
    path = Path(path)
    specs = []
    for i, (w, b) in enumerate(layers):
        o, c, kh, kw = w.shape
        wname = f"{path.name}.layer{i}.weights.fst"
        bname = f"{path.name}.layer{i}.bias.fst"
        (path.parent / wname).write_bytes(encode_fst(w.reshape(o, c * kh, kw)))
        (path.parent / bname).write_bytes(encode_fst(b.reshape(o, 1, 1)))
        specs.append({"out_channels": o, "in_channels": c, "kernel_h": kh,
                      "kernel_w": kw, "weights_file": wname, "bias_file": bname})
    meta = {"format": "stack-metalearner-v1", "in_channels": int(layers[0][0].shape[1]),
            "seed": seed, "hyper": None, "layers": specs}
    path.write_text(json.dumps(meta, indent=2) + "\n")

