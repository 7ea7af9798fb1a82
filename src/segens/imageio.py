"""File formats and dataset plumbing.

Pixel data conventions used throughout the package:

* GrayImage   - uint8 array (H, W)
* BinaryMask  - uint8 array (H, W) with values in {0, 1}
* ProbMap     - float32 array (H, W) with values in [0, 1]
* FeatureStack- float32 array (C, H, W), finite values

Masks and probability maps travel as binary 8-bit PGM ("P5") or 8-bit
grayscale PNG files; feature stacks use the FST container: the 4-byte
magic ``FST1``, one UTF-8 text line ``"C H W\\n"`` with the decimal dims,
then C*H*W little-endian IEEE-754 float32 values in channel-major
row-major order.

Manifests are tab-separated text, one record per line:
``split<TAB>image<TAB>gtmask<TAB>pred1,pred2,...<TAB>fst1,fst2,...``
with empty fields allowed and split in {train, validation, test}.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DecodeError, NumericError, check_int, check_range
from .metrics import as_binary, check_probabilities, require_2d, require_chw

SPLITS = ("train", "validation", "test")

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_FST_MAGIC = b"FST1"


# ---------------------------------------------------------------------------
# PGM (binary "P5", 8-bit)

def _decode_pgm(data, path=None):
    if data[:2] != b"P5":
        flavor = data[:2].decode("latin-1", "replace")
        raise DecodeError(f"expected binary PGM magic 'P5', found {flavor!r}",
                          offset=0, path=path)
    pos = 2
    values = []
    starts = []
    while len(values) < 3:
        # skip whitespace and '#' comment lines
        while pos < len(data):
            c = data[pos]
            if c in b" \t\r\n":
                pos += 1
            elif c == ord("#"):
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        token = data[start:pos]
        if not token:
            raise DecodeError("truncated PGM header", offset=start, path=path)
        try:
            values.append(int(token))
        except ValueError:
            raise DecodeError(f"bad PGM header token {token!r}",
                              offset=start, path=path) from None
        starts.append(start)
    width, height, maxval = values
    if width <= 0 or height <= 0:
        raise DecodeError(f"bad PGM dimensions {width}x{height}",
                          offset=starts[0], path=path)
    if not 0 < maxval <= 255:
        raise DecodeError(f"unsupported maxval {maxval} (8-bit only)",
                          offset=starts[2], path=path)
    pos += 1  # single whitespace byte after maxval
    need = width * height
    raster = data[pos:pos + need]
    if len(raster) < need:
        raise DecodeError(
            f"truncated PGM raster: expected {need} bytes, found {len(raster)}",
            offset=pos + len(raster), path=path)
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if maxval == 255:
        return img.copy()
    over = np.flatnonzero(img > maxval)
    if over.size:
        raise DecodeError(f"PGM sample {img.flat[over[0]]} exceeds maxval {maxval}",
                          offset=pos + int(over[0]), path=path)
    # Netpbm: a sample v of maxval m reads as round(v * 255 / m), halves up
    levels = np.arange(maxval + 1) * 510 + maxval
    return (levels // (2 * maxval)).astype(np.uint8)[img]


def _encode_pgm(arr):
    h, w = arr.shape
    return b"P5\n%d %d\n255\n" % (w, h) + arr.tobytes()


# ---------------------------------------------------------------------------
# PNG (8-bit grayscale, color type 0, non-interlaced)

def _unfilter_scanlines(raw, width, height, path=None):
    # Sub and Up wrap in uint8 arrays; Average and Paeth loop over the
    # Python ints of bytes, several times cheaper than numpy scalars.
    out = np.empty((height, width), dtype=np.uint8)
    stride = width + 1
    prev = bytes(width)
    for r in range(height):
        ftype = raw[r * stride]
        line = raw[r * stride + 1:(r + 1) * stride]
        if ftype == 0:
            cur = line
        elif ftype == 1:  # Sub: left-neighbor prediction, bpp = 1
            cur = np.cumsum(np.frombuffer(line, np.uint8), dtype=np.uint8).tobytes()
        elif ftype == 2:  # Up
            cur = (np.frombuffer(line, np.uint8)
                   + np.frombuffer(prev, np.uint8)).tobytes()
        elif ftype == 3:  # Average
            vals = []
            left = 0
            for x, up in zip(line, prev):
                left = (x + ((left + up) >> 1)) & 255
                vals.append(left)
            cur = bytes(vals)
        elif ftype == 4:  # Paeth
            vals = []
            left = upleft = 0
            for x, up in zip(line, prev):
                p = left + up - upleft
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
                pred = left if pa <= pb and pa <= pc else (up if pb <= pc else upleft)
                left = (x + pred) & 255
                vals.append(left)
                upleft = up
            cur = bytes(vals)
        else:
            raise DecodeError(f"invalid PNG scanline filter {ftype} in row {r}",
                              path=path)
        out[r] = np.frombuffer(cur, np.uint8)
        prev = cur
    return out


def _decode_png(data, path=None):
    if data[:8] != _PNG_SIG:
        raise DecodeError("bad PNG signature", offset=0, path=path)
    pos = 8
    width = height = idat_at = None  # idat_at: the first IDAT chunk's offset
    idat = bytearray()
    while True:
        if pos + 8 > len(data):
            raise DecodeError("truncated PNG chunk header", offset=pos, path=path)
        length, ctype = struct.unpack(">I4s", data[pos:pos + 8])
        dstart = pos + 8
        dend = dstart + length
        if dend + 4 > len(data):
            raise DecodeError(f"truncated PNG chunk {ctype.decode('latin-1')}",
                              offset=dstart, path=path)
        payload = data[dstart:dend]
        (crc,) = struct.unpack(">I", data[dend:dend + 4])
        if zlib.crc32(data[pos + 4:dend]) & 0xFFFFFFFF != crc:
            raise DecodeError("PNG chunk CRC mismatch", offset=dend, path=path)
        if ctype == b"IHDR":
            if length != 13:
                raise DecodeError(f"PNG IHDR has {length} bytes (need 13)",
                                  offset=pos, path=path)
            width, height, depth, color, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", payload)
            if not (0 < width < 2**31 and 0 < height < 2**31):
                raise DecodeError(f"bad PNG dimensions {width}x{height}",
                                  offset=dstart, path=path)
            if depth != 8:
                raise DecodeError(f"unsupported PNG bit depth {depth} (need 8)",
                                  offset=dstart + 8, path=path)
            if color != 0:
                raise DecodeError(
                    f"PNG color type {color} not supported (need grayscale, 0)",
                    offset=dstart + 9, path=path)
            if comp != 0 or filt != 0:
                raise DecodeError("unsupported PNG compression/filter method",
                                  offset=dstart + 10, path=path)
            if interlace != 0:
                raise DecodeError("interlaced PNG not supported",
                                  offset=dstart + 12, path=path)
        elif ctype == b"IDAT":
            if idat_at is None:
                idat_at = pos
            idat += payload
        elif ctype == b"IEND":
            break
        pos = dend + 4
    if width is None:
        raise DecodeError("PNG missing IHDR", offset=8, path=path)
    if idat_at is None:
        raise DecodeError("PNG has no IDAT chunk", offset=pos, path=path)
    expected = (width + 1) * height
    # Inflate at most one byte past the expected size, so a small file
    # cannot expand to gigabytes before the length check rejects it.
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise DecodeError(f"PNG IDAT decompression failed: {exc}",
                          offset=idat_at, path=path) from None
    if len(raw) > expected:
        raise DecodeError(f"PNG pixel data exceeds the expected {expected} bytes",
                          offset=idat_at, path=path)
    if not inflater.eof:
        raise DecodeError("PNG IDAT stream is incomplete", offset=idat_at,
                          path=path)
    if len(raw) != expected:
        raise DecodeError(
            f"PNG pixel data length {len(raw)} != expected {expected}",
            offset=idat_at, path=path)
    try:
        return _unfilter_scanlines(raw, width, height, path=path)
    except DecodeError as exc:  # a bad filter byte, inside the compressed data
        exc.offset = idat_at
        raise


def _png_chunk(ctype, payload):
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def _encode_png(arr):
    h, w = arr.shape
    header = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    raw = b"".join(b"\x00" + row.tobytes() for row in arr)
    return (_PNG_SIG
            + _png_chunk(b"IHDR", header)
            + _png_chunk(b"IDAT", zlib.compress(raw))
            + _png_chunk(b"IEND", b""))


# ---------------------------------------------------------------------------
# Gray image / mask / probability map I/O

def load_gray(path):
    """Load an 8-bit grayscale PGM or PNG as a uint8 (H, W) array."""
    data = Path(path).read_bytes()
    if data[:8] == _PNG_SIG:
        return _decode_png(data, path=path)
    if data[:2] == b"P5":
        return _decode_pgm(data, path=path)
    raise DecodeError("unrecognized image format (need P5 PGM or PNG)",
                      offset=0, path=path)


def store_gray(image, path):
    """Write an (H, W) image; PNG when the path ends in .png, else PGM.
    uint8 and bool are written as they are; any other dtype must hold
    integers in [0, 255], else NumericError (non-finite) or ValueError."""
    arr = require_2d(image, "image")
    if arr.dtype != np.uint8 and arr.dtype != bool:
        check_probabilities(arr, "image", top=255)
        if (arr % 1).any():
            raise ValueError("image values must be integers")
    arr = arr.astype(np.uint8)
    path = Path(path)
    data = _encode_png(arr) if path.suffix.lower() == ".png" else _encode_pgm(arr)
    path.write_bytes(data)


def load_mask(path):
    """Load a binary mask: intensity > 127 is foreground."""
    return (load_gray(path) > 127).astype(np.uint8)


def store_mask(mask, path):
    """Write a {0,1} mask as 8-bit {0,255}."""
    store_gray(as_binary(mask, "mask").astype(np.uint8) * 255, path)


def load_probmap(path):
    """Load a probability map stored as 8-bit intensities (value/255)."""
    return load_gray(path).astype(np.float32) / np.float32(255.0)


def store_probmap(probmap, path):
    """Quantize a [0,1] probability map to 8-bit, rounding half up.

    Non-finite values raise NumericError and values outside [0, 1]
    ValueError, before any file is written.
    """
    arr = np.array(probmap, dtype=np.float64)  # a copy, scaled in place
    check_probabilities(arr, "probability map")
    arr *= 255.0
    arr += 0.5
    store_gray(np.floor(arr, out=arr).astype(np.uint8), path)


# ---------------------------------------------------------------------------
# FST feature-stack container

def store_feature_stack(stack, path):
    """Write a (C, H, W) float32 stack in the FST container (bit-exact).
    Non-finite values raise NumericError and write no file."""
    arr = require_chw(stack, "feature stack")
    if not np.isfinite(arr).all():
        raise NumericError("feature stack contains non-finite values")
    arr = np.ascontiguousarray(arr, dtype="<f4")
    c, h, w = arr.shape
    Path(path).write_bytes(_FST_MAGIC + f"{c} {h} {w}\n".encode() + arr.tobytes())


def load_feature_stack(path):
    """Read an FST file back into a native float32 (C, H, W) array."""
    data = Path(path).read_bytes()
    if data[:4] != _FST_MAGIC:
        raise DecodeError(f"bad FST magic {data[:4]!r}", offset=0, path=path)
    nl = data.find(b"\n", 4)
    if nl < 0:
        raise DecodeError("FST dims line missing newline", offset=4, path=path)
    try:
        dims = [int(t) for t in data[4:nl].decode("utf-8").split()]
    except (UnicodeDecodeError, ValueError):
        raise DecodeError("unparseable FST dims line", offset=4, path=path) from None
    if len(dims) != 3 or any(d <= 0 for d in dims):
        raise DecodeError(f"bad FST dims {dims}", offset=4, path=path)
    c, h, w = dims
    payload = data[nl + 1:]
    expected = c * h * w * 4
    if len(payload) != expected:
        raise DecodeError(
            f"FST payload length mismatch: expected {expected} bytes, "
            f"got {len(payload)}", offset=nl + 1, path=path)
    arr = np.frombuffer(payload, dtype="<f4").reshape(c, h, w)
    if not np.isfinite(arr).all():
        bad = np.flatnonzero(~np.isfinite(arr))
        raise DecodeError("FST payload contains non-finite values",
                          offset=nl + 1 + 4 * int(bad[0]), path=path)
    return arr.astype(np.float32)


# ---------------------------------------------------------------------------
# Resampling

# Output pixels per chunk of sample(), so each float64 temporary is 64 KB.
_CHUNK_PIXELS = 8192


def _padded(i, n):
    """Index ``i`` on an n-long axis padded by one pixel: past an edge is its pad."""
    return np.clip(i, -1, n) + 1


def sample(arr, sy, sx, mode, border):
    """Read the 2-D array ``arr`` at source coordinates (``sy``, ``sx``).

    Coordinates use half-pixel centers: pixel (i, j) covers
    [i, i + 1) x [j, j + 1) and its center is (i + 0.5, j + 0.5). ``sy``
    and ``sx`` are full grids or broadcastable row/column vectors.
    ``mode`` "nearest" returns the covering pixel in ``arr``'s dtype;
    "bilinear" blends the four nearest centers, rounding half up for
    uint8 and returning float32 otherwise. ``border`` says what lies
    outside the array: "clamp" repeats the edge pixels, "zero" is 0.

    The output is filled _CHUNK_PIXELS at a time, one flat gather per
    neighbour from ``arr`` padded by one border pixel.
    """
    if border not in ("clamp", "zero"):
        raise ValueError(f"unknown border rule {border!r}")
    if mode not in ("nearest", "bilinear"):
        raise ValueError(f"unknown resampling mode {mode!r}")
    h, w = arr.shape
    shape = np.broadcast_shapes(np.shape(sy), np.shape(sx))
    sy, sx = np.atleast_1d(sy, sx)
    out = np.empty(np.broadcast_shapes(sy.shape, sx.shape),
                   arr.dtype if mode == "nearest" or arr.dtype == np.uint8
                   else np.float32)
    flat = np.pad(arr if mode == "nearest" else arr.astype(np.float64), 1,
                  "edge" if border == "clamp" else "constant").ravel()
    rows = max(1, _CHUNK_PIXELS // max(1, math.prod(out.shape[1:])))
    for r in range(0, len(out), rows):
        # a coordinate array spans the chunk's rows unless broadcast along them
        y, x = (a[r:r + rows] if a.ndim == out.ndim and len(a) > 1 else a
                for a in (sy, sx))
        if mode == "nearest":
            i, j = np.floor(y).astype(np.int64), np.floor(x).astype(np.int64)
            out[r:r + rows] = flat.take(_padded(i, h) * (w + 2) + _padded(j, w))
            continue
        u, v = y - 0.5, x - 0.5
        i0, j0 = np.floor(u).astype(np.int64), np.floor(v).astype(np.int64)
        fy, fx = u - i0, v - j0
        ii = [_padded(i0 + d, h) * (w + 2) for d in (0, 1)]
        jj = [_padded(j0 + d, w) for d in (0, 1)]
        acc = np.zeros(out[r:r + rows].shape)
        for di, wy in ((0, 1.0 - fy), (1, fy)):
            for dj, wx in ((0, 1.0 - fx), (1, fx)):
                acc += wy * wx * flat.take(ii[di] + jj[dj])
        # the assignment casts as .astype does
        out[r:r + rows] = (np.clip(np.floor(acc + 0.5), 0, 255)
                           if out.dtype == np.uint8 else acc)
    return out.reshape(shape)


def resize(image, size=(256, 256), mode="bilinear"):
    """Resample to ``size`` (height, width).

    ``mode`` is "bilinear" for gray images and probability maps (values
    stay in range) or "nearest" for masks (binarity is preserved). Source
    coordinates use the half-pixel-center convention, and samples past
    the edge take the value of the nearest edge pixel (clamp-to-edge).
    """
    arr = require_2d(image, "image")
    h, w = arr.shape
    oh, ow = (check_int(n, f"size[{i}]", 1) for i, n in enumerate(size))
    if h == 0 or w == 0:
        raise ValueError(f"cannot resize {h}x{w} to {oh}x{ow}")
    sy = ((np.arange(oh) + 0.5) * (h / oh))[:, None]
    sx = ((np.arange(ow) + 0.5) * (w / ow))[None, :]
    return sample(arr, sy, sx, mode, "clamp")


# ---------------------------------------------------------------------------
# Dataset manifests

@dataclass(frozen=True)
class ManifestRecord:
    """One dataset entry: image, ground-truth mask, and optional exports."""

    split: str
    image: str = ""
    gtmask: str = ""
    preds: tuple = ()
    fsts: tuple = ()

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        object.__setattr__(self, "preds", tuple(self.preds))
        object.__setattr__(self, "fsts", tuple(self.fsts))


def read_manifest(path):
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("manifest is not UTF-8", offset=exc.start,
                          path=path) from None
    records = []
    # records end at "\n" only: str.splitlines also breaks at \x0b, \x0c,
    # \x1c-\x1e, \x85, U+2028 and U+2029, which then split one record in two
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")  # CRLF manifests read as LF ones
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) > 5:
            raise ValueError(f"{path}:{lineno}: expected at most 5 fields, "
                             f"got {len(fields)}")
        fields += [""] * (5 - len(fields))
        split, image, gtmask, preds, fsts = fields
        records.append(ManifestRecord(
            split=split, image=image, gtmask=gtmask,
            preds=tuple(p for p in preds.split(",") if p),
            fsts=tuple(f for f in fsts.split(",") if f)))
    return records


def write_manifest(records, path):
    lines = []
    for r in records:
        lines.append("\t".join([r.split, r.image, r.gtmask,
                                ",".join(r.preds), ",".join(r.fsts)]))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")


def split_manifest(records, ratios=(0.7, 0.2, 0.1), seed=0, counts=None):
    """Assign train/validation/test tags by a seeded shuffle.

    Without ``counts``, test gets floor(ratios[2]*n) records, validation
    floor(ratios[1]*n), and train the remainder. ``counts`` is an explicit
    (train, validation, test) override for reproducing published splits
    whose arithmetic does not follow the floor rule.
    """
    records = list(records)
    n = len(records)
    if n == 0:
        raise ValueError("cannot split an empty record list")
    if counts is None:
        for i, r in enumerate(ratios):
            check_range(r, f"ratios[{i}]", 0, 1)
        if not math.isclose(sum(ratios), 1.0, abs_tol=1e-9):
            raise ValueError(f"ratios must sum to 1, got {ratios}")
        test_n = int(ratios[2] * n)
        val_n = int(ratios[1] * n)
        train_n = n - val_n - test_n
    else:
        train_n, val_n, test_n = (check_int(c, f"counts[{i}]", 0)
                                  for i, c in enumerate(counts))
        if train_n + val_n + test_n != n:
            raise ValueError(
                f"counts {counts} do not partition {n} records")
    order = np.random.default_rng(seed).permutation(n)
    out = [None] * n
    for rank, idx in enumerate(order):
        if rank < train_n:
            tag = "train"
        elif rank < train_n + val_n:
            tag = "validation"
        else:
            tag = "test"
        out[idx] = replace(records[idx], split=tag)
    return out
