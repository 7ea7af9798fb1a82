"""File formats and dataset plumbing.

Pixel data conventions used throughout the package:

* GrayImage   - uint8 array (H, W)
* BinaryMask  - uint8 array (H, W) with values in {0, 1}
* ProbMap     - float32 array (H, W) with values in [0, 1]
* FeatureStack- float32 array (C, H, W), finite values

Masks and probability maps travel as binary 8-bit PGM ("P5") or 8-bit
grayscale PNG files; feature stacks use the FST container: the 4-byte
magic ``FST1``, one ASCII line ``"C H W\\n"`` with the decimal dims,
then C*H*W little-endian IEEE-754 float32 values in channel-major
row-major order.

PNG files are 8-bit grayscale and non-interlaced, IHDR first and once;
the decoder rejects critical chunks other than IHDR, IDAT and IEND.
None rows unfilter all at once and other rows one at a time, except a
long run of filtered rows with many Average or Paeth rows: it unfilters
as an anti-diagonal wavefront, each diagonal a few numpy calls. Both
read each Average and Paeth prediction from one 523 KB table. Beyond
the raster the decoder holds only vectors of one entry per row.

Manifests are tab-separated text, one record per line:
``split<TAB>image<TAB>gtmask<TAB>pred1,pred2,...<TAB>fst1,fst2,...``
with empty fields allowed and split in {train, validation, test}.
"""

from __future__ import annotations

import functools
import math
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DecodeError, NumericError, as_binary, check_probabilities,
                     require_2d, require_chw)

SPLITS = ("train", "validation", "test")

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_FST_MAGIC = b"FST1"


def _decimal(token):
    """A header integer, ASCII decimal digits only: int() alone would also
    take a sign, '_' separators and other scripts' digits."""
    if not token.isdigit():  # bytes.isdigit: b"0"-b"9" only, and non-empty
        raise ValueError(token)
    return int(token)


# ---------------------------------------------------------------------------
# PGM (binary "P5", 8-bit)

# a header token, after any run of space, tab, CR and LF bytes and of '#'
# comments, each to its LF or to EOF; empty where the header ends
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n]+|#[^\n]*\n?)*([^ \t\r\n]*)")


def _decode_pgm(data, path=None):
    if data[:2] != b"P5":
        flavor = data[:2].decode("latin-1", "replace")
        raise DecodeError(f"expected binary PGM magic 'P5', found {flavor!r}",
                          offset=0, path=path)
    pos = 2
    values, starts = [], []
    for _ in range(3):
        start, pos = _PGM_TOKEN.match(data, pos).span(1)
        token = data[start:pos]
        if not token:
            raise DecodeError("truncated PGM header", offset=start, path=path)
        try:
            values.append(_decimal(token))
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


# ---------------------------------------------------------------------------
# PNG (8-bit grayscale, color type 0, non-interlaced)

def _unfilter_row(ftype, line, prev):
    """One Average (3) or Paeth (4) scanline from its filtered bytes and
    the row above: a loop over Python ints (numpy scalars cost several times
    more) that reads _pred_table(), 49 us per 256 pixels on a 2-vCPU Xeon."""
    table, mult, offset = _pred_table().data, int(_MULT[ftype]), int(_OFFSET[ftype])
    vals = []
    a = c = 0  # the left and upper-left neighbours
    for x, b in zip(line, prev):
        a = (x + c + table[(a - c) * mult + b - c + offset]) & 255
        vals.append(a)
        c = b
    return bytes(vals)


# With a, b, c the left, upper and upper-left neighbours, every filter's
# (prediction - c) mod 256 is a function of (a - c, b - c), each in
# [-255, 255]: a - c for Sub, b - c for Up, floor((a - c + b - c) / 2) for
# Average, and one of a - c, b - c or 0 for Paeth. _pred_table() holds
# it as a 511x511 block each for Sub and Paeth, then a ramp over
# a - c + b - c for Average and one over b - c for Up. A row of filter
# type f reads entry (a - c) * _MULT[f] + (b - c) + _OFFSET[f].
_BLOCK = 511 * 511
_MULT = np.array([0, 511, 0, 1, 511], np.intp)
_OFFSET = np.array([0, 255 * 512, 2 * _BLOCK + 1021 + 255, 2 * _BLOCK + 510,
                    _BLOCK + 255 * 512], np.intp)
# A span takes the wavefront when its Average and Paeth pixels exceed
# this many per diagonal step. One step costs about as much as 38 Paeth
# or Average pixels of _unfilter_row at widths 64 to 256 (60 at 1024, on
# a 2-vCPU Xeon), so a span takes it once it is about 1.7 times as fast.
_STEP_PIXELS = 64


@functools.cache
def _pred_table():
    """The (prediction - c) mod 256 table, 523 KB, built on first use 64
    Paeth rows at a time, so that each temporary stays near 64 KB."""
    d = np.arange(-255, 256, dtype=np.int16)
    table = np.empty(2 * _BLOCK + 1021 + 511, np.uint8)
    sub, paeth = table[:2 * _BLOCK].reshape(2, 511, 511)
    sub[:] = (d & 255)[:, None]  # Sub: a - c
    pa = np.abs(d)  # |p - a| = |b - c|, with p = a + b - c
    for r in range(0, 511, 64):
        u = d[r:r + 64, None]  # a - c, one row each; d = b - c
        pb, pc = np.abs(u), np.abs(u + d)
        paeth[r:r + 64] = np.where((pa <= pb) & (pa <= pc), u,
                                   np.where(pb <= pc, d, 0)) & 255
    table[2 * _BLOCK:2 * _BLOCK + 1021] = (np.arange(-510, 511) >> 1) & 255
    table[2 * _BLOCK + 1021:] = d & 255  # Up: b - c
    table.flags.writeable = False
    return table


def _wavefront_spans(ftypes, width):
    """(start, stop) of each maximal run of rows with filters 1-4 whose
    Average and Paeth pixels outweigh its diagonal steps."""
    slow = np.concatenate(([0], np.cumsum(ftypes >= 3)))
    if slow[-1] <= _STEP_PIXELS:  # no span can pass the test below
        return []
    edges = np.flatnonzero(np.diff(np.concatenate(([0], ftypes != 0, [0]))))
    return [(r0, r1) for r0, r1 in zip(edges[::2].tolist(), edges[1::2].tolist())
            if (slow[r1] - slow[r0]) * width > _STEP_PIXELS * (r1 - r0 + width)]


def _unfilter_wavefront(src, out, ftypes, r0, r1):
    """Unfilter rows r0 to r1 - 1, all of filter type 1-4, from the
    scanlines ``src`` into ``out``, whose row r0 - 1 is already decoded.

    Pixel (y, x) needs only (y, x - 1), (y - 1, x) and (y - 1, x - 1), so
    the pixels of one anti-diagonal y + x = d do not depend on each other.
    In the flat raster a diagonal is a slice with step width - 1, and its
    left, upper and upper-left neighbours are the same slice moved back
    by 1, width and width + 1; in ``src`` the diagonal has step width.
    Column 0 (a = c = 0: table entry b + _OFFSET[f]) is decoded first, so
    the diagonals start at x = 1 and every neighbour lies within its row.
    """
    n, w = r1 - r0, out.shape[1]
    flat = out.reshape(-1)
    types = ftypes[r0:r1]
    table = _pred_table()
    mult, offset = _MULT[types], _OFFSET[types]
    col, col0, view = int(flat[(r0 - 1) * w]), [], table.data
    for off, x in zip(offset.tolist(), src[r0 * (w + 1) + 1::w + 1][:n].tolist()):
        col = (x + view[col + off]) & 255
        col0.append(col)
    flat[r0 * w:r1 * w:w] = col0
    # g holds diagonal d - 1 from row lo - 1 down: b, then a, of each row;
    # gp holds diagonal d - 2 from row plo - 1 down: c of each row
    g, gp = np.empty(min(n, w) + 1, np.intp), np.empty(min(n, w) + 1, np.intp)
    idx, val = np.empty(min(n, w), np.intp), np.empty(min(n, w), np.uint8)
    gp[0], plo, step = flat[(r0 - 1) * w], 0, w - 1
    for d in range(1, n + w - 1):
        lo, hi = max(0, d - step), min(n, d)  # rows lo..hi-1 have 1 <= x < w
        k = hi - lo
        s = r0 * w + d + lo * step
        e = s + k * step
        g[:k + 1] = flat[s - w:e - 1:step]
        c = gp[lo - plo:hi - plo]
        i, v = idx[:k], val[:k]
        np.subtract(g[1:k + 1], c, out=i)
        i *= mult[lo:hi]
        i += g[:k]
        i -= c
        i += offset[lo:hi]
        table.take(i, out=v, mode="clip")
        v += flat[s - w - 1:e - w - 1:step]
        r = r0 * (w + 1) + 1 + d + lo * w
        np.add(v, src[r:r + k * w:w], out=flat[s:e:step])
        g, gp, plo = gp, g, lo


def _unfilter_scanlines(raw, width, height, path=None):
    stride = width + 1
    src = np.frombuffer(raw, np.uint8)
    ftypes = src[::stride]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        r = int(bad[0])
        raise DecodeError(f"invalid PNG scanline filter {ftypes[r]} in row {r}",
                          path=path)
    out = np.empty((height, width), dtype=np.uint8)
    lines = src.reshape(height, stride)[:, 1:]
    np.copyto(out, lines, where=ftypes[:, None] == 0)  # None: no prediction
    zero = np.zeros(width, np.uint8)  # the row above the image
    done = 0
    for r0, r1 in _wavefront_spans(ftypes, width) + [(height, height)]:
        r0 = max(r0, 1)  # the wavefront starts below a decoded row
        for r in (done + np.flatnonzero(ftypes[done:r0])).tolist():
            ftype, above = raw[r * stride], out[r - 1] if r else zero
            if ftype == 1:  # Sub: left-neighbor prediction, bpp = 1
                np.cumsum(lines[r], dtype=np.uint8, out=out[r])
            elif ftype == 2:  # Up
                np.add(lines[r], above, out=out[r])
            else:
                out[r] = np.frombuffer(_unfilter_row(
                    ftype, raw[r * stride + 1:(r + 1) * stride], above.tobytes()),
                    np.uint8)
        if r0 < r1:
            _unfilter_wavefront(src, out, ftypes, r0, r1)
        done = r1
    return out


def _decode_png(data, path=None):
    if data[:8] != _PNG_SIG:
        raise DecodeError("bad PNG signature", offset=0, path=path)
    pos = 8
    idat_at = None  # the first IDAT chunk's offset
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
        if (ctype == b"IHDR") != (pos == 8):
            raise DecodeError("PNG IHDR must come first and only once; found "
                              f"{ctype.decode('latin-1')!r}", offset=pos, path=path)
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
        elif not ctype[0] & 0x20:  # bit 5 clear, an uppercase first letter
            # a critical chunk this decoder does not know, such as PLTE:
            # the PNG specification forbids skipping it
            raise DecodeError(f"unknown critical PNG chunk {ctype.decode('latin-1')!r}",
                              offset=pos, path=path)
        pos = dend + 4
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
    raw = np.pad(arr, ((0, 0), (1, 0)))  # filter type 0 before each row
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
    arr = arr.astype(np.uint8, copy=False)
    path = Path(path)
    if path.suffix.lower() == ".png":
        path.write_bytes(_encode_png(arr))
        return
    # the header, then the pixels from the array's own buffer: no copy
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % arr.shape[::-1])
        fh.write(np.ascontiguousarray(arr))


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
        dims = [_decimal(t) for t in data[4:nl].split()]
    except ValueError:
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


def sample(arr, sy, sx, mode):
    """Read the 2-D array ``arr`` at source coordinates (``sy``, ``sx``).

    Coordinates use half-pixel centers: pixel (i, j) covers
    [i, i + 1) x [j, j + 1) and its center is (i + 0.5, j + 0.5). ``sy``
    and ``sx`` are full grids or broadcastable row/column vectors, read as
    float64; NaN or infinity raises ValueError. ``mode`` "nearest" returns
    the covering pixel in ``arr``'s dtype; "bilinear" blends the four
    nearest centers, rounding half up for uint8 and returning float32
    otherwise. Everything outside the array is 0.

    The output is filled _CHUNK_PIXELS at a time, one flat gather per
    neighbour from ``arr`` (float64 for "bilinear") padded by two rings of
    zeros, so both neighbours of an index clipped into the pad lie in it.
    """
    if mode not in ("nearest", "bilinear"):
        raise ValueError(f"unknown resampling mode {mode!r}")
    h, w = arr.shape
    shape = np.broadcast_shapes(np.shape(sy), np.shape(sx))
    sy, sx = np.atleast_1d(np.asarray(sy, np.float64), np.asarray(sx, np.float64))
    if not (np.isfinite(sy).all() and np.isfinite(sx).all()):
        raise ValueError("sample coordinates must be finite")
    out = np.empty(np.broadcast_shapes(sy.shape, sx.shape),
                   arr.dtype if mode == "nearest" or arr.dtype == np.uint8
                   else np.float32)
    flat = np.pad(arr if mode == "nearest" else arr.astype(np.float64), 2).ravel()
    rows = max(1, _CHUNK_PIXELS // max(1, math.prod(out.shape[1:])))
    for r in range(0, len(out), rows):
        # a coordinate array spans the chunk's rows unless broadcast along them
        y, x = (a[r:r + rows] if a.ndim == out.ndim and len(a) > 1 else a
                for a in (sy, sx))
        u, v = (y, x) if mode == "nearest" else (y - 0.5, x - 0.5)
        fu, fv = np.floor(u), np.floor(v)
        # clipped in float, so a floor of any size past an edge reads its pad
        i, j = ((np.clip(f, -2, n) + 2).astype(np.int64)
                for f, n in ((fu, h), (fv, w)))
        base = i * (w + 4) + j
        if mode == "nearest":
            out[r:r + rows] = flat.take(base)
            continue
        fy, fx = u - fu, v - fv
        acc = np.zeros(out[r:r + rows].shape)
        for di, wy in ((0, 1.0 - fy), (w + 4, fy)):
            for dj, wx in ((0, 1.0 - fx), (1, fx)):
                acc += wy * wx * flat.take(base + (di + dj))
        # the assignment casts as .astype does
        out[r:r + rows] = (np.clip(np.floor(acc + 0.5), 0, 255)
                           if out.dtype == np.uint8 else acc)
    return out.reshape(shape)


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

    def require(self, field, what):
        """The record's ``field``, unless it is empty: then ValueError naming
        the record and the missing ``what``. An empty path would read ".",
        the working directory."""
        value = getattr(self, field)
        if not value:
            raise ValueError(f"record {self.image or self.gtmask!r} in split "
                             f"{self.split!r} has no {what} path")
        return value


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
        try:
            records.append(ManifestRecord(
                split=split, image=image, gtmask=gtmask,
                preds=tuple(p for p in preds.split(",") if p),
                fsts=tuple(f for f in fsts.split(",") if f)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records


def write_manifest(records, path):
    lines = []
    for r in records:
        lines.append("\t".join([r.split, r.image, r.gtmask,
                                ",".join(r.preds), ",".join(r.fsts)]))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")
