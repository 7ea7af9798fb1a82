"""Minimal dense-tensor kernel behind the stacking meta-learner.

Tensors are numpy arrays laid out (channels, height, width) in row-major
order. The production path stores values in float32; every reduction
(convolution window sums, Adam moments) runs in float64 and the result
is cast back down to float32 unless some operand was float64, in which
case the result stays 64-bit. Gradient checks
exploit this: perturbing a float64 copy of any operand yields a fully
64-bit loss evaluation.

Convolution is shift-and-accumulate (kn2row, arXiv:1704.04428): the input
is zero-padded to float64, each kernel tap reads a shifted view of it,
and the products ``W[:, :, i, j] @ view`` are summed into a float64
accumulator whose pad columns are cropped. One generator does this, a
band of output rows at a time (arXiv:1709.03395), holding one band's
padded input, accumulator and product buffer, whose rows are sized
together to _BAND_BYTES (see _band_edges). It reads its
input as a stream of row bands, keeping only those its later bands still
read, and yields each output band as soon as it is done, so layers chain
band by band (layer fusion, Alwani et al., MICRO 2016) with no
whole-image activation between them. conv2d_forward feeds it a whole
array as one band and has it write into one output array.

Backward is the same stream run in reverse (_backward): grad_out arrives
in row bands, and the generator turns them into the input gradient's
bands by correlating them with the kernel turned 180 degrees, channels
swapped (arXiv:1603.07285). On the way, _param_grads sums the weight
gradient ``grad_out_band @ view.T`` over the bands of the layer's input,
and the bias gradient as each image row's float64 sum and then the sum
of those row sums. Neither order depends on how grad_out is banded, so
every gradient is bit-identical to one taken from whole arrays in the
same order, and a grad_out band is held only until both have passed it.
Chained layer by layer, a training step holds no whole-image float64
gradient: at 64x64, 128x128 and 256x256 it traces 22.2, 50.4 and 139.8
MB, of which 7.5, 30.2 and 120.75 MB are the layer inputs that forward
caches. conv2d_backward runs _backward on grad_out as one band.

adam_step is bias-corrected Adam (Kingma & Ba, arXiv:1412.6980) at the
usual moment decays beta1 = 0.9 and beta2 = 0.999 and stabilizer
epsilon = 1e-8, module constants; an AdamState sets only the learning
rate.

All operations are pure: inputs are never mutated and identical inputs
produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import (NumericError, ShapeMismatchError, check_range, check_shape,
                     require_chw)


# Largest C*kh*kw whose taps share one stacked GEMM (see _tap_groups).
_STACKED_MAX_K = 64
# Byte budget of the float64 buffers of one row band, rows of W + 2*pw.
_BAND_BYTES = 4 << 20
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


def _out_dtype(*arrays):
    if any(np.asarray(a).dtype == np.float64 for a in arrays):
        return np.float64
    return np.float32


@dataclass(frozen=True)
class ConvKernel:
    """Odd-sized 2-D convolution kernel with a per-output-channel bias.

    ``weights`` has shape (out_channels, in_channels, kernel_h, kernel_w)
    and ``bias`` shape (out_channels,).
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        b = np.asarray(self.bias)
        if w.ndim != 4:
            raise ShapeMismatchError(
                f"weights must be 4-D (out, in, kh, kw), got shape {w.shape}"
            )
        out_ch, _, kh, kw = w.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"kernel dims must be odd for same-padding, got {kh}x{kw}")
        check_shape(b.shape, "bias", (out_ch,), "weights' out-channel")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NumericError("kernel contains non-finite values")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_channels(self):
        return self.weights.shape[0]

    @property
    def in_channels(self):
        return self.weights.shape[1]

    @property
    def kernel_size(self):
        return self.weights.shape[2], self.weights.shape[3]


def _band_edges(h, stride, channels):
    """Yield (r0, r1) of bands that split H evenly, each at most _BAND_BYTES
    of float64 buffers with ``channels`` rows of ``stride`` per output row:
    a band's padded input (C_in, its halo rows aside) plus its accumulator
    and product buffer (C_out each). A band has at least one row."""
    rows = max(1, _BAND_BYTES // (8 * channels * stride))
    bands = -(-h // rows)
    return ((h * k // bands, h * (k + 1) // bands) for k in range(bands))


def _row_bands(bands, h, kh, kw, edges):
    """Yield (r0, r1, flat, offsets) per band of output rows r0..r1-1.

    ``bands`` yields (r0, r1, rows) bands of a (C, h, W) input in row
    order; only those that the current band and the ones after it still
    need are held. The output bands are ``edges``, the caller's
    _band_edges for ``C + 2*O`` channels of ``stride = W + 2*pw``, with
    O the output channels of the product that reads them.
    ``flat`` is image rows r0-ph .. r1+ph-1 (the ``kh//2`` halo; zeros
    outside the image) in float64 rows of ``stride``, flattened, plus
    ``2*pw`` trailing zeros, so tap (i, j) at ``o = i*stride + j`` reads
    ``flat[:, o:o + n]``, ``n = (r1-r0)*stride``: output pixel (r0 + y, z)
    is its column ``y*stride + z``, and the ``2*pw`` columns past ``W``
    per row are junk.
    """
    ph, pw = kh // 2, kw // 2
    bands = iter(bands)
    held = [next(bands)]
    end = held[0][1]  # input rows 0..end-1 have arrived
    stride = held[0][2].shape[2] + 2 * pw
    offsets = [i * stride + j for i in range(kh) for j in range(kw)]
    for r0, r1 in edges:
        while end < min(r1 + ph, h):
            held.append(next(bands))
            end = held[-1][1]
        if end == h:
            next(bands, None)  # ends the input's stream, freeing what it holds
        # built in the yield so that this frame keeps no reference to it
        yield r0, r1, _take_band(held, r0, r1, ph, pw), offsets


def _take_band(held, r0, r1, ph, pw):
    """``flat`` of output rows r0..r1-1 (see _row_bands) from the held
    input bands, which then keep only those that rows r1.. still read."""
    ch, _, w = held[0][2].shape
    lo, hi, stride = r0 - ph, r1 + ph, w + 2 * pw
    flat = np.zeros((ch, (hi - lo) * stride + 2 * pw))
    padded = flat[:, :(hi - lo) * stride].reshape(ch, -1, stride)
    for b0, b1, rows in held:
        a, z = max(b0, lo), min(b1, hi)
        if a < z:
            padded[:, a - lo:z - lo, pw:pw + w] = rows[:, a - b0:z - b0]
    held[:] = [b for b in held if b[1] > r1 - ph]
    return flat


def _tap_groups(flat, offsets, n):
    """Yield (weight columns, (taps*C, n) inputs) per GEMM.

    With few input channels a GEMM per tap is mostly call overhead, so up
    to _STACKED_MAX_K rows all taps are copied into one tap-major matrix;
    otherwise each tap is a strided view of ``flat`` that BLAS reads as is.
    """
    ch = len(flat)
    per = len(offsets) if ch * len(offsets) <= _STACKED_MAX_K else 1
    for t in range(0, len(offsets), per):
        group = offsets[t:t + per]
        cols = (flat[:, group[0]:group[0] + n] if per == 1
                else np.concatenate([flat[:, o:o + n] for o in group]))
        yield slice(t * ch, (t + per) * ch), cols


def _check_channels(x, kernel):
    x = require_chw(x, "input")
    if x.shape[0] != kernel.in_channels:
        raise ShapeMismatchError(
            f"input has {x.shape[0]} channels but kernel expects {kernel.in_channels}"
        )
    return x


def conv2d_forward(x, kernel):
    """Same-padded 2-D convolution of a (C, H, W) input, output (O, H, W).

    Borders are zero padded so spatial dims are preserved.
    """
    x = _check_channels(x, kernel)
    h = x.shape[1]
    out = np.empty((kernel.out_channels,) + x.shape[1:],
                   _out_dtype(x, kernel.weights, kernel.bias))
    for _ in _correlate([(0, h, x)], h, kernel.weights, kernel.bias, out):
        pass
    return out


def _correlate(bands, h, weights, bias, out=None):
    """conv2d_forward on checked operands as a stream of row bands.

    ``bands`` yields (r0, r1, rows) bands of a (C, h, W) input in row
    order; yields the output's (r0, r1, rows) on _band_edges, each band
    computed as soon as the input rows it and its halo read have arrived.
    ``rows`` is a view of ``out`` if given, an (O, h, W) array of the
    output dtype, or else a new array.
    """
    out_ch, in_ch, kh, kw = weights.shape
    bands = iter(bands)
    first = next(bands)
    dt = _out_dtype(first[2], weights, bias)
    w = first[2].shape[2]
    stride = w + 2 * (kw // 2)
    # weights as a float64 (O, kh*kw*C) matrix, tap-major like _tap_groups
    wmat = np.ascontiguousarray(weights.transpose(0, 2, 3, 1),
                                dtype=np.float64).reshape(out_ch, -1)
    bias = bias.astype(np.float64)[:, None]
    # a list iterator lets go of its list once spent, so first is held
    # only as long as _row_bands needs it
    bands = _row_bands(chain(iter([first]), bands), h, kh, kw,
                       _band_edges(h, stride, in_ch + 2 * out_ch))
    del first
    for r0, r1, flat, offsets in bands:
        n = (r1 - r0) * stride
        acc = tmp = None  # a product buffer only once a second group comes
        for taps, cols in _tap_groups(flat, offsets, n):
            if acc is None:
                acc = np.matmul(wmat[:, taps], cols)
            else:
                tmp = np.matmul(wmat[:, taps], cols, out=tmp)
                acc += tmp
        del flat, cols, tmp
        acc += bias
        rows = (np.empty((out_ch, r1 - r0, w), dt) if out is None
                else out[:, r0:r1])
        rows[...] = acc.reshape(out_ch, r1 - r0, stride)[:, :, :w]
        del acc
        # checked after the cast, which overflows to inf past float32's range
        if not np.isfinite(rows).all():
            raise NumericError("convolution produced non-finite values")
        yield r0, r1, rows
        del rows  # its consumer holds it for as long as it reads it


def conv2d_backward(x, kernel, grad_out):
    """Gradients of a scalar loss through conv2d_forward.

    ``grad_out`` is the upstream gradient with the output's shape.
    Returns (grad_input, grad_weights, grad_bias), from the stream that
    training runs (_backward) fed grad_out as one band.
    """
    x = _check_channels(x, kernel)
    g = require_chw(grad_out, "grad_out")
    check_shape(g.shape, "grad_out", (kernel.out_channels,) + x.shape[1:],
                "output")
    grad_in, grads = np.empty(x.shape, _out_dtype(x, kernel.weights, g)), []
    for _ in _backward([(0, x.shape[1], g)], x, kernel.weights, grads, grad_in):
        pass
    return (grad_in, *grads)


def _flipped(x, weights):
    """The kernel turned 180 degrees with its channels swapped, and a zero
    bias that carries the gradients' dtype: correlating grad_out with them
    gives the input gradient."""
    flipped = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return flipped, np.zeros(len(flipped), _out_dtype(x, weights))


def _backward(bands, x, weights, grads, out=None):
    """conv2d_backward on checked operands as a stream of row bands.

    ``bands`` yields grad_out's (r0, r1, rows) bands in row order; yields
    the input gradient's bands (see _correlate, and ``out`` there) and
    appends (grad_weights, grad_bias) to ``grads`` once ``bands`` is
    spent. A grad_out band is held until both consumers have passed it.
    """
    return _correlate(_param_grads(bands, x, weights, grads), x.shape[1],
                      *_flipped(x, weights), out)


def _param_grads(bands, x, weights, grads):
    """Pass grad_out's (r0, r1, rows) bands from ``bands`` on unchanged,
    summing conv2d_backward's weight and bias gradients from them, and
    append (grad_weights, grad_bias) to ``grads`` once ``bands`` is spent.

    The weight gradient sums ``grad_out_band @ view.T`` over _row_bands'
    bands of ``x``, each built once grad_out has arrived past its last
    row, so its sums do not depend on how grad_out arrives. The bias
    gradient sums each row of a band in float64 as the band arrives, and
    adds the (out_ch, h) row sums per channel once all are in; no band
    is copied to float64 whole.
    """
    out_ch, in_ch, kh, kw = weights.shape
    _, h, w = x.shape
    pw = kw // 2
    stride = w + 2 * pw
    gw = np.zeros((out_ch, kh * kw * in_ch))
    row_sums = np.empty((out_ch, h))
    bands, held, end = iter(bands), [], 0
    edges = list(_band_edges(h, stride, in_ch + 2 * out_ch))
    xbands = _row_bands([(0, h, x)], h, kh, kw, edges)
    for _, r1 in edges:
        while end < r1:
            held.append(next(bands))
            g0, end, rows = held[-1]
            row_sums[:, g0:end] = rows.sum(axis=2, dtype=np.float64)
            dt = _out_dtype(x, weights, rows)  # that of the gradients
            del rows  # held alone keeps it, until _take_band drops it
            yield held[-1]
        r0, r1, flat, offsets = next(xbands)
        n = (r1 - r0) * stride
        # grad_out at its output pixels' columns; zeros in the junk
        # columns keep them out of the weight gradient
        gpad = _take_band(held, r0, r1, 0, pw)[:, pw:pw + n]
        for taps, cols in _tap_groups(flat, offsets, n):
            gw[:, taps] += gpad @ cols.T
        del flat, cols, gpad
    next(bands, None)  # ends the stream, freeing what it holds
    grad_weights = gw.reshape(out_ch, kh, kw, in_ch).transpose(0, 3, 1, 2)
    grad_weights = grad_weights.astype(dt)
    grad_bias = row_sums.sum(axis=1).astype(dt)
    if not (np.isfinite(grad_weights).all() and np.isfinite(grad_bias).all()):
        raise NumericError("convolution gradient has non-finite values")
    grads += grad_weights, grad_bias


def sigmoid_forward_backward(x):
    """Numerically stable sigmoid and its local derivative y*(1-y).

    The derivative is evaluated as e^-|x| / (1 + e^-|x|)^2, which equals
    y*(1-y) but does not cancel to an exact zero once y rounds to 1, so a
    saturated unit keeps an escape gradient.
    """
    x = np.asarray(x)
    x64 = x.astype(np.float64)
    em = np.exp(-np.abs(x64))
    y64 = np.where(x64 >= 0, 1.0, em) / (1.0 + em)
    deriv = em / (1.0 + em) ** 2
    dt = _out_dtype(x)
    return y64.astype(dt), deriv.astype(dt)


@dataclass(frozen=True)
class AdamState:
    """Bias-corrected Adam accumulators for a list of parameter arrays.

    ``t`` counts completed steps; moments are kept in float64.
    """

    m: tuple
    v: tuple
    t: int
    learning_rate: float

    @classmethod
    def fresh(cls, params, learning_rate):
        check_range(learning_rate, "learning_rate", 0)
        m = tuple(np.zeros(np.shape(p), dtype=np.float64) for p in params)
        v = tuple(np.zeros(np.shape(p), dtype=np.float64) for p in params)
        return cls(m=m, v=v, t=0, learning_rate=learning_rate)


def adam_step(params, grads, state):
    """One bias-corrected Adam update. Returns (new_params, new_state).

    Inputs are untouched; parameter dtype is preserved.
    """
    if not (len(params) == len(grads) == len(state.m)):
        raise ShapeMismatchError(
            f"got {len(params)} params, {len(grads)} grads, "
            f"state for {len(state.m)}"
        )
    t = state.t + 1
    corr1 = 1.0 - _BETA1 ** t
    corr2 = 1.0 - _BETA2 ** t
    new_params, new_m, new_v = [], [], []
    for idx, (p, g) in enumerate(zip(params, grads)):
        p = np.asarray(p)
        g64 = np.asarray(g, dtype=np.float64)
        check_shape(g64.shape, f"grad {idx}", p.shape, f"parameter {idx}")
        if not np.isfinite(g64).all():
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(g64))[0])
            raise NumericError(
                f"non-finite gradient for parameter {idx} at index {bad}"
            )
        m = _BETA1 * state.m[idx] + (1.0 - _BETA1) * g64
        v = _BETA2 * state.v[idx] + (1.0 - _BETA2) * g64 * g64
        step = state.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + _EPSILON)
        new_params.append((p.astype(np.float64) - step).astype(p.dtype))
        new_m.append(m)
        new_v.append(v)
    return new_params, replace(state, m=tuple(new_m), v=tuple(new_v), t=t)

