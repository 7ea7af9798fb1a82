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
accumulator whose pad columns are cropped. One loop does this, a band of
output rows at a time (arXiv:1709.03395), holding the input, the output
and one band's padded input, accumulator (_BAND_BYTES) and product
buffer. It also gives backward's input gradient: grad_out correlated
with the kernel turned 180 degrees, channels swapped (arXiv:1603.07285).
The weight gradient uses whole-image float64 buffers.

All operations are pure: inputs are never mutated and identical inputs
produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ShapeMismatchError
from .metrics import require_chw


# Largest C*kh*kw whose taps share one stacked GEMM (see _tap_groups).
_STACKED_MAX_K = 64
# Byte budget of conv2d_forward's float64 accumulator for one row band.
_BAND_BYTES = 4 << 20


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
        if b.shape != (out_ch,):
            raise ShapeMismatchError(
                f"bias must have shape ({out_ch},), got {b.shape}"
            )
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


def _padded_rows(x, kh, kw):
    """Zero-pad (C, H, W) to float64 rows of ``stride = W + 2*pw``, flattened.

    ``2*pw`` trailing zeros let tap (i, j) at ``o = i*stride + j`` read
    ``flat[:, o:o + H*stride]``, in which output pixel (y, z) is column
    ``y*stride + z`` and the ``2*pw`` columns past ``W`` per row are junk.
    Returns (flat, stride, tap offsets in row-major order).
    """
    ch, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    stride = w + 2 * pw
    flat = np.zeros((ch, (h + 2 * ph) * stride + 2 * pw), dtype=np.float64)
    rows = flat[:, :(h + 2 * ph) * stride].reshape(ch, h + 2 * ph, stride)
    rows[:, ph:ph + h, pw:pw + w] = x
    offsets = [i * stride + j for i in range(kh) for j in range(kw)]
    return flat, stride, offsets


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
    return _correlate(_check_channels(x, kernel), kernel.weights, kernel.bias)


def _correlate(x, weights, bias):
    """conv2d_forward on checked operands, one band of output rows at a time."""
    out_ch, _, kh, kw = weights.shape
    _, h, w = x.shape
    ph = kh // 2
    stride = w + 2 * (kw // 2)
    out = np.empty((out_ch, h, w), dtype=_out_dtype(x, weights, bias))
    # weights as a float64 (O, kh*kw*C) matrix, tap-major like _tap_groups
    wmat = np.ascontiguousarray(weights.transpose(0, 2, 3, 1),
                                dtype=np.float64).reshape(out_ch, -1)
    bias = bias.astype(np.float64)[:, None]
    # even split into bands of at most _BAND_BYTES of accumulator rows
    rows = max(1, _BAND_BYTES // (8 * out_ch * stride))
    bands = max(1, -(-h // rows))
    edges = [h * k // bands for k in range(bands + 1)]
    size = out_ch * -(-h // bands) * stride
    acc_buf, tmp_buf = np.empty(size), np.empty(size)
    for r0, r1 in zip(edges, edges[1:]):
        # rows r0-ph .. r1+ph of the zero-padded image; padded row r0-lo
        # of this slice is image row r0-ph
        lo = max(r0 - ph, 0)
        flat, _, offsets = _padded_rows(x[:, lo:r1 + ph], kh, kw)
        flat = flat[:, (r0 - lo) * stride:]
        n = (r1 - r0) * stride
        acc = acc_buf[:out_ch * n].reshape(out_ch, n)
        tmp = tmp_buf[:out_ch * n].reshape(out_ch, n)
        for k, (taps, cols) in enumerate(_tap_groups(flat, offsets, n)):
            if k == 0:
                np.matmul(wmat[:, taps], cols, out=acc)
            else:
                acc += np.matmul(wmat[:, taps], cols, out=tmp)
        acc += bias
        out[:, r0:r1] = acc.reshape(out_ch, r1 - r0, stride)[:, :, :w]
        # checked after the cast, which overflows to inf past float32's range
        if not np.isfinite(out[:, r0:r1]).all():
            raise NumericError("convolution produced non-finite values")
    return out


def conv2d_backward(x, kernel, grad_out):
    """Gradients of a scalar loss through conv2d_forward.

    ``grad_out`` is the upstream gradient with the output's shape.
    Returns (grad_input, grad_weights, grad_bias).
    """
    x = _check_channels(x, kernel)
    g = require_chw(grad_out, "grad_out")
    want = (kernel.out_channels,) + x.shape[1:]
    if g.shape != want:
        raise ShapeMismatchError(
            f"grad_out shape {g.shape} does not match output shape {want}")
    # grad_out correlated with the kernel turned 180 degrees, channels
    # swapped; the zero bias carries the gradients' dtype
    flipped = kernel.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    grad_input = _correlate(
        g, flipped, np.zeros(kernel.in_channels, _out_dtype(x, kernel.weights, g)))
    return (grad_input,) + _param_grads(x, kernel, g)


def _param_grads(x, kernel, g):
    """(grad_weights, grad_bias) of conv2d_backward, over the whole image."""
    out_ch, in_ch, kh, kw = kernel.weights.shape
    _, h, w = x.shape
    flat, stride, offsets = _padded_rows(x, kh, kw)
    n = h * stride
    # zeros in the junk columns keep them out of the weight gradient
    gpad = np.zeros((out_ch, h, stride), dtype=np.float64)
    gpad[:, :, :w] = g
    gpad = gpad.reshape(out_ch, n)
    gw = np.empty((out_ch, kh * kw * in_ch))
    for taps, cols in _tap_groups(flat, offsets, n):
        np.matmul(gpad, cols.T, out=gw[:, taps])
    grad_weights = gw.reshape(out_ch, kh, kw, in_ch).transpose(0, 3, 1, 2)
    grad_bias = np.asarray(g, dtype=np.float64).reshape(out_ch, h * w).sum(axis=1)
    dt = _out_dtype(x, kernel.weights, g)
    grad_weights, grad_bias = grad_weights.astype(dt), grad_bias.astype(dt)
    if not (np.isfinite(grad_weights).all() and np.isfinite(grad_bias).all()):
        raise NumericError("convolution gradient has non-finite values")
    return grad_weights, grad_bias


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
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def fresh(cls, params, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        m = tuple(np.zeros(np.shape(p), dtype=np.float64) for p in params)
        v = tuple(np.zeros(np.shape(p), dtype=np.float64) for p in params)
        return cls(m=m, v=v, t=0, learning_rate=learning_rate,
                   beta1=beta1, beta2=beta2, epsilon=epsilon)

    def with_learning_rate(self, learning_rate):
        return replace(self, learning_rate=learning_rate)


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
    corr1 = 1.0 - state.beta1 ** t
    corr2 = 1.0 - state.beta2 ** t
    new_params, new_m, new_v = [], [], []
    for idx, (p, g) in enumerate(zip(params, grads)):
        p = np.asarray(p)
        g64 = np.asarray(g, dtype=np.float64)
        if g64.shape != p.shape:
            raise ShapeMismatchError(
                f"parameter {idx}: grad shape {g64.shape} != param shape {p.shape}"
            )
        if not np.isfinite(g64).all():
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(g64))[0])
            raise NumericError(
                f"non-finite gradient for parameter {idx} at index {bad}"
            )
        m = state.beta1 * state.m[idx] + (1.0 - state.beta1) * g64
        v = state.beta2 * state.v[idx] + (1.0 - state.beta2) * g64 * g64
        step = state.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + state.epsilon)
        new_params.append((p.astype(np.float64) - step).astype(p.dtype))
        new_m.append(m)
        new_v.append(v)
    return new_params, replace(state, m=tuple(new_m), v=tuple(new_v), t=t)

