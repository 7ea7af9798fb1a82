"""Minimal dense-tensor kernel behind the stacking meta-learner.

Tensors are numpy arrays laid out (channels, height, width) in row-major
order. The production path stores values in float32; every reduction
(convolution window sums, Adam moments) runs in float64 and the result
is cast back down to float32 unless some operand was float64, in which
case the result stays 64-bit. Gradient checks
exploit this: perturbing a float64 copy of any operand yields a fully
64-bit loss evaluation.

Convolution is shift-and-accumulate (kn2row, arXiv:1704.04428): the input
is zero-padded once to float64, each kernel tap reads a shifted view of
it, and the products ``W[:, :, i, j] @ view`` are summed into one float64
``O x H x (W+2*pw)`` accumulator whose pad columns are cropped; backward
runs the same products per tap. Memory is the padded input, the
accumulator and one product buffer, not a ``9C x H x W`` column matrix.

All operations are pure: inputs are never mutated and identical inputs
produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ShapeMismatchError


# Largest C*kh*kw whose taps share one stacked GEMM (see _tap_groups).
_STACKED_MAX_K = 64


def _out_dtype(*arrays):
    if any(np.asarray(a).dtype == np.float64 for a in arrays):
        return np.float64
    return np.float32


def _require_chw(x, name="input"):
    arr = np.asarray(x)
    if arr.ndim != 3:
        raise ShapeMismatchError(
            f"{name} must be (channels, height, width), got shape {arr.shape}"
        )
    return arr


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
    _interior(flat, h, w, kh, kw)[...] = x
    offsets = [i * stride + j for i in range(kh) for j in range(kw)]
    return flat, stride, offsets


def _interior(flat, h, w, kh, kw):
    """View of the (C, H, W) unpadded pixels of a _padded_rows buffer."""
    ph, pw = kh // 2, kw // 2
    stride = w + 2 * pw
    rows = flat[:, :(h + 2 * ph) * stride].reshape(len(flat), h + 2 * ph, stride)
    return rows[:, ph:ph + h, pw:pw + w]


def _tap_groups(flat, offsets, n):
    """Yield (weight columns, tap offsets, (taps*C, n) inputs) per GEMM.

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
        yield slice(t * ch, (t + per) * ch), group, cols


def _tap_major(weights):
    """(O, C, kh, kw) weights as a float64 (O, kh*kw*C) matrix, tap-major."""
    out_ch, in_ch = weights.shape[:2]
    w64 = weights.astype(np.float64).reshape(out_ch, in_ch, -1)
    return np.ascontiguousarray(w64.transpose(0, 2, 1)).reshape(out_ch, -1)


def _check_channels(x, kernel):
    x = _require_chw(x)
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
    out_ch, in_ch, kh, kw = kernel.weights.shape
    _, h, w = x.shape
    flat, stride, offsets = _padded_rows(x, kh, kw)
    wmat = _tap_major(kernel.weights)
    acc = tmp = None
    for taps, _, cols in _tap_groups(flat, offsets, h * stride):
        if acc is None:
            acc = wmat[:, taps] @ cols
            continue
        if tmp is None:
            tmp = np.empty_like(acc)
        acc += np.matmul(wmat[:, taps], cols, out=tmp)
    acc += kernel.bias.astype(np.float64)[:, None]
    out = acc.reshape(out_ch, h, stride)[:, :, :w]
    if not np.isfinite(out).all():
        raise NumericError("convolution produced non-finite values")
    return out.astype(_out_dtype(x, kernel.weights, kernel.bias))


def conv2d_backward(x, kernel, grad_out):
    """Gradients of a scalar loss through conv2d_forward.

    ``grad_out`` is the upstream gradient with the output's shape.
    Returns (grad_input, grad_weights, grad_bias).
    """
    x = _check_channels(x, kernel)
    g = _require_chw(grad_out, "grad_out")
    out_ch, in_ch, kh, kw = kernel.weights.shape
    _, h, w = x.shape
    if g.shape != (out_ch, h, w):
        raise ShapeMismatchError(
            f"grad_out shape {g.shape} does not match output shape {(out_ch, h, w)}"
        )
    flat, stride, offsets = _padded_rows(x, kh, kw)
    n = h * stride
    # zeros in the junk columns keep them out of both gradients
    gpad = np.zeros((out_ch, h, stride), dtype=np.float64)
    gpad[:, :, :w] = g
    gpad = gpad.reshape(out_ch, n)
    grad_bias = np.asarray(g, dtype=np.float64).reshape(out_ch, h * w).sum(axis=1)

    wmat = _tap_major(kernel.weights)
    gw = np.empty_like(wmat)
    gflat = np.zeros_like(flat)
    tmp = None
    for taps, group, cols in _tap_groups(flat, offsets, n):
        np.matmul(gpad, cols.T, out=gw[:, taps])
        if tmp is None:
            tmp = np.empty(cols.shape, dtype=np.float64)
        np.matmul(wmat[:, taps].T, gpad, out=tmp)
        for k, o in enumerate(group):
            gflat[:, o:o + n] += tmp[k * in_ch:(k + 1) * in_ch]
    grad_input = _interior(gflat, h, w, kh, kw)
    grad_weights = gw.reshape(out_ch, kh, kw, in_ch).transpose(0, 3, 1, 2)

    dt = _out_dtype(x, kernel.weights, g)
    return grad_input.astype(dt), grad_weights.astype(dt), grad_bias.astype(dt)


def relu_forward_backward(x):
    """ReLU value and its local derivative mask (1 where x > 0)."""
    x = np.asarray(x)
    y = np.maximum(x, 0)
    return y, (x > 0).astype(y.dtype)


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

