"""Reference implementations that tests compare the package against."""

import math

import numpy as np

from segens.errors import NumericError


def finite_diff_grad(f, params, step=1e-4):
    """Central-difference gradient oracle, computed coordinatewise in float64.

    ``f`` maps an array shaped like ``params`` to a finite scalar.
    """
    base = np.array(params, dtype=np.float64)
    grad = np.zeros(base.shape, dtype=np.float64)
    for idx in np.ndindex(base.shape):
        hi = base.copy()
        hi[idx] += step
        lo = base.copy()
        lo[idx] -= step
        f_hi = float(f(hi))
        f_lo = float(f(lo))
        if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
            raise NumericError(f"function is not finite near coordinate {idx}")
        grad[idx] = (f_hi - f_lo) / (2.0 * step)
    return grad


def loss_and_grads_local_cache(params, stack, soft_target, tversky):
    """The meta-learner's loss and gradients with a stored derivative mask.

    Each layer caches its input and its activation's local derivative
    (for ReLU ``(z > 0)`` in the output dtype), and backward multiplies
    the upstream gradient by that mask, instead of deriving it from the
    next layer's input. Backward is conv2d_backward_whole, layer by layer
    on whole arrays.
    """
    from segens.losses import focal_tversky_loss
    from segens.ndtensor import conv2d_forward, sigmoid_forward_backward

    h, cache = stack, []
    for i, layer in enumerate(params.layers):
        z = conv2d_forward(h, layer)
        if i < len(params.layers) - 1:
            y, local = np.maximum(z, 0), (z > 0).astype(z.dtype)
        else:
            y, local = sigmoid_forward_backward(z)
        cache.append((h, local))
        h = y
    loss, dpred = focal_tversky_loss(soft_target, h[0], tversky)
    grads = [None] * (2 * len(params.layers))
    g = dpred[None, :, :]
    for i in range(len(params.layers) - 1, -1, -1):
        h_in, local = cache[i]
        g, grads[2 * i], grads[2 * i + 1] = conv2d_backward_whole(
            h_in, params.layers[i].weights, g * local)
    return loss, h[0], grads


def conv2d_backward_whole(x, weights, grad_out):
    """(grad_input, grad_weights, grad_bias) of a same-padded convolution,
    computed as conv2d_backward did before backward streamed, on whole
    arrays, in float64 rounded to the output dtype at the end.

    The input gradient correlates the zero-padded ``grad_out`` with the
    kernel turned 180 degrees and its channels swapped: per band of output
    rows, a GEMM per kernel tap (all taps in one GEMM when channels*taps
    <= ndtensor._STACKED_MAX_K) added into one accumulator. The weight
    gradient adds ``grad_out_band @ view.T`` over the bands. The bands are
    those of ``ndtensor._band_edges`` for a product's input channels plus
    twice its output's, so a patched band budget moves them too; they
    matter, because BLAS can round a GEMM's sums differently at another
    width. The bias gradient sums each row of ``grad_out`` in float64, then
    each channel's row sums.
    """
    from segens import ndtensor

    x, w, g = np.asarray(x), np.asarray(weights), np.asarray(grad_out)
    out_ch, in_ch, kh, kw = w.shape
    _, h, width = x.shape
    ph, pw = kh // 2, kw // 2
    stride = width + 2 * pw
    dt = (np.float64 if np.float64 in (x.dtype, w.dtype, g.dtype)
          else np.float32)
    offsets = [i * stride + j for i in range(kh) for j in range(kw)]

    def padded(a, r0, r1):
        # rows r0-ph .. r1+ph-1 of ``a`` (zeros outside it) in float64
        # rows of ``stride``, flattened, plus 2*pw trailing zeros
        flat = np.zeros((len(a), (r1 - r0 + 2 * ph) * stride + 2 * pw))
        rows = flat[:, :(r1 - r0 + 2 * ph) * stride].reshape(len(a), -1, stride)
        lo, hi = max(r0 - ph, 0), min(r1 + ph, h)
        rows[:, lo - r0 + ph:hi - r0 + ph, pw:pw + width] = a[:, lo:hi]
        return flat

    def groups(flat, n):
        ch = len(flat)
        per = len(offsets) if ch * len(offsets) <= ndtensor._STACKED_MAX_K else 1
        for t in range(0, len(offsets), per):
            taps = offsets[t:t + per]
            cols = (flat[:, taps[0]:taps[0] + n] if per == 1
                    else np.concatenate([flat[:, o:o + n] for o in taps]))
            yield slice(t * ch, (t + per) * ch), cols

    flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    wmat = np.ascontiguousarray(flipped.transpose(0, 2, 3, 1),
                                dtype=np.float64).reshape(in_ch, -1)
    grad_in = np.empty(x.shape, dt)
    for r0, r1 in ndtensor._band_edges(h, stride, out_ch + 2 * in_ch):
        acc = None
        for cols_at, cols in groups(padded(g, r0, r1), (r1 - r0) * stride):
            prod = wmat[:, cols_at] @ cols
            acc = prod if acc is None else acc + prod
        acc += np.zeros((in_ch, 1))  # the zero bias: -0.0 becomes 0.0
        grad_in[:, r0:r1] = acc.reshape(in_ch, r1 - r0, stride)[:, :, :width]

    gw = np.zeros((out_ch, kh * kw * in_ch))
    for r0, r1 in ndtensor._band_edges(h, stride, in_ch + 2 * out_ch):
        n = (r1 - r0) * stride
        gpad = np.zeros((out_ch, r1 - r0, stride))
        gpad[:, :, :width] = g[:, r0:r1]
        gpad = gpad.reshape(out_ch, n)
        for cols_at, cols in groups(padded(x, r0, r1), n):
            gw[:, cols_at] += gpad @ cols.T
    grad_w = gw.reshape(out_ch, kh, kw, in_ch).transpose(0, 3, 1, 2).astype(dt)
    grad_b = g.sum(axis=2, dtype=np.float64).sum(axis=1).astype(dt)
    return grad_in, grad_w, grad_b


def filter_scanline(ftype, line, prev):
    """Forward-filter one PNG row of bytes, given the row above, by the
    specification's definition of filter type ``ftype``."""
    out = bytearray()
    left = upleft = 0
    for i, cur in enumerate(line):
        up = prev[i]
        if ftype == 0:
            out.append(cur)
        elif ftype == 1:
            out.append((cur - left) % 256)
        elif ftype == 2:
            out.append((cur - up) % 256)
        elif ftype == 3:
            out.append((cur - (left + up) // 2) % 256)
        else:
            p = left + up - upleft
            pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
            pred = left if pa <= pb and pa <= pc else (up if pb <= pc else upleft)
            out.append((cur - pred) % 256)
        left = cur
        upleft = up
    return bytes(out)


def unfilter_reference(raw, width, height):
    """Per-pixel PNG unfiltering, written from the specification.

    Returns the raster and how many pixels wrapped past 255 (raw byte +
    predictor >= 256) and landed exactly on 0 (== 256).
    """
    rows = [[0] * width]  # the zero row above the image
    wrapped = on_zero = 0
    for r in range(height):
        ftype = raw[r * (width + 1)]
        above, row = rows[-1], []
        for c in range(width):
            x = raw[r * (width + 1) + 1 + c]
            a = row[c - 1] if c else 0
            b = above[c]
            ul = above[c - 1] if c else 0
            p = a + b - ul
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - ul)
            paeth = a if pa <= pb and pa <= pc else (b if pb <= pc else ul)
            total = x + (0, a, b, (a + b) // 2, paeth)[ftype]
            row.append(total % 256)
            wrapped += total >= 256
            on_zero += total == 256
        rows.append(row)
    return np.array(rows[1:], np.uint8).reshape(height, width), wrapped, on_zero
