"""Independent reference computations for the output checks.

Nothing here calls segens. Each function restates the documented
behaviour of one segens operation with a different algorithm:
convolution and its gradient by shift-and-accumulate rather than im2col,
soft labels by neighbourhood min/max rather than the morphology module,
and curve tallies from per-level histograms rather than pooled sorting.
"""

from __future__ import annotations

import math

import numpy as np

FILTERS = (256, 128, 64, 32, 1)
KERNELS = (3, 3, 3, 3, 1)
# Receptive-field radius of the five layers: four 3x3 layers, then 1x1.
RADIUS = 4


def conv_same(x, w, b):
    """Same-padded convolution of (N, C, H, W) by (O, C, k, k) in float64,
    summed over the k*k shifted views of the zero-padded input."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    r = k // 2
    pad = np.zeros((n, c, h + 2 * r, wd + 2 * r))
    pad[:, :, r:r + h, r:r + wd] = x
    w64 = w.astype(np.float64)
    out = np.broadcast_to(b.astype(np.float64)[None, :, None], (n, o, h * wd)).copy()
    for i in range(k):
        for j in range(k):
            view = pad[:, :, i:i + h, j:j + wd].reshape(n, c, h * wd)
            out += w64[:, :, i, j] @ view
    return out.reshape(n, o, h, wd)


def conv_same_backward(x, w, g):
    """Gradients of a scalar through ``conv_same(x, w, b)`` given the
    upstream (N, O, H, W) gradient ``g``: (grad x, grad w, grad b)."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    r = k // 2
    pad = np.zeros((n, c, h + 2 * r, wd + 2 * r))
    pad[:, :, r:r + h, r:r + wd] = x
    w64 = w.astype(np.float64)
    gm = g.reshape(n, o, h * wd)
    gw = np.empty((o, c, k, k))
    gpad = np.zeros_like(pad)
    for i in range(k):
        for j in range(k):
            view = pad[:, :, i:i + h, j:j + wd].reshape(n, c, h * wd)
            gw[:, :, i, j] = (gm @ view.transpose(0, 2, 1)).sum(axis=0)
            gpad[:, :, i:i + h, j:j + wd] += (w64[:, :, i, j].T @ gm).reshape(n, c, h, wd)
    return gpad[:, :, r:r + h, r:r + wd], gw, gm.sum(axis=(0, 2))


def _forward(layers, x, store32=True, valid=None):
    h = np.asarray(x, dtype=np.float64)
    cache = []
    for i, (w, b) in enumerate(layers):
        z = conv_same(h, w, b)
        if store32:
            z = z.astype(np.float32).astype(np.float64)
        if i < len(layers) - 1:
            y, local = np.maximum(z, 0.0), (z > 0).astype(np.float64)
            if valid is not None:
                y = y * valid
        else:
            y = 0.5 * (1.0 + np.tanh(0.5 * z))
            if store32:
                y = y.astype(np.float32).astype(np.float64)
            local = y * (1.0 - y)
        cache.append((h, local))
        h = y
    return h[:, 0], cache


def forward(layers, x, store32=True, valid=None):
    """The meta-learner's forward pass on (N, C, H, W): ReLU after the
    first four layers, sigmoid after the last. Returns (N, H, W) float64.

    ``store32`` rounds every layer's output to float32, as segens stores
    activations. ``valid`` (H, W) zeroes activations outside the image,
    which makes a crop around a pixel reproduce the full image's padding.
    """
    return _forward(layers, x, store32, valid)[0]


def forward_at(layers, stack, pixels):
    """Forward-pass values at the listed (row, col) pixels of one (C, H, W)
    stack, each from the crop that is the pixel's receptive field."""
    c, h, w = stack.shape
    r = RADIUS
    padded = np.zeros((c, h + 2 * r, w + 2 * r))
    padded[:, r:r + h, r:r + w] = stack
    inside = np.zeros((h + 2 * r, w + 2 * r))
    inside[r:r + h, r:r + w] = 1.0
    size = 2 * r + 1
    crops = np.stack([padded[:, y:y + size, x:x + size] for y, x in pixels])
    valid = np.stack([inside[y:y + size, x:x + size] for y, x in pixels])
    out = forward(layers, crops, valid=valid[:, None])
    return out[:, r, r]


def he_init(in_channels, seed):
    """The meta-learner's documented initialization: per layer in order,
    normal weights from ``numpy.random.default_rng(seed)`` scaled by
    sqrt(2 / fan_in) (sqrt(1 / fan_in) for the sigmoid head), stored as
    float32, with zero biases."""
    rng = np.random.default_rng(seed)
    layers = []
    c_in = in_channels
    for i, (c_out, k) in enumerate(zip(FILTERS, KERNELS)):
        fan_in = c_in * k * k
        gain = 1.0 if i == len(FILTERS) - 1 else 2.0
        w = (rng.standard_normal((c_out, c_in, k, k)) * math.sqrt(gain / fan_in))
        layers.append((w.astype(np.float32), np.zeros(c_out, np.float32)))
        c_in = c_out
    return layers


def soft_labels(mask, interior=0.9, exterior=0.1):
    """Boundary-uncertainty labels with a one-pixel 3x3 ring: mask pixels
    with a background 8-neighbour (the outside counts as background) get
    ``interior``, background pixels with a mask 8-neighbour ``exterior``."""
    m = np.asarray(mask).astype(bool)
    h, w = m.shape
    pad = np.zeros((h + 2, w + 2), bool)
    pad[1:-1, 1:-1] = m
    views = [pad[i:i + h, j:j + w] for i in range(3) for j in range(3)]
    any_fg = np.logical_or.reduce(views)
    all_fg = np.logical_and.reduce(views)
    out = m.astype(np.float64)
    out[m & ~all_fg] = float(np.float32(interior))
    out[~m & any_fg] = float(np.float32(exterior))
    return out


def focal_tversky(target, pred, fn_weight=0.7, gamma=0.75, smooth=1e-6):
    """(1 - TI) ** gamma with TI = (TP + s) / (TP + a FN + (1 - a) FP + s),
    and its gradient w.r.t. ``pred``: d TI / d p = (t den - num (1 - a)) / den^2."""
    t = np.asarray(target, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    tp = float((t * p).sum())
    fn = float((t * (1.0 - p)).sum())
    fp = float(((1.0 - t) * p).sum())
    num = tp + smooth
    den = tp + fn_weight * fn + (1.0 - fn_weight) * fp + smooth
    base = 1.0 - num / den
    if base <= 0.0:
        return 0.0, np.zeros_like(p)
    dti = (t * den - num * (1.0 - fn_weight)) / (den * den)
    return base ** gamma, -gamma * base ** (gamma - 1.0) * dti


def mean_loss(layers, stacks, masks, store32=True):
    preds = forward(layers, np.stack(stacks), store32=store32)
    return math.fsum(focal_tversky(soft_labels(m), p)[0]
                     for m, p in zip(masks, preds)) / len(masks)


def losses_and_grads(layers, stacks, masks):
    """Each sample's loss, and the gradient of the batch's mean loss
    w.r.t. every (weights, bias) pair, backpropagated in float64."""
    preds, cache = _forward(layers, np.stack(stacks))
    losses, g = zip(*(focal_tversky(soft_labels(m), p) for m, p in zip(masks, preds)))
    g = np.stack(g)[:, None] / len(masks)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        h_in, local = cache[i]
        g, gw, gb = conv_same_backward(h_in, layers[i][0], g * local)
        grads[i] = (gw, gb)
    return list(losses), grads


def adam_epoch(layers, stacks, masks, batch_size, order, lr,
               beta1=0.9, beta2=0.999, eps=1e-8):
    """One epoch of mini-batch Adam from a fresh state, visiting the
    samples in ``order``. Returns the mean of the sample losses, each
    taken before its batch's step, and the parameters after the epoch."""
    params = [(w, b) for w, b in layers]
    m = [(np.zeros(w.shape), np.zeros(b.shape)) for w, b in layers]
    v = [(np.zeros(w.shape), np.zeros(b.shape)) for w, b in layers]
    losses = []
    for t, start in enumerate(range(0, len(order), batch_size), 1):
        batch = order[start:start + batch_size]
        batch_losses, grads = losses_and_grads(params, [stacks[i] for i in batch],
                                               [masks[i] for i in batch])
        losses += batch_losses
        for li, pairs in enumerate(zip(params, grads, m, v)):
            stepped = []
            for p, g, mi, vi in zip(*pairs):
                mi *= beta1
                mi += (1.0 - beta1) * g
                vi *= beta2
                vi += (1.0 - beta2) * g * g
                step = lr * (mi / (1.0 - beta1 ** t)) / (np.sqrt(vi / (1.0 - beta2 ** t)) + eps)
                stepped.append((p.astype(np.float64) - step).astype(np.float32))
            params[li] = tuple(stepped)
    return math.fsum(losses) / len(losses), params


def level_values():
    """The probability each 8-bit level decodes to: float32(v) / 255."""
    return (np.arange(256, dtype=np.float32) / np.float32(255.0)).astype(np.float64)


def tally_at(hist, threshold):
    """Pixels with probability >= threshold, from (..., 256) level counts."""
    return hist[..., level_values() >= threshold].sum(axis=-1)


def mask_match(tp, fp, fn, iou_threshold=0.5):
    """Whole-mask outcome as (tp, fp, fn, tn) from one image's pixel tallies."""
    pred_any, gt_any = tp + fp > 0, tp + fn > 0
    if not pred_any and not gt_any:
        return (0, 0, 0, 1)
    if not gt_any:
        return (0, 1, 0, 0)
    if not pred_any:
        return (0, 0, 1, 0)
    if tp / (tp + fp + fn) > iou_threshold:
        return (1, 0, 0, 0)
    return (0, 1, 1, 0)
