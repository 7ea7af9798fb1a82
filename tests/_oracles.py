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
    next layer's input.
    """
    from segens.losses import focal_tversky_loss
    from segens.ndtensor import (conv2d_backward, conv2d_forward,
                                 sigmoid_forward_backward)

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
        g, grads[2 * i], grads[2 * i + 1] = conv2d_backward(
            h_in, params.layers[i], g * local)
    return loss, h[0], grads
