"""Differentiable overlap losses and the mixed MS-SSIM + MAE loss.

Soft overlap counts for a ground truth t and prediction p (both in
[0, 1], equal shapes):

    TP = sum(t * p)    FN = sum(t * (1 - p))    FP = sum((1 - t) * p)

The stabilizer _SMOOTH = 1e-6 is added to the numerator and denominator
of every ratio so empty masks do not divide 0 by 0; an empty array is
refused. The Tversky index weights the FN term by ``fn_weight`` and the
FP term by its complement; at fn_weight = 0.5 it is exactly the (soft)
Dice score, and ``dice_soft`` is implemented through that identity. The
focal Tversky loss is (1 - TI) ** focal_exponent and comes with its
analytic gradient with respect to the prediction; ``ft_bu_loss`` is the
same loss measured against boundary-uncertainty soft labels of a hard
mask, both at their defaults, and is the training loss of the stacking
meta-learner.

The mixed loss weighs structural dissimilarity against mean absolute
error: 0.84 * (1 - MS-SSIM) + 0.16 * MAE. MS-SSIM uses an 11x11
Gaussian window (sigma 1.5), 2x2 mean-pool downsampling, the usual five
scale weights (the first ``scales`` of them, renormalized), and
stabilizers C1 = (0.01 L)^2, C2 = (0.03 L)^2 with dynamic range L = 1;
uint8 inputs are rescaled by 1/255 to match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (check_int, check_nonempty, check_range, check_shape,
                     require_2d)
from .morpho import boundary_soft_labels

_SMOOTH = 1e-6
_SCALE_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_C1 = 0.01 ** 2
_C2 = 0.03 ** 2
# the 11-tap Gaussian of sigma 1.5
_WINDOW = np.exp(-np.arange(-5.0, 6.0) ** 2 / 4.5)
_WINDOW /= _WINDOW.sum()


@dataclass(frozen=True)
class TverskyConfig:
    fn_weight: float = 0.7
    focal_exponent: float = 0.75

    def __post_init__(self):
        check_range(self.fn_weight, "fn_weight", 0, 1)
        check_range(self.focal_exponent, "focal_exponent", 0, lo_open=True)


@dataclass(frozen=True)
class MixedLossConfig:
    scales: int = 5

    def __post_init__(self):
        check_int(self.scales, "scales", 1, len(_SCALE_WEIGHTS))


def _soft_counts(target, prediction):
    t = np.asarray(target, dtype=np.float64)
    p = np.asarray(prediction, dtype=np.float64)
    check_shape(t.shape, "target", p.shape, "prediction")
    check_nonempty(t, "target", "is empty")
    tp = float((t * p).sum())
    fn = float((t * (1.0 - p)).sum())
    fp = float(((1.0 - t) * p).sum())
    return tp, fn, fp


def tversky_index(target, prediction, fn_weight=0.7):
    check_range(fn_weight, "fn_weight", 0, 1)
    tp, fn, fp = _soft_counts(target, prediction)
    return (tp + _SMOOTH) / (tp + fn_weight * fn + (1.0 - fn_weight) * fp + _SMOOTH)


def dice_soft(target, prediction):
    # Tversky at fn_weight 0.5; identical to 2TP/(2TP+FP+FN) with the
    # stabilizer doubled, and bit-for-bit equal to tversky_index(0.5).
    return tversky_index(target, prediction, fn_weight=0.5)


def focal_tversky_loss(target, prediction, config=None):
    """(1 - TI) ** focal_exponent and its gradient w.r.t. the prediction.

    Returns (loss, grad) with grad a float64 array of the prediction's
    shape. At a perfect prediction the loss sits at its minimum and the
    gradient is reported as zero.
    """
    cfg = config or TverskyConfig()
    t = np.asarray(target, dtype=np.float64)
    p = np.asarray(prediction, dtype=np.float64)
    tp, fn, fp = _soft_counts(t, p)
    num = tp + _SMOOTH
    den = tp + cfg.fn_weight * fn + (1.0 - cfg.fn_weight) * fp + _SMOOTH
    ti = num / den
    base = 1.0 - ti
    if base <= 0.0:
        return 0.0, np.zeros_like(p)
    loss = base ** cfg.focal_exponent
    # d(TI)/dp_i = (t_i * den - num * (1 - fn_weight)) / den^2
    dti = (t * den - num * (1.0 - cfg.fn_weight)) / (den * den)
    grad = -cfg.focal_exponent * base ** (cfg.focal_exponent - 1.0) * dti
    return loss, grad


def ft_bu_loss(mask, prediction):
    """Focal Tversky loss against boundary-uncertainty soft labels, both
    at their defaults, of the hard {0,1} ``mask``; returns (loss, grad)
    like ``focal_tversky_loss``."""
    return focal_tversky_loss(boundary_soft_labels(mask), prediction)


# ---------------------------------------------------------------------------
# MS-SSIM and the mixed loss

def _unit_pair(a, b):
    """Two 2-D images of one shape as float64 in [0, 1]: uint8 scaled by
    1/255, any other dtype as it is."""
    x, y = require_2d(a, "a"), require_2d(b, "b")
    check_shape(x.shape, "a", y.shape, "b")
    return tuple(v.astype(np.float64) / 255.0 if v.dtype == np.uint8
                 else v.astype(np.float64) for v in (x, y))


def _filter_valid(img):
    k = _WINDOW.size
    t = np.lib.stride_tricks.sliding_window_view(img, k, axis=0) @ _WINDOW
    return np.lib.stride_tricks.sliding_window_view(t, k, axis=1) @ _WINDOW


def _ssim_maps(a, b):
    mu1 = _filter_valid(a)
    mu2 = _filter_valid(b)
    s11 = _filter_valid(a * a) - mu1 * mu1
    s22 = _filter_valid(b * b) - mu2 * mu2
    s12 = _filter_valid(a * b) - mu1 * mu2
    luminance = (2.0 * mu1 * mu2 + _C1) / (mu1 * mu1 + mu2 * mu2 + _C1)
    contrast = (2.0 * s12 + _C2) / (s11 + s22 + _C2)
    return luminance, contrast


def _halve(img):
    h, w = (img.shape[0] // 2) * 2, (img.shape[1] // 2) * 2
    return img[:h, :w].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def mean_absolute_error(a, b):
    x, y = _unit_pair(a, b)
    return float(np.abs(x - y).mean())


def msssim(a, b, config=None):
    """Multi-scale structural similarity in [0, 1]; 1.0 iff identical."""
    cfg = config or MixedLossConfig()
    x, y = _unit_pair(a, b)
    min_size = _WINDOW.size * 2 ** (cfg.scales - 1)
    if min(x.shape) < min_size:
        raise ValueError(
            f"image {x.shape} too small for {cfg.scales} scales with an "
            f"11x11 window; needs at least {min_size}x{min_size}")
    weights = list(_SCALE_WEIGHTS[:cfg.scales])
    if cfg.scales < len(_SCALE_WEIGHTS):
        total = sum(weights)
        weights = [w / total for w in weights]
    value = 1.0
    for level in range(cfg.scales):
        luminance, contrast = _ssim_maps(x, y)
        if level == cfg.scales - 1:
            factor = float((luminance * contrast).mean())
        else:
            factor = float(contrast.mean())
            x = _halve(x)
            y = _halve(y)
        value *= max(factor, 0.0) ** weights[level]
    return min(max(value, 0.0), 1.0)


def mixed_loss(a, b, config=None):
    """0.84 * (1 - MS-SSIM) + 0.16 * MAE."""
    return 0.84 * (1.0 - msssim(a, b, config)) + 0.16 * mean_absolute_error(a, b)
