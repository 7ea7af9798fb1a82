"""Grayscale/binary morphology and boundary-uncertainty soft labels.

Dilation takes, at each pixel, the maximum over its 3x3 neighborhood
(the flat 3x3 structuring element, which is its own reflection); erosion
the minimum. Samples falling outside the image are treated as background
(value 0), so erosion eats one border ring of an all-one mask and
dilation never hallucinates foreground from the border.

The soft-label transform relabels the one-element-wide rings around the
foreground boundary: the interior ring (mask minus its erosion) gets the
high label, the exterior ring (dilation minus the mask) the low label,
and everything else keeps its hard 0/1 value. With labels 1 and 0 the
transform reduces to the identity on hard masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import as_binary, check_int, require_2d


def _morph(x, iterations, reduce):
    """``reduce`` (np.maximum or np.minimum) over the nine views
    X(x+i, y+j), |i|, |j| <= 1, ``iterations`` times. Flat results are
    exact, so uint8 and bool inputs keep their dtype; any other is
    computed in float64."""
    arr = require_2d(x, "image")
    check_int(iterations, "iterations", 1)
    h, w = arr.shape
    cur = arr if arr.dtype in (np.uint8, bool) else arr.astype(np.float64)
    for _ in range(iterations):
        padded = np.zeros((h + 2, w + 2), cur.dtype)
        padded[1:1 + h, 1:1 + w] = cur
        cur = padded[:h, :w].copy()
        for k in range(1, 9):
            i, j = divmod(k, 3)
            reduce(cur, padded[i:i + h, j:j + w], out=cur)
    return cur


def dilate(x, iterations=1):
    """n-fold grayscale dilation; on binary masks this is the
    8-neighborhood union."""
    return _morph(x, iterations, np.maximum)


def erode(x, iterations=1):
    """n-fold grayscale erosion; a binary pixel survives only if its whole
    neighborhood (restricted to the image) is foreground."""
    return _morph(x, iterations, np.minimum)


@dataclass(frozen=True)
class BoundaryUncertaintyConfig:
    """Soft-label parameters: interior-ring and exterior-ring labels and
    the ring width in iterations of the flat 3x3 element."""

    interior_label: float = 0.9
    exterior_label: float = 0.1
    iterations: int = 1

    def __post_init__(self):
        if not 0.0 <= self.exterior_label <= self.interior_label <= 1.0:
            raise ValueError(
                "labels must satisfy 0 <= exterior <= interior <= 1, got "
                f"exterior={self.exterior_label}, interior={self.interior_label}")
        check_int(self.iterations, "iterations", 1)


def boundary_soft_labels(mask, config=None):
    """Turn a hard {0,1} mask into boundary-aware soft labels (float32).

    Output values are drawn from {0, exterior_label, interior_label, 1}:
    deep interior stays 1, far background stays 0.
    """
    cfg = config or BoundaryUncertaintyConfig()
    m = as_binary(mask, "mask")
    grown = dilate(m, iterations=cfg.iterations)
    kept = erode(m, iterations=cfg.iterations)
    out = np.zeros(m.shape, dtype=np.float32)
    out[m] = 1.0
    out[m & ~kept] = np.float32(cfg.interior_label)
    out[grown & ~m] = np.float32(cfg.exterior_label)
    return out
