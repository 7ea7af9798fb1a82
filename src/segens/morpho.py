"""Grayscale/binary morphology and boundary-uncertainty soft labels.

Dilation takes, at each pixel, the maximum of X(x-i, y-j) over the flat
structuring element's support; erosion the minimum of X(x+i, y+j).
Samples falling outside the image are treated as background (value 0),
so erosion eats one border ring of an all-one mask and dilation never
hallucinates foreground from the border.

The soft-label transform relabels the one-element-wide rings around the
foreground boundary: the interior ring (mask minus its erosion) gets the
high label, the exterior ring (dilation minus the mask) the low label,
and everything else keeps its hard 0/1 value. With labels 1 and 0 the
transform reduces to the identity on hard masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, check_int
from .metrics import as_binary, require_2d


@dataclass(frozen=True)
class StructuringElement:
    """Flat structuring element centered on the origin.

    ``support`` marks which offsets participate; it is (2a+1, 2b+1) with
    the origin at the center.
    """

    support: np.ndarray

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=bool)
        if sup.ndim != 2:
            raise ShapeMismatchError(
                f"element support must be a 2-D array, got shape {sup.shape}")
        if sup.shape[0] % 2 == 0 or sup.shape[1] % 2 == 0:
            raise ValueError(f"element dims must be odd, got {sup.shape}")
        if not sup.any():
            raise ValueError("element support is empty")
        if not sup[sup.shape[0] // 2, sup.shape[1] // 2]:
            raise ValueError("element support must contain the origin")
        object.__setattr__(self, "support", sup)

    @classmethod
    def flat(cls, size=3):
        return cls(np.ones((size, size), dtype=bool))


_FLAT3 = StructuringElement.flat(3)


def _morph(x, support, iterations, reduce):
    """``reduce`` (np.maximum or np.minimum) over the views X(x+i, y+j) of
    the offsets (i, j) in ``support``, ``iterations`` times. Flat results
    are exact, so uint8 and bool inputs keep their dtype; any other is
    computed in float64."""
    arr = require_2d(x, "image")
    check_int(iterations, "iterations", 1)
    a, b = support.shape[0] // 2, support.shape[1] // 2
    h, w = arr.shape
    cur = arr if arr.dtype in (np.uint8, bool) else arr.astype(np.float64)
    for _ in range(iterations):
        padded = np.zeros((h + 2 * a, w + 2 * b), cur.dtype)
        padded[a:a + h, b:b + w] = cur
        cur = None
        for i, j in np.argwhere(support):
            view = padded[i:i + h, j:j + w]
            cur = view.copy() if cur is None else reduce(cur, view, out=cur)
    return cur


def dilate(x, element=None, iterations=1):
    """n-fold grayscale dilation; on binary masks with the flat 3x3
    element this is the 8-neighborhood union."""
    # X(x - i, y - j) is X(x + i, y + j) over the reflected support
    return _morph(x, (element or _FLAT3).support[::-1, ::-1], iterations,
                  np.maximum)


def erode(x, element=None, iterations=1):
    """n-fold grayscale erosion; a binary pixel survives only if its whole
    neighborhood (restricted to the image) is foreground."""
    return _morph(x, (element or _FLAT3).support, iterations, np.minimum)


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
