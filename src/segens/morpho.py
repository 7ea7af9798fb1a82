"""Grayscale/binary morphology and boundary-uncertainty soft labels.

Dilation takes, at each pixel, the maximum of X(x-i, y-j) + Y(i, j) over
the structuring element's support; erosion the minimum of
X(x+i, y+j) - Y(i, j). Samples falling outside the image are treated as
background (value 0), so erosion eats one border ring of an all-one mask
and dilation never hallucinates foreground from the border.

The soft-label transform relabels the one-element-wide rings around the
foreground boundary: the interior ring (mask minus its erosion) gets the
high label, the exterior ring (dilation minus the mask) the low label,
and everything else keeps its hard 0/1 value. With labels 1 and 0 the
transform reduces to the identity on hard masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, check_int
from .metrics import as_binary, require_2d


@dataclass(frozen=True)
class StructuringElement:
    """Additive structuring element centered on the origin.

    ``values`` holds the per-offset additive terms and ``support`` marks
    which offsets participate; both are (2a+1, 2b+1) with the origin at
    the center. The default is the flat (all-zero) full 3x3 element.
    """

    values: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        sup = np.asarray(self.support, dtype=bool)
        if vals.ndim != 2 or vals.shape != sup.shape:
            raise ShapeMismatchError(
                f"element values {vals.shape} and support {sup.shape} must be "
                "matching 2-D arrays")
        if vals.shape[0] % 2 == 0 or vals.shape[1] % 2 == 0:
            raise ValueError(f"element dims must be odd, got {vals.shape}")
        if not sup.any():
            raise ValueError("element support is empty")
        if not sup[vals.shape[0] // 2, vals.shape[1] // 2]:
            raise ValueError("element support must contain the origin")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support", sup)

    @classmethod
    def flat(cls, size=3):
        return cls(values=np.zeros((size, size)),
                   support=np.ones((size, size), dtype=bool))


_FLAT3 = StructuringElement.flat(3)


def _morph(x, element, iterations, op):
    arr = require_2d(x, "image")
    check_int(iterations, "iterations", 1)
    a = element.values.shape[0] // 2
    b = element.values.shape[1] // 2
    h, w = arr.shape
    offsets = [(i - a, j - b) for i in range(2 * a + 1) for j in range(2 * b + 1)
               if element.support[i, j]]
    cur = arr.astype(np.float64)
    for _ in range(iterations):
        padded = np.zeros((h + 2 * a, w + 2 * b), dtype=np.float64)
        padded[a:a + h, b:b + w] = cur
        out = None
        for di, dj in offsets:
            y = element.values[di + a, dj + b]
            if op == "dilate":
                # sample X(x - i, y - j), add Y(i, j)
                cand = padded[a - di:a - di + h, b - dj:b - dj + w] + y
                out = cand if out is None else np.maximum(out, cand)
            else:
                # sample X(x + i, y + j), subtract Y(i, j)
                cand = padded[a + di:a + di + h, b + dj:b + dj + w] - y
                out = cand if out is None else np.minimum(out, cand)
        cur = out
    if arr.dtype == np.uint8:
        return np.clip(np.rint(cur), 0, 255).astype(np.uint8)
    if arr.dtype == bool:
        return cur > 0.5
    return cur


def dilate(x, element=None, iterations=1):
    """n-fold grayscale dilation; on binary masks with the flat 3x3
    element this is the 8-neighborhood union."""
    return _morph(x, element or _FLAT3, iterations, "dilate")


def erode(x, element=None, iterations=1):
    """n-fold grayscale erosion; a binary pixel survives only if its whole
    neighborhood (restricted to the image) is foreground."""
    return _morph(x, element or _FLAT3, iterations, "erode")


@dataclass(frozen=True)
class BoundaryUncertaintyConfig:
    """Soft-label parameters: interior-ring and exterior-ring labels,
    ring width in morphology iterations, and the structuring element."""

    interior_label: float = 0.9
    exterior_label: float = 0.1
    iterations: int = 1
    element: StructuringElement = field(default_factory=lambda: _FLAT3)

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
    grown = dilate(m, cfg.element, cfg.iterations)
    kept = erode(m, cfg.element, cfg.iterations)
    out = np.zeros(m.shape, dtype=np.float32)
    out[m] = 1.0
    out[m & ~kept] = np.float32(cfg.interior_label)
    out[grown & ~m] = np.float32(cfg.exterior_label)
    return out
