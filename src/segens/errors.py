"""Exception types shared across the package, and one check per argument
contract: a real range, an integer, two shapes that must agree, an
array's rank with no 0-length dim, a {0, 1} mask and a probability map.

The CLI maps the exceptions onto stable exit codes: decode/IO problems
exit 2, shape mismatches exit 3, numeric failures exit 4, and plain
validation errors (``ValueError``) exit 1.
"""

import math
import operator

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions or channel counts."""


class DecodeError(ValueError):
    """A file could not be decoded.

    ``offset`` is the byte position at which decoding failed, when it is
    known: for failures that only surface after decompression, the first
    compressed chunk's. None where no byte is to blame, such as a model
    header whose JSON parses but describes the wrong network.
    """

    def __init__(self, message, offset=None, path=None):
        super().__init__(message)
        self.offset = offset
        self.path = path

    def __str__(self):  # read late, so a caller may still set the offset
        parts = [self.args[0]]
        if self.offset is not None:
            parts.append(f"at byte offset {self.offset}")
        if self.path is not None:
            parts.append(f"in {self.path}")
        return " ".join(parts)


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


def check_range(x, name, lo=-math.inf, hi=math.inf, lo_open=False,
                hi_open=False):
    """``x``, unless it is NaN, infinite or outside the range from ``lo``
    to ``hi``: then ValueError naming ``name`` and the range. Each bound
    is closed unless marked open; an infinite bound is always open."""
    # not math.isfinite, which overflows on an int past float range
    if not (-math.inf < x < math.inf and (lo < x if lo_open else lo <= x)
            and (x < hi if hi_open else x <= hi)):
        left = "(" if lo_open or math.isinf(lo) else "["
        right = ")" if hi_open or math.isinf(hi) else "]"
        raise ValueError(f"{name} must be in {left}{lo}, {hi}{right}, got {x}")
    return x


def check_int(x, name, lo=-math.inf, hi=math.inf):
    """``x`` as an int, unless it is not an integer (a float, even a whole
    one, or NaN: ValueError) or is outside [lo, hi] (as ``check_range``)."""
    try:
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    return check_range(x, name, lo, hi)


def check_shape(a, a_name, b, b_name):
    """ShapeMismatchError unless the shapes ``a`` and ``b`` are equal."""
    if a != b:
        raise ShapeMismatchError(f"{a_name} shape {a} != {b_name} shape {b}")


def _require_rank(x, name, ndim, form):
    """``x`` as an array; ShapeMismatchError unless it has ``ndim`` dims
    and none of them is 0-length. The last two dims are the spatial ones."""
    arr = np.asarray(x)
    if arr.ndim != ndim:
        raise ShapeMismatchError(f"{name} must be {form}, got shape {arr.shape}")
    if 0 in arr.shape:
        dim = "spatial" if 0 in arr.shape[-2:] else "channel"
        raise ShapeMismatchError(f"{name} has an empty {dim} dim, shape {arr.shape}")
    return arr


def require_2d(x, name):
    """``x`` as a non-empty 2-D array, else ShapeMismatchError."""
    return _require_rank(x, name, 2, "2-D")


def require_chw(x, name):
    """``x`` as a non-empty 3-D (C, H, W) array, else ShapeMismatchError."""
    return _require_rank(x, name, 3, "(channels, height, width)")


def as_binary(x, name):
    """A 2-D mask of any dtype as bool. ShapeMismatchError unless it is
    2-D, ValueError unless every value is 0 or 1."""
    arr = require_2d(x, name)
    mask = arr.astype(bool)
    if not np.array_equal(arr, mask):  # equal only where every value is 0 or 1
        raise ValueError(f"{name} must contain only 0/1 values (each pixel 0 or 1)")
    return mask


def check_probabilities(p, name, top=1):
    """Raise unless ``p`` is a non-empty array of finite numbers in [0, top].

    An empty array raises ShapeMismatchError, non-finite values
    NumericError, finite ones outside [0, top] ValueError. min and max
    propagate NaN, so they cover both value checks.
    """
    if p.size == 0:
        raise ShapeMismatchError(f"{name} is empty, shape {p.shape}")
    lo, hi = float(np.min(p)), float(np.max(p))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericError(f"{name} contains non-finite values")
    if lo < 0.0 or hi > top:
        raise ValueError(f"{name} has values outside [0, {top}]")
