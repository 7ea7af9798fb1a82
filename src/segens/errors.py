"""Exception types shared across the package.

The CLI maps these onto stable exit codes: decode/IO problems exit 2,
shape mismatches exit 3, numeric failures exit 4, and plain validation
errors (``ValueError``) exit 1.
"""

import math


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions or channel counts."""


class DecodeError(ValueError):
    """A file could not be decoded.

    ``offset`` is the byte position at which decoding failed, when it is
    known (None for failures that only surface after decompression).
    """

    def __init__(self, message, offset=None, path=None):
        self.offset = offset
        self.path = path
        parts = [message]
        if offset is not None:
            parts.append(f"at byte offset {offset}")
        if path is not None:
            parts.append(f"in {path}")
        super().__init__(" ".join(parts))


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


def check_range(x, name, lo=-math.inf, hi=math.inf, lo_open=False,
                hi_open=False):
    """``x``, unless it is NaN, infinite or outside the range from ``lo``
    to ``hi``: then ValueError naming ``name`` and the range. Each bound
    is closed unless marked open; an infinite bound is always open."""
    if not (math.isfinite(x) and (lo < x if lo_open else lo <= x)
            and (x < hi if hi_open else x <= hi)):
        left = "(" if lo_open or math.isinf(lo) else "["
        right = ")" if hi_open or math.isinf(hi) else "]"
        raise ValueError(f"{name} must be in {left}{lo}, {hi}{right}, got {x}")
    return x
