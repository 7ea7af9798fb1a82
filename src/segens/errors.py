"""Exception types shared across the package.

The CLI maps these onto stable exit codes: decode/IO problems exit 2,
shape mismatches exit 3, numeric failures exit 4, and plain validation
errors (``ValueError``) exit 1.
"""

import math
import operator


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
