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
