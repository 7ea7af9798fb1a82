"""Binomial confidence intervals and p-values recovered from intervals.

Two interval constructions are provided and every result carries a
method tag, because published tables sometimes label symmetric
normal-approximation intervals as exact ones:

* ``wald_ci``: p_hat +/- z * sqrt(p_hat (1 - p_hat) / n), clamped to
  [0, 1], with z the standard-normal quantile for the level
  (1.959964 at 95%).
* ``clopper_pearson_ci``: the exact interval from beta-distribution
  quantiles, lower = BetaInv(alpha/2; k, n-k+1) and
  upper = BetaInv(1-alpha/2; k+1, n-k), with lower = 0 at k = 0 and
  upper = 1 at k = n. Fractional success counts are accepted so that
  proportion-like scores (a Dice score times n) can be fed directly.

The beta quantile is found by bisection, to within 1e-15 and 1e-13 of
the endpoint, so a lower endpoint of 4.9e-51 keeps 13 digits. It bisects
the regularized incomplete beta function's continued-fraction expansion,
which needs more terms as n grows: past about 3e8 trials its 300 terms
no longer converge near the quantiles (at p = 0.5 the interval comes out
inverted), and its prefactor lgamma(a) + lgamma(b) - lgamma(a + b) loses
all precision near 1e16. So ``clopper_pearson_ci`` takes at most
``MAX_TRIALS`` = 1e8 trials, where both endpoints agree with an
independent beta quantile to 1e-7 of the interval's width.

``p_from_ci`` recovers a two-sided p-value from a 95% interval via
SE = (upper - lower) / (2 * 1.96), z = |estimate| / SE, and the
approximation p = exp(-0.717 z - 0.416 z^2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from statistics import NormalDist

from .errors import check_range

MAX_TRIALS = 1e8  # clopper_pearson_ci's cap on n; see the module docstring


@dataclass(frozen=True)
class Interval:
    estimate: float
    lower: float
    upper: float
    level: float
    n: float
    method: str

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.estimate <= self.upper <= 1.0:
            raise ValueError(
                f"interval out of order: lower={self.lower}, "
                f"estimate={self.estimate}, upper={self.upper}")

    def to_dict(self):
        return asdict(self)


def check_trials(n):
    """``n``, unless it is below 1 or past float range, where the interval
    arithmetic would overflow: then ValueError naming ``n``."""
    return check_range(n, "n", 1, sys.float_info.max)


def wald_ci(p_hat, n, level=0.95):
    check_range(level, "level", 0, 1, lo_open=True, hi_open=True)
    check_range(p_hat, "proportion", 0, 1)
    check_trials(n)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return Interval(estimate=p_hat, lower=max(0.0, p_hat - half),
                    upper=min(1.0, p_hat + half), level=level, n=n,
                    method="wald")


# ---------------------------------------------------------------------------
# Regularized incomplete beta and its quantile

def _beta_cf(x, a, b):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even coefficient d_2m, then the odd d_2m+1, each one Lentz step
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:  # the odd step's
            break
    return h


def regularized_incomplete_beta(x, a, b):
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    check_range(a, "a", 0, lo_open=True)
    check_range(b, "b", 0, lo_open=True)
    check_range(x, "x", 0, 1)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x)
                     - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def beta_quantile(q, a, b):
    """Smallest x with I_x(a, b) >= q, by bisection; 0 below the subnormals."""
    check_range(q, "q", 0, 1)
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(1100):  # enough halvings to reach the subnormals
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(mid, a, b) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 and hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def clopper_pearson_ci(successes, n, level=0.95):
    check_range(level, "level", 0, 1, lo_open=True, hi_open=True)
    check_range(n, "n", 1, MAX_TRIALS)
    check_range(successes, "successes", 0, n)
    alpha = 1.0 - level
    if successes <= 0.0:
        lower = 0.0
    else:
        lower = beta_quantile(alpha / 2.0, successes, n - successes + 1.0)
    if successes >= n:
        upper = 1.0
    else:
        upper = beta_quantile(1.0 - alpha / 2.0, successes + 1.0, n - successes)
    return Interval(estimate=successes / n, lower=lower, upper=upper,
                    level=level, n=n, method="clopper-pearson")


# ---------------------------------------------------------------------------
# p-values from confidence intervals

def _p_from_z(z):
    return math.exp(-0.717 * z - 0.416 * z * z)


def _se_from_ci(lower, upper):
    """Standard error implied by a 95% interval: its width / (2 * 1.96)."""
    width = check_range(upper - lower, "interval width", 0, lo_open=True)
    return width / (2.0 * 1.96)


def p_from_ci(estimate, lower, upper):
    """Two-sided p-value for estimate != 0 given its 95% interval."""
    check_range(estimate, "estimate")
    return _p_from_z(abs(estimate) / _se_from_ci(lower, upper))


def dice_difference_test(interval_a, interval_b):
    """p-value for a difference of two scores given their 95% intervals."""
    se = math.hypot(_se_from_ci(interval_a.lower, interval_a.upper),
                    _se_from_ci(interval_b.lower, interval_b.upper))
    return _p_from_z(abs(interval_a.estimate - interval_b.estimate) / se)
