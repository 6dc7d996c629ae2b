"""Standard-normal quantiles for confidence-interval arithmetic.

All z-scores in the package come through here so that arbitrary confidence
levels work and nothing hard-codes 1.96.
"""

from __future__ import annotations

import math
from statistics import NormalDist

_STD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF, accurate to well below 1e-10.

    Delegates to the stdlib rational approximation (Wichura-class accuracy).
    """
    if not math.isfinite(p) or not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must lie in (0, 1), got {p!r}")
    return _STD_NORMAL.inv_cdf(p)


def z_for_level(level: float) -> float:
    """Two-sided critical value for a confidence level in (0, 1) whose z is positive."""
    # below about 1.1e-16, (1 + level) / 2 rounds to 1/2: z = 0, an interval of no width
    if not math.isfinite(level) or not 0.0 < level < 1.0 or (1.0 + level) / 2.0 == 0.5:
        raise ValueError(f"confidence level (ci_level) must lie in (0, 1) with a positive z, got {level!r}")
    return normal_quantile((1.0 + level) / 2.0)
