"""Numerical tolerances shared across the package.

``NORM_ATOL`` bounds roundoff in algebraic identities (unit norms, codec
round-trips, simulator equivalences).  ``VERIFY_ATOL`` is the looser default
for end-to-end checks that a synthesized circuit prepares its target state.
``PRUNE_ATOL`` is the default pruning threshold, in radians, of ``synth``,
``synth_angles`` and ``ryprep synth --prune-tol``.
"""

import math

from .errors import DomainError

NORM_ATOL = 1e-12
VERIFY_ATOL = 1e-9
PRUNE_ATOL = 1e-12


def check_tol(value: float, name: str) -> None:
    """Refuse a tolerance that is NaN, infinite or negative.

    Every comparison with NaN is false and every finite value is below inf,
    so either would silently accept, or drop, everything it is compared with.
    """
    if not (value >= 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be finite and nonnegative, got {value}")
