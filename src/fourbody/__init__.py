"""Validated numerics for the planar circular restricted four-body problem.

The package certifies a saddle-focus equilibrium and its stable and
unstable local manifolds with interval arithmetic, and extends the
manifolds into atlases of Taylor-advected charts, each with a validated
tail.  It does not yet prove homoclinic connections or transport-time
bounds; that step, which matches charts of the two manifolds on an
energy level, is planned next.
"""

__version__ = "0.1.0"

from .interval import (
    CInterval,
    Interval,
    IntervalArray,
    matrix_norm,
    verified_solve,
)

__all__ = [
    "CInterval",
    "Interval",
    "IntervalArray",
    "matrix_norm",
    "verified_solve",
    "__version__",
]
