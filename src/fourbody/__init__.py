"""Validated numerics for the planar circular restricted four-body problem.

The package certifies equilibria and their stable/unstable manifolds with
interval arithmetic, grows rigorous chart atlases by Taylor advection, and
proves the existence of energy-transverse homoclinic connections together
with transport-time lower bounds.
"""

__version__ = "0.1.0"

from .interval import (
    CInterval,
    Interval,
    IntervalMatrix,
    IntervalTensor3,
    IntervalVector,
    matrix_norm,
    matroid_norm,
    max_norm,
    verified_solve,
)

__all__ = [
    "CInterval",
    "Interval",
    "IntervalMatrix",
    "IntervalTensor3",
    "IntervalVector",
    "matrix_norm",
    "matroid_norm",
    "max_norm",
    "verified_solve",
    "__version__",
]
