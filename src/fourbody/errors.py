"""Exception types shared across the package.

Collected in one module so that numeric modules can raise them without
importing each other, and so the CLI can map them onto exit codes in one
place.
"""


class FourbodyError(Exception):
    """Base class for all package-specific errors."""


# interval arithmetic

class DivisionByZeroInterval(FourbodyError):
    """Divisor interval contains zero."""


class NegativeSqrt(FourbodyError):
    """Square root of an interval with negative lower bound."""


class SingularEnclosure(FourbodyError):
    """Verified linear solve could not certify regularity of the matrix."""


# model evaluation

class DegenerateMasses(FourbodyError):
    """Mass triple violates ordering/normalization invariants."""


class CollisionDomain(FourbodyError):
    """Evaluation region comes too close to a primary."""


class NotSaddleFocus(FourbodyError):
    """Linearization does not certify a complex eigenvalue quadruplet."""


class DegenerateEigvec(FourbodyError):
    """Eigenvector formula denominator encloses zero."""


# manifolds and atlases

class SymmetryViolation(FourbodyError):
    """Imaginary part of a real-chart evaluation excludes zero."""


class TangencyDetected(FourbodyError):
    """Boundary arc tangency test failed (enclosure contains zero)."""


class SubdivisionLimit(FourbodyError):
    """Remeshing exceeded the maximum subdivision depth."""


class SchemaVersionMismatch(FourbodyError):
    """Persisted atlas file carries an unsupported schema version."""


class FingerprintMismatch(FourbodyError):
    """Artifact was produced under a different pipeline configuration."""


class DomainExceeded(FourbodyError):
    """Requested evaluation box exits the validated domain."""


class NewtonDiverged(FourbodyError):
    """Non-rigorous Newton refinement failed to converge."""


class StepFailure(FourbodyError):
    """Reference integrator could not complete the requested span."""
