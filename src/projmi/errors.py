"""Exception types used across the package."""


class ProjmiError(Exception):
    """Base class for every package-specific error. The CLI exits 2 on a
    UsageError and 3 (numeric failure) on every other one."""


class UsageError(ProjmiError):
    """Malformed or out-of-range input: a state, a spec, a flag or a file."""


class ValidationError(UsageError):
    """A claimed density matrix violates one of its invariants."""


class NotHermitian(ValidationError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class NotPositive(ValidationError):
    """Matrix has an eigenvalue below the negative tolerance."""


class TraceNotOne(ValidationError):
    """Matrix trace differs from 1 beyond tolerance."""


class DimensionMismatch(UsageError):
    """Operands have incompatible shapes or subsystem dimensions."""


class ZeroVector(UsageError):
    """A (near-)zero vector cannot define a projective point."""


class InvalidFrame(UsageError):
    """Points of a frame are not mutually orthogonal."""


class BaseMismatch(UsageError):
    """Tangent vectors are not based at the expected projective point."""


class UnknownFamily(UsageError):
    """State-family spec names a family that does not exist."""


class BadParameter(UsageError):
    """A parameter is out of range or malformed."""


class EigenDecompositionFailure(ProjmiError):
    """numpy failed to diagonalize a matrix."""


class NonFiniteSample(ProjmiError):
    """An integrand returned NaN or infinity; skipping would bias the mean."""


class MarginalZeroAnomaly(ProjmiError):
    """Joint density positive where a marginal vanishes; impossible, so a bug."""


class ReconstructionOutOfTolerance(ProjmiError):
    """Moment-based operator reconstruction failed relaxed validation."""
