"""Exception types used across the package."""


class MtidentError(Exception):
    """Base class for all package-specific errors."""


class ModelError(MtidentError):
    """A system matrix or noise model violates its contract.

    Raised for dimension mismatches, a non-symmetric-positive-definite
    measurement covariance, or an indefinite process/prior covariance.
    """


class AttackSetError(MtidentError):
    """Attacked-sensor indices are out of range or repeated."""


class ConfigError(MtidentError):
    """A scenario configuration file or dictionary is invalid."""


class ConditioningError(MtidentError):
    """A numerical decision (rank, eigenvalue clustering, the size of a
    generalized eigenspace) could not be made reliably at the current
    tolerances."""


class DegenerateWitnessError(MtidentError):
    """A cross-model attack was requested where no witness exists, or a
    witness's output sequences disagree between the two models."""


class DecompositionError(MtidentError):
    """Per-sensor observability decomposition failed: the sensor's
    unobservable subspace differs between models, or a reduced pair is
    unobservable, or fusion would lose joint observability."""


class FilterError(MtidentError):
    """A filtering or fusion step lost positive definiteness."""
