"""Exception types used across the package.

A library function given an argument outside its contract (a window below
one, an alpha outside (0, 1), an empty schedule) raises the
built-in ``ValueError``, as numpy and scipy do. A scenario configuration or a
CLI argument that is wrong raises :class:`ConfigError`; the config reader
turns the ``ValueError`` of a malformed matrix file into one. The classes
below are the package's own failures, all under :class:`MtidentError`.
"""


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
    """A filtering or fusion step lost positive definiteness, or a run's
    outputs are not finite: the plant or the attack overflowed doubles."""
