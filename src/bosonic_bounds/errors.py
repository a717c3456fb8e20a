"""Exception types raised by validation and truncation guards."""

__all__ = [
    "NonPositiveDefiniteError",
    "AsymmetricInputError",
    "CovarianceOverflowError",
    "UnphysicalStateError",
    "MixedStateError",
    "TruncationError",
    "CutoffOverflowError",
    "SchemaError",
    "AuditViolationError",
]


class NonPositiveDefiniteError(ValueError):
    """A covariance matrix has an eigenvalue at or below the positivity floor."""


class AsymmetricInputError(ValueError):
    """A matrix that must be symmetric is not, beyond the relative tolerance."""


class CovarianceOverflowError(ValueError):
    """A covariance matrix cannot be symmetrized in float64: V + V^T overflows.

    The message names the largest entry magnitude; rescaling the covariance
    brings it back into range.
    """


class UnphysicalStateError(ValueError):
    """A covariance matrix violates the uncertainty bound (min symplectic eigenvalue < 1)."""


class MixedStateError(ValueError):
    """A quantity defined only for pure states was asked of a mixed state."""


class TruncationError(ValueError):
    """A Fock-space cutoff leaves more probability mass in the tail than allowed."""


class CutoffOverflowError(ValueError):
    """No Fock cutoff fits: the tensor a state needs is over the byte budget.

    Raised before allocating a dense amplitude tensor or density matrix
    larger than ``fock.AMPLITUDE_BUDGET_BYTES``, and by a family's default
    cutoff search when its tail never falls below 1 ("no finite cutoff").
    """


class SchemaError(ValueError):
    """A serialized state file is malformed.

    The message names the offending field.
    """


class AuditViolationError(RuntimeError):
    """A randomized audit found a bound violation.

    Carries the seed and the offending instance so the failure is reproducible.
    """

    def __init__(self, message, seed=None, instance=None):
        super().__init__(message)
        self.seed = seed
        self.instance = instance
