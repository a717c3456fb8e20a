"""Exception types raised by validation and truncation guards."""


class NonPositiveDefiniteError(ValueError):
    """A covariance matrix has an eigenvalue at or below the positivity floor."""


class AsymmetricInputError(ValueError):
    """A matrix that must be symmetric is not, beyond the relative tolerance."""


class UnphysicalStateError(ValueError):
    """A covariance matrix violates the uncertainty bound (min symplectic eigenvalue < 1)."""


class MixedStateError(ValueError):
    """A quantity defined only for pure states was asked of a mixed state."""


class TruncationError(ValueError):
    """A Fock-space cutoff leaves more probability mass in the tail than allowed."""


class CutoffOverflowError(ValueError):
    """An operation would scatter amplitude beyond the stored Fock cutoffs.

    Also raised for cutoffs whose dense amplitude tensor would exceed the
    byte budget ``fock.AMPLITUDE_BUDGET_BYTES``.
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
