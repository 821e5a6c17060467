"""Exception types shared across the package."""


class MseqCorrError(Exception):
    """Base class for all package-specific errors."""


class CompositeP(MseqCorrError, ValueError):
    """The claimed characteristic p is not prime."""


class FactorizationFailure(MseqCorrError, RuntimeError):
    """p^n - 1 could not be factored within the iteration budget."""


class NotASubfield(MseqCorrError, ValueError):
    """Relative trace requested onto GF(p^m) with m not dividing n."""


class OddDegree(MseqCorrError, ValueError):
    """Operation requires an even extension degree n = 2m."""


class ZeroState(MseqCorrError, ValueError):
    """LFSR started from the all-zero state."""


class NotCoprime(MseqCorrError, ValueError):
    """Decimation d shares a factor with the period p^n - 1."""


class NotInvertible(MseqCorrError, ValueError):
    """Denominator of a fractional decimation is not invertible."""


class Budget(MseqCorrError, ValueError):
    """A size limit: a field, table or enumeration exceeds its bound."""


class OutOfDomain(MseqCorrError, ValueError):
    """Parameters outside a domain: a family's predicate, or a degree n < 1."""

    def __init__(self, constraint: str):
        super().__init__(constraint)
        self.constraint = constraint


class MethodInapplicable(MseqCorrError, ValueError):
    """Coset decomposition congruence fails for every Frobenius twist."""


class ConditionViolated(MseqCorrError, ValueError):
    """d !≡ 1 (mod p-1): code weights are not determined by one Walsh value."""
