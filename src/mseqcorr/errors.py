"""Exception types shared across the package.

There are two, and the CLI maps both to exit code 2 (usage error):
`OutOfDomain` when an argument is outside what a function accepts, and
`Budget` when a size limit is hit.  Any other exception is a
bug, and the CLI reports it as an internal error (exit code 3).
"""


class MseqCorrError(Exception):
    """Base class for all package-specific errors."""


class OutOfDomain(MseqCorrError, ValueError):
    """An argument is outside what the function accepts: a composite p, a
    degree n < 1 or of the wrong parity, a decimation not coprime to
    p^n - 1, a family's predicate, an unknown name, an unparsable number."""


class Budget(MseqCorrError, ValueError):
    """A size limit: a field, table or enumeration exceeds its bound, or a
    number to factor (p^n - 1 among them) exceeds `gf.MAX_POLY_ORDER` =
    2^40, the bound of trial division."""
