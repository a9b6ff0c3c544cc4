"""Exception types shared across the package.

The CLI maps these onto its exit codes: UsageError -> 2,
InvalidComplexError -> 3, GuardExceeded -> 4.
"""


class ChaincellError(Exception):
    pass


class UsageError(ChaincellError, ValueError):
    """Caller broke a contract: mismatched rings, bad shapes, bad arguments."""


class DomainError(ChaincellError, ValueError):
    """Input outside the mathematical domain of the operation."""


class InvalidComplexError(ChaincellError, ValueError):
    """A complex (or file describing one) fails validation."""


class GuardExceeded(ChaincellError, RuntimeError):
    """A brute-force enumeration, or a complex above the degree or cell cap,
    was refused before any work; .required holds what it needed.  A
    count above ``complexes.EXACT_REQUIRED`` (2**64) is never built:
    .required is then None, and the message gives the count as a power
    of |R|, such as ``4^7225``."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required
