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
    """A brute-force enumeration, or a complex above the degree cap, was
    refused before any work; .required holds what it needed."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required
