"""Exception types shared across the package."""

from __future__ import annotations


class ParameterError(ValueError):
    """The one type the package raises for a refused argument: a value that
    is no number, or one outside its documented shape, range or domain."""


class SingularCaseError(ParameterError):
    """No alignment scheme exists for this instance (equal direct and helper gains).

    Callers that need a scheme anyway should fall back to the private-only
    allocation, whose rate is the private rate of the instance.
    """
