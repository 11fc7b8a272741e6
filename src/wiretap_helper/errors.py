"""Exception types shared across the package."""

from __future__ import annotations


class ParameterError(ValueError):
    """An argument violates a documented precondition (shape, range, domain)."""


class SingularCaseError(ValueError):
    """No alignment scheme exists for this instance (equal direct and helper gains).

    Callers that need a scheme anyway should fall back to the private-only
    allocation, whose rate is the private rate of the instance.
    """


class ContractError(RuntimeError):
    """An operation was invoked on an object that fails its required contract."""
