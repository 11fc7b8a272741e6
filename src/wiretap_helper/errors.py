"""Exception types shared across the package."""

from __future__ import annotations


class ParameterError(ValueError):
    """The one type the package raises for a refused argument: an int that is
    not ``type(v) is int`` (a bool, 2.0), a number ``gaussian.to_fraction`` does
    not read, or a value outside its documented shape, range or domain."""
