"""Converse bounds on the secrecy rate, kept as exact rationals.

The three bounds hold for every coding scheme on the deterministic model
with symmetric eavesdropper gains.  The Gaussian variant is the same
triple shifted by a configurable constant; this package makes no claim
about the constant's value and defaults it to zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError
from .gaussian import to_fraction
from .ldm import ChannelParams


class UpperBounds(NamedTuple):
    ub1: Fraction
    ub2: Fraction
    ub3: Fraction

    @property
    def min_ub(self) -> Fraction:
        return min(self.ub1, self.ub2, self.ub3)


def _doubled_bounds(n11: int, n21: int, n2: int) -> tuple[int, int, int]:
    """Twice the three converse bounds of a gain triple, as integers."""
    # each (x)^+ is written out inline: this runs once per verified instance
    rp = n11 - n2 if n11 > n2 else 0
    u = n2 - n11 + n21 if n2 + n21 > n11 else 0  # (n2 - n11 + n21)^+
    return (
        rp + (n11 if n11 > n21 else n21) + (n2 - n21 if n2 > n21 else 0),
        2 * n11,
        2 * (n21 + (n11 - n21 - n2 if n11 > n21 + n2 else 0)
             + (n2 - n21 - u if n2 - n21 > u else 0)),
    )


def upper_bounds(p: ChannelParams) -> UpperBounds:
    """Evaluate the three converse bounds for a deterministic instance."""
    return UpperBounds(*(Fraction(x, 2) for x in _doubled_bounds(p.n11, p.n21, p.n2)))


def gaussian_upper_bounds(p: ChannelParams, c: Fraction | float | int = 0) -> UpperBounds:
    """Deterministic bounds plus the constant-gap term c (c >= 0), read
    exactly by ``to_fraction``: a float c = 0.1 means 1/10."""
    cn, cd = to_fraction(c).as_integer_ratio()
    if cn < 0:
        raise ParameterError("the gap constant c must be nonnegative")
    return UpperBounds(*(Fraction(x * cd + 2 * cn, 2 * cd)
                         for x in _doubled_bounds(p.n11, p.n21, p.n2)))
