"""Linear deterministic channel model over GF(2) bit-vectors.

Signals are length-q bit-vectors stored as Python ints, where q is the
largest channel gain of the instance.  Bit i holds level i + 1, and level 1
is the most significant level of the signal.  A gain of n bit-levels acts
as a downward shift by q - n levels: bits shifted past level q fall below
the noise floor and are truncated, vacated top levels are zero.
Superposition is carry-free XOR per level.

Level sets are bitsets in the same convention, and linear maps are tuples
of them, one per column, whose rank is found by Gaussian elimination.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import ParameterError


class _Gains(NamedTuple):
    n11: int
    n21: int
    n2: int


class ChannelParams(_Gains):
    """Deterministic gain triple; the eavesdropper hears both senders at ``n2``."""

    __slots__ = ()

    def __new__(cls, n11: int, n21: int, n2: int) -> ChannelParams:
        for name, v in zip(cls._fields, (n11, n21, n2)):
            if type(v) is not int or v < 0:
                raise ParameterError(f"{name} must be a nonnegative integer, got {v!r}")
        return tuple.__new__(cls, (n11, n21, n2))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> ChannelParams:
        # ``_replace`` builds through ``_make``, so neither skips the checks
        return cls(*iterable)

    @property
    def q(self) -> int:
        """Ambient vector length: the largest gain of the instance."""
        return max(self.n11, self.n21, self.n2)

    @property
    def delta(self) -> int:
        """Gain offset between the direct and helper links at the legitimate receiver."""
        return abs(self.n11 - self.n21)


def even_blocks(width: int, n: int) -> int:
    """Levels 1..n in the even-indexed blocks of ``width`` levels counted
    from level 1 (blocks 0, 2, 4, ...): 2^width - 1 times a geometric
    series of stride 2 * width, in O(1) big-int operations (width > 0)."""
    period = 2 * width
    series = ((1 << period * -(-n // period)) - 1) // ((1 << period) - 1)
    return ((1 << width) - 1) * series & (1 << n) - 1


def ldm_channel(x1: int, x2: int, p: ChannelParams) -> tuple[int, int]:
    """One deterministic channel use on length-q bitsets: returns (y1, y2).

    y1 sees the user at gain n11 and the helper at gain n21; y2 sees both
    at the common eavesdropper gain n2.
    """
    n11, n21, n2 = p
    q = n11 if n11 > n21 else n21
    if n2 > q:
        q = n2
    if type(x1) is not int or type(x2) is not int or x1 < 0 or x2 < 0 or (x1 | x2) >> q:
        raise ParameterError(f"channel inputs must be bitsets of length q={q}")
    full = (1 << q) - 1
    return ((x1 << q - n11) ^ (x2 << q - n21)) & full, ((x1 ^ x2) << q - n2) & full


def _added_rank(base: Iterable[int], extra: Iterable[int]) -> int:
    """rank([base | extra]) - rank(base) over GF(2), by one greedy elimination:
    the pivots found after the columns of ``base`` count the rank ``extra`` adds.
    A step is one ``setdefault``, which returns v itself when v becomes a new
    pivot or already is one (and would reduce to zero): either way v is done."""
    pivots: dict[int, int] = {}  # leading bit -> reduced column
    for v in base:
        while v:
            p = pivots.setdefault(v.bit_length() - 1, v)
            if p is v:
                break
            v ^= p
    base_rank = len(pivots)
    for v in extra:
        while v:
            p = pivots.setdefault(v.bit_length() - 1, v)
            if p is v:
                break
            v ^= p
    return len(pivots) - base_rank
