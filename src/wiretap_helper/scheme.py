"""Achievable secrecy rates and the partition-aligned jamming scheme.

The achievable rate of an instance splits into a private part (user levels
below the eavesdropper's noise floor, secure for free) and a common part
that must be protected by helper jamming.  The common part is organized in
partitions of delta = |n11 - n21| consecutive levels counted from the top.
Because both signals reach the eavesdropper at the same gain, jamming the
same level indices the message occupies erases it there exactly, while at
the legitimate receiver the delta offset pushes the jam onto the unused
partitions in between.

Three regimes arise from the helper-to-direct gain ratio: a weak helper
(ratio below 2/3), the aligned middle regime, and a strong helper (ratio
at least 2) that can cover the whole user signal without ever colliding
with it.  At n11 == n21 the offset vanishes and no alignment scheme
exists; such instances are flagged as singular.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import ParameterError, SingularCaseError
from .ldm import ChannelParams, even_blocks


class CaseTag(enum.Enum):
    WEAK_HELPER = "weak-helper"
    ALIGNED = "aligned"
    STRONG_HELPER = "strong-helper"
    SINGULAR = "singular"


class RateBreakdown(NamedTuple):
    """Achievable secrecy rate of one instance, split by mechanism."""

    r_private: int
    r_common: int
    r_ach: int
    case_tag: CaseTag


class Allocation(NamedTuple):
    """Level sets realizing a rate, as bitsets in ``ldm``'s convention (bit
    i is level i + 1): message levels of the user signal (1..n11, counted
    from the top of the received signal) and jam levels of the helper
    signal as seen at the eavesdropper (1..n2)."""

    message: int
    jam: int


class LinearScheme(NamedTuple):
    """GF(2) maps from message bits (k) and jam bits (m) to both receivers.

    A, B map message and jam to the eavesdropper's observation; C, D map
    them to the legitimate receiver.  Each map is a tuple of length-q
    bitset columns, one per input bit, in ascending level order of the
    allocation.
    """

    A: tuple[int, ...]
    B: tuple[int, ...]
    C: tuple[int, ...]
    D: tuple[int, ...]
    allocation: Allocation
    params: ChannelParams

    @property
    def k(self) -> int:
        return len(self.A)

    @property
    def m(self) -> int:
        return len(self.B)


def l_func(p: int, q: int) -> int:
    """Number of whole q-sized blocks in p; zero when q is zero."""
    if type(p) is not int or type(q) is not int or p < 0 or q < 0:
        raise ParameterError("l(p, q) expects nonnegative arguments")
    if q == 0:
        return 0
    return p // q


def phi1(p: int, q: int) -> int:
    """Common rate when the partition adjacent to the private part is unusable."""
    lv = l_func(p, q)
    if lv % 2 == 0:
        return lv * q // 2
    return p - (lv + 1) * q // 2


def phi2(p: int, q: int) -> int:
    """Common rate when every second partition, plus an odd remainder, is usable."""
    lv = l_func(p, q)
    if lv % 2 == 1:
        return (lv + 1) * q // 2
    return p - lv * q // 2


def _rate_kernel(n11: int, n21: int, n2: int) -> tuple[int, int, CaseTag]:
    """(private rate, common rate, regime) of a gain triple.

    Scaling all three gains by c > 0 keeps the regime and scales both rates
    by c, so the Gaussian closed form calls this on its rational gains
    scaled to a common denominator.
    """
    rp = n11 - n2 if n11 > n2 else 0
    if n11 == n21:
        return rp, 0, CaseTag.SINGULAR
    if 3 * n21 < 2 * n11:
        return rp, max(n11 - n21, n21, rp) - rp, CaseTag.WEAK_HELPER
    if n21 >= 2 * n11:
        return rp, n11 - rp, CaseTag.STRONG_HELPER
    # phi1: nonzero private part and strictly weaker helper at the legitimate receiver
    phi = phi1 if rp and n11 > n21 else phi2
    return rp, phi(n11 - rp, abs(n11 - n21)), CaseTag.ALIGNED


def r_achievable(p: ChannelParams) -> RateBreakdown:
    """Achievable secrecy rate of the instance (integer bits per channel use)."""
    rp, rc, tag = _rate_kernel(p.n11, p.n21, p.n2)
    return RateBreakdown(rp, rc, rp + rc, tag)


def construct_allocation(p: ChannelParams) -> Allocation:
    """Build the level allocation realizing the achievable rate exactly.

    Each regime names its message levels; the helper then jams every
    message level the eavesdropper hears (1..n2), which erases them there.

    Raises SingularCaseError when no alignment scheme exists (n11 == n21
    within the aligned regime, or the all-zero instance).
    """
    rp, _, tag = _rate_kernel(p.n11, p.n21, p.n2)
    return _allocation(p, rp, tag)


def _allocation(p: ChannelParams, rp: int, tag: CaseTag) -> Allocation:
    """``construct_allocation(p)`` from the private rate and regime that
    ``_rate_kernel`` gives for ``p``."""
    if tag is CaseTag.SINGULAR:
        raise SingularCaseError(
            f"no alignment scheme for n11={p.n11}, n21={p.n21}: "
            "equal gains leave nothing to align against"
        )
    n11, n21, n2 = p
    n_common = n11 - rp
    gap = n11 - n21
    full = (1 << n11) - 1  # levels 1..n11
    if tag is CaseTag.STRONG_HELPER:
        message = full
    elif tag is CaseTag.ALIGNED:
        # every second delta-partition of the common levels, from the top;
        # jamming lands one partition below at the receiver, so in the phi1
        # branch (rp > 0 and gap > 0) the partition next to the private part
        # is its landing zone
        delta = abs(gap)
        top = n_common - delta if rp and gap > 0 else n_common
        message = even_blocks(delta, top if top > 0 else 0) | full ^ (1 << n_common) - 1
    elif gap >= rp or n21 >= rp:
        # top block, jam-covered, plus everything below the jam's landing zone
        # (the next block down), which is empty when gap >= n21
        message = (1 << gap) - 1 | full >> 2 * gap << 2 * gap
    else:
        message = full ^ (1 << n_common) - 1  # the private levels n_common+1..n11
    return tuple.__new__(Allocation, (message, message & (1 << n2) - 1))


def build_linear_scheme(a: Allocation, p: ChannelParams) -> LinearScheme:
    """Compile an allocation into the four channel-induced GF(2) maps: one
    column per set bit of a level mask, shifted down by q - gain and
    truncated at q (a level below the noise floor gives a zero column).
    Each mask compiles in its own ``_columns`` call from one lookup of the
    kept unit-column table of q; above the cap, ``_reached_columns``."""
    message, jam = a
    n11, n21, n2 = p
    if (type(message) is not int or type(jam) is not int
            or message < 0 or jam < 0 or message >> n11 or jam >> n2):
        for name, mask, gain in (("message", message, n11), ("jam", jam, n2)):
            if type(mask) is not int:
                raise ParameterError(f"{name} levels must be an int bitset, got {mask!r}")
            if mask < 0 or mask >> gain:
                raise ParameterError(f"{name} levels {mask:#b} out of range 1..{gain}")
    q = n11 if n11 > n21 else n21
    if n2 > q:
        q = n2
    units = _UNIT_COLUMNS.get(q)
    if units is None:
        if q > SCHEME_CHECK_CAP:
            A, C = _reached_columns(q, message, q - n2, q - n11)
            B, D = _reached_columns(q, jam, q - n2, q - n21)
            return tuple.__new__(LinearScheme, (A, B, C, D, a, p))
        units = _UNIT_COLUMNS[q] = _unit_table(q)
    A, C = _columns(units, message, q - n2, q - n11)
    B, D = _columns(units, jam, q - n2, q - n21)
    return tuple.__new__(LinearScheme, (A, B, C, D, a, p))


# The largest q of the grid ``verify.run_verification`` accepts: (cap + 1)^3
# instances.  Unit-column tables by q are built and kept up to it.
SCHEME_CHECK_CAP = 64
_UNIT_COLUMNS: dict[int, tuple[int, ...]] = {}


def _unit_table(q: int) -> tuple[int, ...]:
    """Entry j is the column of a bit shifted to bit j: 2^j for j < q, and
    zero for the q bits past the noise floor."""
    return tuple([1 << j for j in range(q)]) + (0,) * q


def _columns(units: tuple[int, ...], mask: int, shift1: int,
             shift2: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The maps of a level mask within 1..q under two shifts of at most q,
    from the unit-column table of q (``_unit_table``).  Each run of
    consecutive set bits lo..hi - 1 is one table slice [lo + shift, hi +
    shift), so the cost is O(runs) Python steps, not O(levels)."""
    one = two = ()  # a first run's slice is taken as it is: () + t is t
    while mask:
        low = mask & -mask
        rest = mask & (mask + low)  # the carry clears the lowest run
        lo, hi = low.bit_length() - 1, (mask ^ rest).bit_length()
        one += units[lo + shift1:hi + shift1]
        two += units[lo + shift2:hi + shift2]
        mask = rest
    return one, two


def _reached_columns(q: int, mask: int, shift1: int,
                     shift2: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_columns`` without a table of all q unit columns: each unit column
    that the mask's levels reach is built once and shared by its two maps,
    and a level shifted to q or beyond is a zero column, so time and memory
    follow the set levels, not q."""
    runs, units = _runs(mask), {}
    return tuple(tuple([units[j] if j in units else units.setdefault(j, 1 << j) if j < q
                        else 0 for r in runs for j in range(r.start + s, r.stop + s)])
                 for s in (shift1, shift2))


def _runs(mask: int) -> list[range]:
    """The runs of consecutive set bits of a mask, from bit 0 up."""
    out = []
    while mask:
        low = mask & -mask
        rest = mask & (mask + low)  # the carry clears the lowest run
        out.append(range(low.bit_length() - 1, (mask ^ rest).bit_length()))
        mask = rest
    return out
