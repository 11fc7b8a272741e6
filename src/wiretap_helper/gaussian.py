"""Closed-form Gaussian secrecy rates via the power-ratio parametrization.

The Gaussian instance is described by log2 SNR1 and two exponents: the
helper is received by the legitimate user at SNR1^beta1 and both senders
reach the eavesdropper at SNR1^beta2.  Received power is partitioned into
levels of width (1 - beta1) in the exponent, mirroring the bit-level
partitions of the deterministic model; level-wise lattice decoding that
treats lower levels as noise costs a bounded number of bits per level,
which enters the closed form as a penalty of one bit per full level.

The closed forms are exact, in integers over one common denominator with
one ``Fraction`` per result; logarithms are base 2 and rates are in bits.
Only the per-level decoding bound and the odd-level rate sum are floating
point, evaluated in the log domain so large SNR exponents cannot overflow.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError
from .ldm import ChannelParams
from .scheme import CaseTag, _rate_kernel

# ``odd_level_sum`` evaluates the odd levels one by one: 10**6 full levels took
# from 7 to 15 s on shared 2-vCPU Xeon hosts, depending on the host and its load,
# so a sum over more raises instead of running for minutes
MAX_LEVELS = 10**6
# Fraction("1e10000000") alone takes seconds, and printing such a value minutes
MAX_DECIMAL_EXPONENT = 10_000
_ZERO = Fraction(0)  # the one r_private of every instance without a private rate


def to_fraction(x: int | float | Decimal | str | Fraction) -> Fraction:
    """Exact rational from user input, the package's one reader of numbers;
    floats and Decimals are read as their str, so 0.05 means 1/20.  Raises
    ParameterError for a bool, a value that is no finite rational, a string with
    "_" or inner whitespace, or a decimal exponent beyond +-``MAX_DECIMAL_EXPONENT``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ParameterError(f"not a rational number: {x!r}")
    text = str(x) if isinstance(x, (float, Decimal)) else x
    if isinstance(text, str):
        _, e, exponent = text.lower().rpartition("e")  # a valid "e" starts the exponent
        try:
            huge = bool(e) and abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:  # not an exponent: Fraction refuses the literal
            huge = False
        if huge:
            raise ParameterError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {x!r}")
        if "_" in text or len(text.split()) > 1:  # Fraction reads 1_0 from 3.11, 1 / 2 from 3.12
            raise ParameterError(f"not a rational number: {x!r}")
    try:
        return Fraction(text)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ParameterError(f"not a rational number: {x!r}") from exc


class _Exponents(NamedTuple):
    log_snr1: Fraction
    beta1: Fraction
    beta2: Fraction


class GaussianParams(_Exponents):
    """Gaussian instance: log2 of SNR1 plus the two gain-ratio exponents."""

    __slots__ = ()

    def __new__(cls, log_snr1, beta1, beta2) -> GaussianParams:
        log_snr1, beta1, beta2 = to_fraction(log_snr1), to_fraction(beta1), to_fraction(beta2)
        if log_snr1.numerator <= 0:
            raise ParameterError("log_snr1 must be positive")
        if beta1.numerator < 0 or beta2.numerator < 0:
            raise ParameterError("beta exponents must be nonnegative")
        return tuple.__new__(cls, (log_snr1, beta1, beta2))

    @classmethod
    def _make(cls, iterable) -> GaussianParams:
        # ``_replace`` builds through ``_make``, so neither skips the checks
        return cls(*iterable)

    @property
    def full_levels(self) -> int:
        """floor(1 / |1 - beta1|), the number of full levels of the power range."""
        n, d = self.beta1.as_integer_ratio()
        if n == d:
            raise ParameterError("level structure is undefined at beta1 = 1")
        return d // abs(d - n)


class GaussianRateBreakdown(NamedTuple):
    """Rate split for a Gaussian instance.

    r_gross is the rate carried by the alignment structure itself;
    r_ach additionally charges the per-level decoding penalty d (one bit
    per full level), clamped at zero.  normalized is r_ach / log2 SNR1.
    Equal fields may be one object; which ones are is not part of the API.
    """

    r_private: Fraction
    r_common: Fraction
    r_gross: Fraction
    d: int
    r_ach: Fraction
    normalized: Fraction
    case_tag: CaseTag
    r_common_sum: float | None = None


def _log2_1p_exp2(e: float) -> float:
    """log2(1 + 2**e), stable for any magnitude of e."""
    if e > 48:
        return e + math.log1p(2.0 ** (-e)) / math.log(2)
    if e < -48:
        return 2.0**e / math.log(2)
    return math.log1p(2.0**e) / math.log(2)


def _edge(top: Fraction, width: Fraction, level: int) -> float:
    """log2 of the received power at the bottom of ``level`` (0: the top), the
    exact rational ``top - level * width`` rounded to float once."""
    try:
        return float(top - level * width)
    except OverflowError:
        raise ParameterError("log_snr1 is too large for the per-level float bounds") from None


def _log2_theta(hi: float, lo: float) -> float:
    """log2 of the power between the edges ``hi`` and ``lo`` of one level."""
    # log2(2^hi - 2^lo) = hi + log2(1 - 2^(lo - hi)); lo < hi always.  A ratio
    # that rounds to 1 means a level under one bit wide, whose bound is < 0.
    ratio = 2.0 ** (lo - hi)
    return hi + math.log1p(-ratio) / math.log(2) if ratio < 1 else -math.inf


def level_rate(g: GaussianParams, level: int) -> float:
    """Per-level decoding bound, treating all lower levels as noise."""
    n, d = g.beta1.as_integer_ratio()
    if n >= d:
        raise ParameterError("power levels require beta1 < 1")
    top = -(-d // (d - n))  # ceil(1 / (1 - beta1)), the levels counting a partial one
    if type(level) is not int or not 1 <= level <= top:
        raise ParameterError(f"level {level} out of range 1..{top}" if type(level) is int
                             else f"level must be an integer, got {level!r}")
    w = g.log_snr1 * (1 - g.beta1)  # the exact level width
    hi, lo = _edge(g.log_snr1, w, level - 1), _edge(g.log_snr1, w, level)
    return max(0.0, _log2_theta(hi, lo) - _log2_1p_exp2(1.0 + lo))


def odd_level_sum(g: GaussianParams) -> float:
    """Sum of the per-level bounds over the odd (message-carrying) levels."""
    if g.beta1 >= 1:
        raise ParameterError("power levels require beta1 < 1")
    if g.full_levels > MAX_LEVELS:
        raise ParameterError(f"the odd-level sum over {g.full_levels} power levels exceeds "
                             f"the cap of {MAX_LEVELS} levels")
    return sum(level_rate(g, l) for l in range(1, g.full_levels + 1, 2))


def correspondence(g: GaussianParams) -> ChannelParams:
    """Deterministic instance matching this Gaussian one: n = ceil(log SNR), an int >= 0."""
    (a, b), (n1, d1), (n2, d2) = (x.as_integer_ratio() for x in g)
    return tuple.__new__(ChannelParams, (-(-a // b), -(-a * n1 // (b * d1)),
                                         -(-a * n2 // (b * d2))))


def gaussian_rate(g: GaussianParams) -> GaussianRateBreakdown:
    """Achievable Gaussian secrecy rate, exact over rationals.

    The structure rates are the deterministic ones of the gain triple
    (L, beta1 L, beta2 L) with L = log2 SNR1: the private rate is the
    log-SNR advantage over the eavesdropper, floored at zero, and the common
    rate comes from the same regimes and partition counts.  In the aligned
    regime the per-level decoding penalty d (one bit per full level) is
    charged against the total.
    """
    # L = a/b, beta1 = n1/d1, beta2 = n2/d2: the gains over den = b d1 d2
    (a, b), (n1, d1), (n2, d2) = (x.as_integer_ratio() for x in g)
    rp, rc, tag = _rate_kernel(a * d1 * d2, n1 * a * d2, n2 * a * d1)
    den = b * d1 * d2
    d = d1 // abs(d1 - n1) if tag is CaseTag.ALIGNED else 0  # full levels; aligned: beta1 != 1
    r_ach = max(rp + rc - d * den, 0)
    r_common = Fraction(rc, den)
    r_gross = Fraction(rp + rc, den) if rp else r_common  # equal fields share one object
    return GaussianRateBreakdown(  # r_private, r_common, r_gross, d, r_ach, normalized = r_ach / L
        Fraction(rp, den) if rp else _ZERO, r_common, r_gross, d,
        r_gross if r_ach == rp + rc else Fraction(r_ach, den),
        Fraction(r_ach, a * d1 * d2), tag, odd_level_sum(g) if n1 < d1 else None)
