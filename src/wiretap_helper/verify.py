"""Exact secrecy and decodability verification for linear schemes.

With uniform independent message bits w and jam bits u, the eavesdropper
sees y2 = A w + B u over GF(2).  Every output of a linear map of uniform
bits is uniform on its image, so H(Y2) = rank([A | B]) and
H(Y2 | W) = rank(B) bits exactly, giving

    I(W; Y2) = rank([A | B]) - rank(B).

Perfect secrecy is the exact identity leakage = 0.  Decodability of
y1 = C w + D u for every jam realization is rank([C | D]) - rank(D) = k:
the k-column message map is injective and its image meets the jam image
only in zero.  One Gaussian elimination pass, ``ldm._added_rank``, judges both
identities and the decoding of sampled schemes through the channel map
(``simulate_roundtrip``).

The module also contains an exact oracle that finds the best verifiably
secret and decodable level allocation of any instance in closed form,
independently of the partition construction.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import NamedTuple

from .bounds import _doubled_bounds, upper_bounds
from .errors import ParameterError
from .ldm import ChannelParams, _added_rank, even_blocks, ldm_channel
from .scheme import (SCHEME_CHECK_CAP, Allocation, CaseTag, LinearScheme, _allocation,
                     _rate_kernel, _runs, build_linear_scheme)

# Schemes that verification decodes end to end through the channel (a seeded
# uniform sample of the decodable schemes with k > 0), and the random
# message/jam draws per scheme.
ROUNDTRIP_SAMPLES = 25
ROUNDTRIP_TRIALS = 50


def leakage(s: LinearScheme) -> int:
    """Exact mutual information (bits) between the message and y2:
    rank([A | B]) - rank(B)."""
    return _added_rank(s.B, s.A)


def decodable(s: LinearScheme) -> bool:
    """True iff the message is recoverable from y1 under every jam value:
    rank([C | D]) - rank(D) = k, which with k columns in C forces rank(C) = k."""
    return _added_rank(s.D, s.C) == len(s.C)


def simulate_roundtrip(s: LinearScheme, trials: int, seed: int) -> bool:
    """Encode random inputs, run them through the channel map, and judge
    whether each trial's y1 decodes to its message w.

    Input bit j goes on the j-th set level of its allocation mask (``_place``).
    Each trial draws k message bits, then m jam bits, from ``random.Random(seed)``;
    a zero-width draw is 0 and consumes nothing.  In a decodable scheme, y1
    decodes to w iff y1 = C w + D u' for some jam u', that is iff y1 << k | w
    lies in the span of the columns c << k | 2^j of C and d << k of D: all
    trials decode iff ``_added_rank`` of these outputs over those columns is 0.
    trials must be an int >= 1 and seed an int.
    """
    if type(trials) is not int or trials < 1:
        raise ParameterError(f"trials must be a positive integer, got {trials!r}")
    if type(seed) is not int:
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if not decodable(s):
        raise ParameterError("simulate_roundtrip requires a decodable scheme")
    msg, jam = map(_runs, s.allocation)  # a plain (message, jam) tuple too
    k, m, p = len(s.A), len(s.B), s.params
    getrandbits = random.Random(seed).getrandbits
    # y1 tagged with w, built lazily so memory stays flat in trials; w is drawn before u
    outputs = (ldm_channel(_place(w := getrandbits(k), msg), _place(getrandbits(m), jam), p)[0]
               << k | w for _ in range(trials))
    columns = [c << k | 1 << j for j, c in enumerate(s.C)] + [d << k for d in s.D]
    return _added_rank(columns, outputs) == 0


def _place(v: int, runs: list[tuple[int, int, int]]) -> int:
    """Bit j of v onto the j-th set level of the mask that ``runs`` describes
    (bits of v beyond its levels are dropped): the next width bits of v
    fill each run."""
    x = 0
    for lo, width, width_ones in runs:
        x |= (v & width_ones) << lo
        v >>= width
    return x


def oracle_best_rate(p: ChannelParams) -> tuple[int, Allocation]:
    """Exact best rate over level allocations, with one witness.

    For a fixed jam set, message level i is usable iff it is invisible to
    the eavesdropper (i > n2) or jam bit i covers it there, and no jam bit
    heard at the legitimate receiver lands on it: that is jam bit i - d,
    d = n11 - n21, heard when i - d <= n21.  With s = |d| > 0 the jam bits
    split into s independent chains by residue mod s; level ``pos`` has
    chain index (pos - 1) // s.  Let a chain have K levels and M jam bits
    that matter (positions <= top, where top = min(n2, n11) if d > 0 and
    n2 if d < 0).

    - d > 0: the chain's level j counts iff its jam bit j is set (or
      j >= M) and jam bit j - 1 is not, so the optimum is ceil(M/2) if
      K == M, else floor(M/2) + K - M: jam the even chain indices below
      M - [K != M].
    - d < 0: the chain's level j counts iff its jam bit j is set (or
      j >= M) and jam bit j + 1 is not, so the optimum is
      ceil(min(M, K)/2) + max(K - M, 0): jam the even chain indices below
      min(M, K).
    - d = 0: a jam bit both covers and lands on its level, so the optimum
      is max(n11 - n2, 0) with no jam.

    As level sets, the even chain indices are the even-indexed blocks of s
    levels (``even_blocks``): below M are those within levels 1..top, below
    min(M, K) those within 1..min(n2, n11).  For d > 0 a chain with K != M
    also leaves out its last jam bit within 1..top, the one that would land
    on a level in (top, n11]: the jam levels top - s + 1 .. n21.  That is
    O(1) big-int operations per instance.
    """
    n11, n21, n2 = p
    d = n11 - n21
    if d > 0:
        top = n2 if n2 < n11 else n11
        heard = (1 << n21) - 1  # jam levels 1..n21
        jam = even_blocks(d, top) & ~(heard ^ (1 << (top - d if top > d else 0)) - 1)
        landing = (jam & heard) << d
    elif d:
        jam = even_blocks(-d, n2 if n2 < n11 else n11)
        landing = jam >> -d  # every jam bit is below n11 < n21, so heard
    else:
        jam = landing = 0
    # usable levels: covered at y2 and not hit by a jam bit heard at y1
    message = (1 << n11) - 1 & (jam | -1 << n2) & ~landing
    return message.bit_count(), tuple.__new__(Allocation, (message, jam & message))


def iter_instances(max_q: int):
    """All gain triples whose ambient length is at most max_q."""
    # ints from ``range`` need none of ``ChannelParams``' checks
    for t in itertools.product(range(max_q + 1), repeat=3):
        yield tuple.__new__(ChannelParams, t)


class OracleGap(NamedTuple):
    """An instance where the oracle's best rate beats the partition formula."""

    params: ChannelParams
    oracle_rate: int
    formula_rate: int


class VerificationRun(NamedTuple):
    """Aggregate result of sweeping the exact checks over a parameter grid."""

    instances: int
    schemes_checked: int
    singular_instances: int
    oracle_checked: int
    failures: tuple[str, ...]
    oracle_gaps: tuple[OracleGap, ...]

    @property
    def ok(self) -> bool:
        return self.schemes_checked > 0 and not self.failures


def run_verification(
    max_q: int,
    with_oracle: bool = False,
    seed: int = 0,
) -> VerificationRun:
    """Check construction/formula agreement, exact secrecy, decodability,
    and converse consistency over every instance with q <= max_q.

    A seeded uniform sample of ``ROUNDTRIP_SAMPLES`` decodable schemes with
    k > 0 is also decoded end to end through the channel map.  It is a
    bottom-k sample: in grid order each such scheme draws a 64-bit key from
    ``random.Random(seed)``, and the smallest keys are kept (of equal ones, the later).

    With the oracle enabled, also checks that the oracle's best rate
    dominates the formula and respects the converse; strict oracle gaps
    are findings, not failures, and are kept in grid order as
    ``oracle_gaps``.

    Raises ParameterError, before any instance is built, when max_q is not
    a nonnegative integer (the rule of ``ChannelParams``) or exceeds
    ``SCHEME_CHECK_CAP``, when seed is not an integer, or when with_oracle is
    not a bool.
    """
    if type(max_q) is not int or max_q < 0:
        raise ParameterError(f"max_q must be a nonnegative integer, got {max_q!r}")
    if max_q > SCHEME_CHECK_CAP:
        raise ParameterError(f"verification grids are capped at max-q {SCHEME_CHECK_CAP}")
    if type(seed) is not int:
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if type(with_oracle) is not bool:
        raise ParameterError(f"with_oracle must be a bool, got {with_oracle!r}")
    singular = 0
    failures: list[str] = []
    oracle_gaps: list[OracleGap] = []
    # sorted (key, -instance index, scheme); of equal keys at the cut the earlier leaves
    sample: list[tuple[int, int, LinearScheme]] = []
    getrandbits = random.Random(seed).getrandbits
    for i, p in enumerate(iter_instances(max_q)):
        n11, n21, n2 = p
        rp, rc, tag = _rate_kernel(n11, n21, n2)
        r_ach = rp + rc
        twice_ub = min(_doubled_bounds(n11, n21, n2))
        if 2 * r_ach > twice_ub:
            failures.append(
                f"{p}: achievable {r_ach} exceeds converse {upper_bounds(p).min_ub}"
            )
        if tag is CaseTag.SINGULAR:
            singular += 1
        else:
            alloc = _allocation(p, rp, tag)
            s = build_linear_scheme(alloc, p)
            if alloc.message.bit_count() != r_ach:
                failures.append(
                    f"{p}: construction carries {alloc.message.bit_count()} bits, "
                    f"formula says {r_ach}"
                )
            leak = leakage(s)
            if leak != 0:
                failures.append(f"{p}: constructed scheme leaks {leak} bits")
            if not decodable(s):
                failures.append(f"{p}: constructed scheme is not decodable")
            elif s.A:  # k > 0
                key = getrandbits(64)
                if len(sample) < ROUNDTRIP_SAMPLES or sample and key <= sample[-1][0]:
                    bisect.insort(sample, (key, -i, s))  # the unique -i ends every compare
                    del sample[ROUNDTRIP_SAMPLES:]  # the largest key leaves
        if with_oracle:
            rate, _w = oracle_best_rate(p)
            if rate < r_ach:
                failures.append(
                    f"{p}: oracle best {rate} below formula {r_ach}"
                )
            if 2 * rate > twice_ub:
                failures.append(
                    f"{p}: oracle best {rate} exceeds converse {upper_bounds(p).min_ub}"
                )
            if rate > r_ach:
                oracle_gaps.append(OracleGap(p, rate, r_ach))
    for _, _, s in sorted(sample, key=lambda e: -e[1]):  # in grid order
        if not simulate_roundtrip(s, ROUNDTRIP_TRIALS, seed):
            failures.append(f"{s.params}: roundtrip decoding failed")
    instances = (max_q + 1) ** 3
    schemes_checked = instances - singular
    if schemes_checked == 0:
        failures.append(
            f"no scheme was checked: the grid q <= {max_q} has no non-singular instance"
        )
    return VerificationRun(instances, schemes_checked, singular,
                           instances if with_oracle else 0, tuple(failures), tuple(oracle_gaps))
