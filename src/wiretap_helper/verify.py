"""Exact secrecy and decodability verification for linear schemes.

With uniform independent message bits w and jam bits u, the eavesdropper
sees y2 = A w + B u over GF(2).  Every output of a linear map of uniform
bits is uniform on its image, so H(Y2) = rank([A | B]) and
H(Y2 | W) = rank(B) bits exactly, giving

    I(W; Y2) = rank([A | B]) - rank(B).

Perfect secrecy is the exact identity leakage = 0.  Decodability of
y1 = C w + D u for every jam realization is rank([C | D]) - rank(D) = k:
the k-column message map is injective and its image meets the jam image
only in zero.  Every scheme is judged by both identities, each one
Gaussian elimination pass (``ldm._added_rank``).

The module also contains an exact oracle that finds the best verifiably
secret and decodable level allocation of any instance in closed form,
independently of the partition construction.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, NamedTuple

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
    """Encode random inputs, run them through the channel, decode, compare.

    End-to-end sanity via the channel map itself rather than rank algebra:
    input bit j goes on the j-th set level of its allocation mask, placed
    one run of consecutive levels at a time (``_place``), so encoding costs
    O(runs) big-int operations, not a Python step per level.  y1 is
    reduced against an echelon basis of the columns of [C | D]; each
    basis vector records the inputs combined to make it, and the message
    bits of the combined record are the decoded message.  A decodable
    scheme's column dependencies involve jam inputs only, so the decoded
    message does not depend on the basis.  Each trial draws k message bits,
    then m jam bits, from ``random.Random(seed)``; trials must be an int >= 1.
    """
    if type(trials) is not int or trials < 1:
        raise ParameterError(f"trials must be a positive integer, got {trials!r}")
    if not decodable(s):
        raise ParameterError("simulate_roundtrip requires a decodable scheme")
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, inputs)
    get = basis.get

    def reduce(v: int, inputs: int) -> tuple[int, int]:
        while v:
            b = get(v.bit_length() - 1)
            if b is None:
                break
            v, inputs = v ^ b[0], inputs ^ b[1]
        return v, inputs

    for j, col in enumerate(s.C + s.D):
        v, inputs = reduce(col, 1 << j)
        if v:
            basis[v.bit_length() - 1] = (v, inputs)

    msg, jam = _level_runs(s.allocation.message), _level_runs(s.allocation.jam)
    k, m, p = len(s.A), len(s.B), s.params
    message_inputs = (1 << k) - 1
    getrandbits = random.Random(seed).getrandbits
    for _ in range(trials):
        w = getrandbits(k) if k else 0
        u = getrandbits(m) if m else 0
        y1, _y2 = ldm_channel(_place(w, msg), _place(u, jam), p)
        # a residue is a y1 bit that no column of [C | D] reaches
        residue, inputs = reduce(y1, 0)
        if residue or inputs & message_inputs != w:
            return False
    return True


def _level_runs(mask: int) -> list[tuple[int, int, int]]:
    """(lowest bit, width, 2^width - 1) of each run of consecutive set bits
    of a level mask, from bit 0 up."""
    return [(r.start, len(r), (1 << len(r)) - 1) for r in _runs(mask)]


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


def _reservoir_slots(size: int, rng: random.Random) -> Iterator[tuple[int, int]]:
    """(index, slot) pairs of a uniform sample of ``size`` items from a stream:
    the item with that index (from 0) goes into that slot.  The first
    ``size`` fill the slots; then Li's skip-based reservoir (Algorithm L, ACM
    TOMS 1994) draws each skip at once: O(size * log(n / size)) draws for n."""
    if size <= 0:
        return
    yield from zip(range(size), range(size))
    index = size - 1
    # w: the largest uniform key in the sample; each next item beats it with chance w
    w = math.exp(math.log(1.0 - rng.random()) / size)
    while True:
        index += math.floor(math.log(1.0 - rng.random()) / math.log1p(-w)) + 1
        yield index, rng.randrange(size)
        w *= math.exp(math.log(1.0 - rng.random()) / size)


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
    k > 0 is also decoded end to end through the channel map.

    With the oracle enabled, also checks that the oracle's best rate
    dominates the formula and respects the converse; strict oracle gaps
    are findings, not failures, and are kept in grid order as
    ``oracle_gaps``.

    Raises ParameterError, before any instance is built, when max_q is not
    a nonnegative integer (the rule of ``ChannelParams``) or exceeds
    ``SCHEME_CHECK_CAP``.
    """
    if type(max_q) is not int or max_q < 0:
        raise ParameterError(f"max_q must be a nonnegative integer, got {max_q!r}")
    if max_q > SCHEME_CHECK_CAP:
        raise ParameterError(f"verification grids are capped at max-q {SCHEME_CHECK_CAP}")
    instances = schemes_checked = singular = oracle_checked = 0
    failures: list[str] = []
    oracle_gaps: list[OracleGap] = []
    sampled: dict[int, LinearScheme] = {}  # reservoir slot -> scheme
    slots = _reservoir_slots(ROUNDTRIP_SAMPLES, random.Random(seed))
    pick, slot = next(slots, (-1, 0))
    eligible = 0  # decodable schemes with k > 0 so far: the reservoir's population
    for p in iter_instances(max_q):
        instances += 1
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
            schemes_checked += 1
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
                # reservoir sample: each such scheme is kept with the same probability
                if eligible == pick:
                    sampled[slot] = s
                    pick, slot = next(slots)
                eligible += 1
        if with_oracle:
            rate, _w = oracle_best_rate(p)
            oracle_checked += 1
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
    for s in sorted(sampled.values(), key=lambda s: s.params):  # in grid order
        if not simulate_roundtrip(s, ROUNDTRIP_TRIALS, seed):
            failures.append(f"{s.params}: roundtrip decoding failed")
    if schemes_checked == 0:
        failures.append(
            f"no scheme was checked: the grid q <= {max_q} has no non-singular instance"
        )
    return VerificationRun(instances, schemes_checked, singular, oracle_checked,
                           tuple(failures), tuple(oracle_gaps))
