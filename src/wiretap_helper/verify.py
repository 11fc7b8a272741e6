"""Exact secrecy and decodability verification for linear schemes.

With uniform independent message bits w and jam bits u, the eavesdropper
sees y2 = A w + B u over GF(2).  Every output of a linear map of uniform
bits is uniform on its image, so H(Y2) = rank([A | B]) and
H(Y2 | W) = rank(B) bits exactly, giving

    I(W; Y2) = rank([A | B]) - rank(B).

Perfect secrecy is the exact identity leakage = 0.  Decodability of
y1 = C w + D u for every jam realization is the rank criterion
rank(C) = k and rank([C | D]) = k + rank(D): the message map is injective
and its image meets the jam image only in zero.

The module also contains an exhaustive oracle that searches all level
allocations of small instances for the best verifiably secret and
decodable rate, independently of the partition construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bounds import upper_bounds
from .errors import ContractError, SearchCapError
from .ldm import ChannelParams, _rank_of_int_columns, ldm_channel
from .scheme import (
    Allocation,
    CaseTag,
    LinearScheme,
    build_linear_scheme,
    construct_allocation,
    r_achievable,
)

ORACLE_DEFAULT_CAP = 12


def leakage(s: LinearScheme) -> int:
    """Exact mutual information (bits) between the message and y2."""
    return _rank_of_int_columns(s.A + s.B) - _rank_of_int_columns(s.B)


def decodable(s: LinearScheme) -> bool:
    """True iff the message is recoverable from y1 under every jam value."""
    if _rank_of_int_columns(s.C) != s.k:
        return False
    return _rank_of_int_columns(s.C + s.D) == s.k + _rank_of_int_columns(s.D)


def _message_extractor(s: LinearScheme) -> list[int]:
    """Row functionals e_j with e_j . C = unit_j and e_j . D = 0.

    Solves the transposed system once; decoding is then k parity checks
    on y1.  Requires a decodable scheme.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for j, col in enumerate(s.C + s.D):
        rhs = (1 << j) if j < s.k else 0
        while col:
            h = col.bit_length() - 1
            if h in pivots:
                pc, pr = pivots[h]
                col ^= pc
                rhs ^= pr
            else:
                pivots[h] = (col, rhs)
                break
        if col == 0 and rhs != 0:
            raise ContractError("no linear extractor exists; scheme is not decodable")
    extractors = []
    for j in range(s.k):
        e = 0
        for h in sorted(pivots):
            col, rhs = pivots[h]
            bit = ((rhs >> j) & 1) ^ (((col & ~(1 << h)) & e).bit_count() & 1)
            if bit:
                e |= 1 << h
        extractors.append(e)
    return extractors


def simulate_roundtrip(s: LinearScheme, trials: int, seed: int) -> bool:
    """Encode random inputs, run them through the channel, decode, compare.

    End-to-end sanity via the channel map itself rather than rank algebra.
    """
    if not decodable(s):
        raise ContractError("simulate_roundtrip requires a decodable scheme")
    extractors = _message_extractor(s)
    rng = random.Random(seed)
    for _ in range(trials):
        w = rng.getrandbits(s.k) if s.k else 0
        u = rng.getrandbits(s.m) if s.m else 0
        x1 = 0
        for j, level in enumerate(s.message_levels):
            if (w >> j) & 1:
                x1 |= 1 << (level - 1)
        x2 = 0
        for j, level in enumerate(s.jam_levels):
            if (u >> j) & 1:
                x2 |= 1 << (level - 1)
        y1, _y2 = ldm_channel(x1, x2, s.params)
        decoded = 0
        for j, e in enumerate(extractors):
            decoded |= ((e & y1).bit_count() & 1) << j
        if decoded != w:
            return False
    return True


def oracle_best_rate(
    p: ChannelParams, max_q: int = ORACLE_DEFAULT_CAP
) -> tuple[int, Allocation]:
    """Exhaustive best rate over level allocations, with one witness.

    Searches every jam subset of the helper's levels as seen at the
    eavesdropper.  For a fixed jam set the eligibility of each message
    level is independent: it must be invisible to the eavesdropper or
    covered by the jam, and it must not sit where a jam bit lands at the
    legitimate receiver.  The best message set is therefore closed form
    per jam subset, giving a 2^n2 search instead of 4^q.
    """
    if p.q > max_q:
        raise SearchCapError(
            f"instance has q={p.q}, above the oracle cap max_q={max_q}"
        )
    n11, n21, n2 = p.n11, p.n21, p.n2
    full11 = (1 << n11) - 1
    vis_at_y2 = (1 << min(n11, n2)) - 1
    invisible = full11 & ~vis_at_y2
    vis_at_y1 = (1 << min(n2, n21)) - 1
    offset = n11 - n21
    best = -1
    best_message = 0
    best_jam = 0
    for jam_mask in range(1 << n2):
        heard = jam_mask & vis_at_y1
        landing = (heard << offset) if offset >= 0 else (heard >> -offset)
        allowed = ~landing & (invisible | (jam_mask & vis_at_y2)) & full11
        count = allowed.bit_count()
        if count > best:
            best = count
            best_message = allowed
            best_jam = jam_mask & allowed & vis_at_y2
    message = frozenset(i + 1 for i in range(n11) if (best_message >> i) & 1)
    jam = frozenset(i + 1 for i in range(n2) if (best_jam >> i) & 1)
    return best, Allocation(message, jam)


def iter_instances(max_q: int):
    """All gain triples whose ambient length is at most max_q."""
    for n11 in range(max_q + 1):
        for n21 in range(max_q + 1):
            for n2 in range(max_q + 1):
                yield ChannelParams(n11, n21, n2)


@dataclass
class VerificationRun:
    """Aggregate result of sweeping the exact checks over a parameter grid."""

    instances: int = 0
    schemes_checked: int = 0
    singular_instances: int = 0
    oracle_checked: int = 0
    failures: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.schemes_checked > 0 and not self.failures


def run_verification(
    max_q: int,
    with_oracle: bool = False,
    seed: int = 0,
    roundtrip_samples: int = 25,
    roundtrip_trials: int = 50,
) -> VerificationRun:
    """Check construction/formula agreement, exact secrecy, decodability,
    and converse consistency over every instance with q <= max_q.

    With the oracle enabled, also checks that the exhaustive best rate
    dominates the formula and respects the converse; strict oracle gaps
    are reported as findings, not failures.
    """
    run = VerificationRun()
    rng = random.Random(seed)
    oracle_gaps: list[str] = []
    sampled: list[LinearScheme] = []
    for p in iter_instances(max_q):
        run.instances += 1
        br = r_achievable(p)
        ub = upper_bounds(p)
        if br.r_ach > ub.min_ub:
            run.failures.append(
                f"{p}: achievable {br.r_ach} exceeds converse {ub.min_ub}"
            )
        if br.case_tag is CaseTag.SINGULAR:
            run.singular_instances += 1
        else:
            alloc = construct_allocation(p)
            s = build_linear_scheme(alloc, p)
            run.schemes_checked += 1
            if len(alloc.message_levels) != br.r_ach:
                run.failures.append(
                    f"{p}: construction carries {len(alloc.message_levels)} bits, "
                    f"formula says {br.r_ach}"
                )
            leak = leakage(s)
            if leak != 0:
                run.failures.append(f"{p}: constructed scheme leaks {leak} bits")
            if not decodable(s):
                run.failures.append(f"{p}: constructed scheme is not decodable")
            elif s.k and len(sampled) < roundtrip_samples and rng.random() < 0.02:
                sampled.append(s)
        if with_oracle:
            rate, _w = oracle_best_rate(p, max_q=max(max_q, ORACLE_DEFAULT_CAP))
            run.oracle_checked += 1
            if rate < br.r_ach:
                run.failures.append(
                    f"{p}: oracle best {rate} below formula {br.r_ach}"
                )
            if rate > ub.min_ub:
                run.failures.append(
                    f"{p}: oracle best {rate} exceeds converse {ub.min_ub}"
                )
            if rate > br.r_ach:
                oracle_gaps.append(
                    f"{p}: oracle reaches {rate}, formula gives {br.r_ach}"
                )
    for s in sampled:
        if not simulate_roundtrip(s, roundtrip_trials, seed):
            run.failures.append(f"{s.params}: roundtrip decoding failed")
    if run.schemes_checked == 0:
        run.failures.append(
            f"no scheme was checked: the grid q <= {max_q} has no non-singular instance"
        )
    if run.singular_instances:
        run.findings.append(
            f"{run.singular_instances} singular instances (n11 == n21): no alignment "
            "scheme; private-only rate reported"
        )
    if oracle_gaps:
        run.findings.append(
            f"{len(oracle_gaps)} instances where the exhaustive oracle beats the "
            "partition formula (bit-level granularity): " + "; ".join(oracle_gaps[:10])
        )
    return run
