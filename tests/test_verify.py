"""Rank-identity verification, the roundtrip simulator, and the oracle."""

import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from wiretap_helper import (
    Allocation,
    CaseTag,
    ChannelParams,
    LinearScheme,
    OracleGap,
    ParameterError,
    build_linear_scheme,
    construct_allocation,
    decodable,
    ldm_channel,
    leakage,
    oracle_best_rate,
    r_achievable,
    run_verification,
    simulate_roundtrip,
    upper_bounds,
)
from wiretap_helper import scheme, verify
from wiretap_helper.bounds import _doubled_bounds
from wiretap_helper.cli import main
from wiretap_helper.verify import iter_instances

I3 = (0b001, 0b010, 0b100)  # identity map on q = 3 levels


def mask(*levels):
    """Level bitset: bit i holds level i + 1."""
    return sum(1 << (level - 1) for level in set(levels))


def make_scheme(A, B, C, D, p=None, msg=(), jam=()):
    """Scheme from column tuples and allocated levels; the default
    instance has q = 3."""
    return LinearScheme(
        A=A, B=B, C=C, D=D, allocation=Allocation(mask(*msg), mask(*jam)),
        params=p or ChannelParams(3, 3, 3),
    )


def random_matrix(rng, rows, cols):
    return tuple(rng.getrandbits(rows) for _ in range(cols))


def apply(columns, coeffs):
    """XOR of the columns selected by the bits of coeffs."""
    return reduce(xor, (c for j, c in enumerate(columns) if (coeffs >> j) & 1), 0)


def enumerated_mutual_information(A, B, k, m):
    """I(W; Y2) from the full joint distribution of 2^(k+m) inputs."""
    joint = Counter()
    marginal = Counter()
    for w in range(2**k):
        for u in range(2**m):
            y = apply(A, w) ^ apply(B, u)
            joint[(w, y)] += 1
            marginal[y] += 1
    total = 2 ** (k + m)
    h_y = -sum(c / total * math.log2(c / total) for c in marginal.values())
    h_y_given_w = -sum(c / total * math.log2(c / 2**m) for c in joint.values())
    return h_y - h_y_given_w


class TestLeakage:
    def test_perfectly_aligned_jam(self):
        assert leakage(make_scheme(I3, I3, I3, I3)) == 0

    def test_no_jamming_leaks_everything(self):
        assert leakage(make_scheme(I3, (), I3, ())) == 3

    def test_constructed_scheme_has_zero_leakage(self):
        p = ChannelParams(10, 8, 10)
        s = build_linear_scheme(construct_allocation(p), p)
        assert leakage(s) == 0


class TestDecodable:
    def test_identity_without_jam(self):
        assert decodable(make_scheme(I3, I3, I3, ()))

    def test_jam_on_message_levels(self):
        assert not decodable(make_scheme(I3, I3, I3, I3))

    def test_constructed_scheme_is_decodable(self):
        p = ChannelParams(10, 8, 10)
        assert decodable(build_linear_scheme(construct_allocation(p), p))

    def test_matches_brute_force_decodability(self):
        rng = random.Random(11)
        for _ in range(120):
            q = rng.randint(1, 5)
            k = rng.randint(0, 3)
            m = rng.randint(0, 3)
            C = random_matrix(rng, q, k)
            D = random_matrix(rng, q, m)
            s = make_scheme((0,) * k, (0,) * m, C, D)
            seen = {}
            ok = True
            for w in range(2**k):
                for u in range(2**m):
                    y = apply(C, w) ^ apply(D, u)
                    if seen.setdefault(y, w) != w:
                        ok = False
            assert decodable(s) == ok


# (C, message levels, jam levels): decodable by rank, but y1 from the channel
# is not what C and D describe
MISS_THE_CHANNEL = [
    ((0b010, 0b001, 0b100), (1, 2, 3), ()),
    ((0b001, 0b010), (1, 3), ()),
    ((0b001,), (1,), (3,)),
]


def miss_the_channel(C, msg, jam):
    return make_scheme(C, (0,) * len(jam), C, (), msg=msg, jam=jam)


class TestSimulateRoundtrip:
    def test_empty_scheme_vacuously_true(self):
        p = ChannelParams(3, 1, 2)
        s = build_linear_scheme(Allocation(0, 0), p)
        assert simulate_roundtrip(s, 10, 0)

    @pytest.mark.parametrize(
        "triple",
        [(10, 8, 10), (4, 8, 4), (10, 6, 10), (12, 7, 11), (20, 16, 14), (10, 15, 8)],
    )
    def test_constructed_schemes_roundtrip(self, triple):
        p = ChannelParams(*triple)
        s = build_linear_scheme(construct_allocation(p), p)
        assert simulate_roundtrip(s, 1000, seed=123)

    def test_non_decodable_scheme_is_a_contract_error(self):
        s = make_scheme(I3, I3, I3, I3, msg=(1, 2, 3), jam=(1, 2, 3))
        with pytest.raises(ParameterError, match="requires a decodable scheme"):
            simulate_roundtrip(s, 5, 0)

    @pytest.mark.parametrize("trials", [0, -3, 2.0, True, "50", None])
    def test_trials_must_be_a_positive_int(self, trials):
        # with no trial run, a scheme that misses the channel would pass
        s = miss_the_channel(*MISS_THE_CHANNEL[0])
        assert not simulate_roundtrip(s, 50, seed=0)
        with pytest.raises(ParameterError) as exc:
            simulate_roundtrip(s, trials, seed=0)
        assert str(exc.value) == f"trials must be a positive integer, got {trials!r}"

    @pytest.mark.parametrize("seed", [1.5, "x", True, None, [1]])
    def test_seed_must_be_an_int(self, monkeypatch, seed):
        # checked before the decodable guard, and so before any draw
        def no_draws(seed):
            raise AssertionError("a generator was seeded with a non-integer seed")

        monkeypatch.setattr(verify.random, "Random", no_draws)
        p = ChannelParams(10, 8, 10)
        not_decodable = make_scheme(I3, I3, I3, I3, msg=(1, 2, 3), jam=(1, 2, 3))
        for s in (build_linear_scheme(construct_allocation(p), p), not_decodable):
            with pytest.raises(ParameterError) as exc:
                simulate_roundtrip(s, 5, seed)
            assert str(exc.value) == f"seed must be an integer, got {seed!r}"

    def test_negative_seed_runs(self):
        p = ChannelParams(10, 8, 10)
        assert simulate_roundtrip(build_linear_scheme(construct_allocation(p), p), 50, -3)

    @pytest.mark.parametrize("C,msg,jam", MISS_THE_CHANNEL,
                             ids=["columns-permuted-against-channel",
                                  "message-level-left-out-of-maps", "jam-level-left-out-of-maps"])
    def test_maps_that_miss_the_channel_fail(self, C, msg, jam):
        s = miss_the_channel(C, msg, jam)
        assert decodable(s)
        assert not simulate_roundtrip(s, 50, seed=0)

    def test_same_seed_same_outcome(self):
        p = ChannelParams(9, 7, 9)
        s = build_linear_scheme(construct_allocation(p), p)
        assert simulate_roundtrip(s, 64, seed=5) == simulate_roundtrip(s, 64, seed=5)

    @pytest.mark.parametrize("levels,triple", [((0b101, 0b010), (4, 2, 4)),
                                               (None, (10, 8, 10))], ids=["given", "constructed"])
    def test_plain_tuple_allocation_roundtrips(self, levels, triple):
        # build_linear_scheme takes any (message, jam) pair, so the roundtrip does too
        p = ChannelParams(*triple)
        a = Allocation(*levels) if levels else construct_allocation(p)
        as_tuple = build_linear_scheme(tuple(a), p)
        assert type(as_tuple.allocation) is tuple
        for trials, seed in ((1, 0), (50, 3)):
            got = simulate_roundtrip(as_tuple, trials, seed)
            assert got is simulate_roundtrip(build_linear_scheme(a, p), trials, seed) is True

    @pytest.mark.parametrize("levels,triple", [
        ((0, 0b111), (3, 1, 3)),   # k = 0
        ((0b101, 0), (4, 2, 4)),   # m = 0
        ((0, 0), (3, 1, 2)),       # k = m = 0
        (None, (10, 8, 10)),       # both > 0
    ], ids=["no-message", "no-jam", "empty", "both"])
    def test_draw_contract(self, monkeypatch, levels, triple):
        # each trial places k message bits, then m jam bits, from Random(seed);
        # a zero-width draw is 0 and must not advance the generator
        p = ChannelParams(*triple)
        s = build_linear_scheme(Allocation(*levels) if levels else construct_allocation(p), p)
        k, m = len(s.A), len(s.B)
        placed, place = [], verify._place

        def spy(v, runs):
            placed.append(v)
            return place(v, runs)

        monkeypatch.setattr(verify, "_place", spy)
        for seed in (0, 7, -3):
            placed.clear()
            assert simulate_roundtrip(s, 30, seed)
            rng = random.Random(seed)
            expected = []
            for _ in range(30):
                expected += [rng.getrandbits(k) if k else 0, rng.getrandbits(m) if m else 0]
            assert placed == expected

    def test_memory_stays_flat_in_trials(self):
        # each trial's output is reduced as it is drawn, not kept in a list: at
        # 200,000 trials a list of the tagged outputs peaks at about 6 MiB here
        p = ChannelParams(6, 4, 6)
        s = constructed(p)
        assert s.A and s.B
        tracemalloc.start()
        try:
            assert simulate_roundtrip(s, 200_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def per_level_place(v, mask):
    """Reference encoder of the 0.22.0 roundtrip: bit j of v onto the j-th set
    level of the mask, one level at a time."""
    x = 0
    while mask:
        if v & 1:
            x |= mask & -mask
        v >>= 1
        mask &= mask - 1
    return x


def roundtrip_0_22(s, trials, seed):
    """``simulate_roundtrip`` as 0.22.0 wrote it: per-level encoding and two
    dict lookups per reduction step."""
    if not decodable(s):
        raise ParameterError("simulate_roundtrip requires a decodable scheme")
    basis = {}

    def reduce(v, inputs):
        while v and (v.bit_length() - 1) in basis:
            b, combined = basis[v.bit_length() - 1]
            v, inputs = v ^ b, inputs ^ combined
        return v, inputs

    for j, col in enumerate(s.C + s.D):
        v, inputs = reduce(col, 1 << j)
        if v:
            basis[v.bit_length() - 1] = (v, inputs)
    getrandbits = random.Random(seed).getrandbits
    for _ in range(trials):
        w = getrandbits(len(s.A)) if s.A else 0
        u = getrandbits(len(s.B)) if s.B else 0
        y1, _y2 = ldm_channel(per_level_place(w, s.allocation.message),
                              per_level_place(u, s.allocation.jam), s.params)
        residue, inputs = reduce(y1, 0)
        if residue or inputs & (1 << len(s.A)) - 1 != w:
            return False
    return True


@st.composite
def level_masks(draw):
    """Masks of up to 200 levels: any, whole runs, or scattered levels."""
    width = draw(st.integers(0, 200))
    runs = st.lists(st.tuples(st.integers(0, width), st.integers(0, width)), max_size=6)
    return draw(st.one_of(
        st.integers(0, (1 << width) - 1),
        runs.map(lambda rs: functools.reduce(
            xor, ((1 << max(a, b)) - (1 << min(a, b)) for a, b in rs), 0)),
        st.sets(st.integers(0, max(width - 1, 0)), max_size=8).map(
            lambda s: sum(1 << i for i in s)),
    ))


def channel_gains(rng, q):
    """A gain triple whose largest gain is q."""
    gains = [q, rng.randint(0, q), rng.randint(0, q)]
    rng.shuffle(gains)
    return ChannelParams(*gains)


def roundtrip_cases(rng, count):
    """Random decodable schemes with unit, mixed and random columns."""
    cases = []
    while len(cases) < count:
        p = channel_gains(rng, rng.randint(1, 12))
        a = Allocation(rng.getrandbits(p.n11), rng.getrandbits(p.n2))
        s = build_linear_scheme(a, p)
        kind = rng.choice(["unit", "mixed", "mixed-jam", "random"])
        if kind == "mixed":
            s = mixed(s)
        elif kind == "mixed-jam":  # same jam span: still decodes through the channel
            s = s._replace(B=mix(s.B), D=mix(s.D))
        elif kind == "random":
            s = s._replace(C=random_matrix(rng, p.q, len(s.A)),
                           D=random_matrix(rng, p.q, len(s.B)))
        if decodable(s):
            cases.append(s)
    return cases


class TestRunBasedRoundtrip:
    """The run-based encoder and rank verdict of ``simulate_roundtrip``
    against 0.22.0's per-level roundtrip: same draws, same verdicts."""

    @settings(derandomize=True, max_examples=500, database=None, deadline=None)
    @given(level_masks(), st.integers(0, (1 << 210) - 1))
    def test_encoder_matches_per_level_place(self, mask, v):
        assert verify._place(v, scheme._runs(mask)) == per_level_place(v, mask)

    def test_same_verdicts_as_0_22(self):
        cases = roundtrip_cases(random.Random(23), 300)
        cases += [miss_the_channel(*case) for case in MISS_THE_CHANNEL]
        verdicts = Counter()
        for s in cases:
            for seed in range(4):
                verdict = simulate_roundtrip(s, 20, seed)
                assert verdict == roundtrip_0_22(s, 20, seed), (s, seed)
                verdicts[verdict] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_same_verdicts_as_brute_force(self):
        # every input pair that could have sent y1, with no elimination: a
        # trial passes iff y1 is reached and every such pair carries w
        cases = [s for s in roundtrip_cases(random.Random(29), 400)
                 if len(s.C) + len(s.D) <= 8]
        # one flipped bit of C or one column of D dropped: often still decodable
        # by rank, but y1 from the channel is then not what C and D describe
        rng, broken = random.Random(31), []
        for s in cases:
            if s.C:
                j, bit = rng.randrange(len(s.C)), 1 << rng.randrange(s.params.q)
                broken.append(s._replace(C=s.C[:j] + (s.C[j] ^ bit,) + s.C[j + 1:]))
            if s.D:
                j = rng.randrange(len(s.D))
                broken.append(s._replace(D=s.D[:j] + s.D[j + 1:]))
        cases += [s for s in broken if decodable(s)]
        cases += [miss_the_channel(*case) for case in MISS_THE_CHANNEL]
        verdicts = Counter()
        for s in cases:
            senders = {}
            for w in range(1 << len(s.C)):
                for u in range(1 << len(s.D)):
                    senders.setdefault(apply(s.C, w) ^ apply(s.D, u), set()).add(w)
            k, m = len(s.A), len(s.B)
            for seed in range(3):
                rng = random.Random(seed)
                verdict = True
                for _ in range(20):
                    w = rng.getrandbits(k) if k else 0
                    u = rng.getrandbits(m) if m else 0
                    y1, _y2 = ldm_channel(per_level_place(w, s.allocation.message),
                                          per_level_place(u, s.allocation.jam), s.params)
                    if senders.get(y1) != {w}:
                        verdict = False
                        break
                assert simulate_roundtrip(s, 20, seed) == verdict, (s, seed)
                verdicts[verdict] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100


def naive_oracle(p):
    """Reference search: every message/jam subset pair, checked through the
    rank identities on built schemes."""
    best = 0
    for msg in itertools.chain.from_iterable(
        itertools.combinations(range(1, p.n11 + 1), r) for r in range(p.n11 + 1)
    ):
        for r in range(p.n2 + 1):
            for jam in itertools.combinations(range(1, p.n2 + 1), r):
                s = build_linear_scheme(Allocation(mask(*msg), mask(*jam)), p)
                if leakage(s) == 0 and decodable(s) and len(s.A) > best:
                    best = len(s.A)
    return best


def usable_levels(p, jam):
    """Message levels a jam bitset allows, level by level: level i must be
    invisible to the eavesdropper (i > n2) or covered by jam bit i, and no
    jam bit heard at the legitimate receiver (v <= n21) may land on it
    there (at i = v + n11 - n21)."""
    def jammed(v):
        return 1 <= v <= p.n2 and jam >> (v - 1) & 1

    return mask(*(
        i for i in range(1, p.n11 + 1)
        if (i > p.n2 or jammed(i))
        and not (i - (p.n11 - p.n21) <= p.n21 and jammed(i - (p.n11 - p.n21)))
    ))


def enumerated_oracle(p):
    """Reference search over every jam subset of the helper's levels as seen
    at the eavesdropper, 2^n2 per instance.  For a fixed jam set the
    eligibility of each message level is independent, so the search scores
    each jam set with shifted masks; the witness is read off the best one
    level by level with ``usable_levels``."""
    n11, n21, n2 = p.n11, p.n21, p.n2
    full11 = (1 << n11) - 1
    vis_at_y2 = (1 << min(n11, n2)) - 1
    invisible = full11 & ~vis_at_y2
    vis_at_y1 = (1 << min(n2, n21)) - 1
    offset = n11 - n21
    best = -1
    best_jam = 0
    for jam_mask in range(1 << n2):
        heard = jam_mask & vis_at_y1
        landing = (heard << offset) if offset >= 0 else (heard >> -offset)
        count = (~landing & (invisible | (jam_mask & vis_at_y2)) & full11).bit_count()
        if count > best:
            best, best_jam = count, jam_mask
    message = usable_levels(p, best_jam)
    assert message.bit_count() == best, p
    return best, Allocation(message, best_jam & message)


def dp_oracle(p):
    """Reference optimum by a two-state dynamic program along each jam-bit
    chain of stride |n11 - n21|, O(q) per instance, with backtracking to a
    witness.  Level i depends only on jam bits i and i - (n11 - n21)."""
    n11, n21, n2 = p.n11, p.n21, p.n2
    d = n11 - n21
    stride = abs(d) or 1

    def usable(i, cover, landing):
        return 1 <= i <= n11 and (cover or i > n2) and not (landing and i - d <= n21)

    jam = 0
    for first in range(1, stride + 1):
        chain = range(first, n11 + max(0, -d) + 1, stride)
        score, back = [0, -1], []  # best count so far, by the last jam bit
        for t in chain:
            # level i is settled here: it depends only on jam bits t - stride and t
            i = t if d >= 0 else t - stride
            new, arg = [-1, -1], [0, 0]
            for x in range(2 if t <= n2 else 1):
                for prev in (0, 1):
                    cover, landing = (x, prev) if d > 0 else (prev, x) if d < 0 else (x, x)
                    v = score[prev] + usable(i, cover, landing)
                    if score[prev] >= 0 and v > new[x]:
                        new[x], arg[x] = v, prev
            score = new
            back.append(arg)
        x = score.index(max(score))
        for t, arg in zip(reversed(chain), reversed(back)):
            jam |= x << t - 1
            x = arg[x]
    message = usable_levels(p, jam)
    return message.bit_count(), Allocation(message, jam & message)


def assert_witness_verifies(p, rate, witness):
    # the oracle's closed-form witness is what the per-level rule allows
    assert witness.message == usable_levels(p, witness.jam), p
    s = build_linear_scheme(witness, p)
    assert leakage(s) == 0, p
    assert decodable(s), p
    assert len(s.A) == rate, p


class TestOracle:
    def test_helper_inaudible_at_receiver_still_jams(self):
        # n21 = 0: the jam reaches the eavesdropper at gain n2 and never
        # disturbs the legitimate receiver, so every level is securable.
        rate, witness = oracle_best_rate(ChannelParams(3, 0, 3))
        assert rate == 3
        s = build_linear_scheme(witness, ChannelParams(3, 0, 3))
        assert leakage(s) == 0 and decodable(s)

    def test_strong_helper_instance(self):
        assert oracle_best_rate(ChannelParams(3, 6, 3))[0] == 3

    def test_aligned_instance_meets_formula_anchor(self):
        rate, _ = oracle_best_rate(ChannelParams(4, 3, 4))
        assert rate >= r_achievable(ChannelParams(4, 3, 4)).r_ach == 2
        assert rate == 2  # ub1 = 2.5 caps it

    def test_no_size_cap(self):
        # jamming the two levels the eavesdropper hears would land on the
        # message, so 11 is the optimum
        p = ChannelParams(13, 2, 2)
        assert oracle_best_rate(p)[0] == 11 == r_achievable(p).r_ach

    def test_witness_always_verifies(self):
        for p in (ChannelParams(6, 4, 5), ChannelParams(7, 5, 6),
                  ChannelParams(5, 5, 5), ChannelParams(8, 3, 8)):
            assert_witness_verifies(p, *oracle_best_rate(p))

    def test_matches_jam_subset_enumeration_q12(self):
        for p in iter_instances(12):
            rate, witness = oracle_best_rate(p)
            assert rate == enumerated_oracle(p)[0], p
            assert_witness_verifies(p, rate, witness)

    def test_matches_dp_q24(self):
        # same rate and, by the same tie-breaking, the same witness
        for p in iter_instances(24):
            rate, witness = oracle_best_rate(p)
            assert (rate, witness) == dp_oracle(p), p
            assert_witness_verifies(p, rate, witness)

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 200))
    def test_between_formula_and_converse(self, n11, n21, n2):
        p = ChannelParams(n11, n21, n2)
        rate, witness = oracle_best_rate(p)
        assert (rate, witness) == dp_oracle(p)
        assert r_achievable(p).r_ach <= rate <= upper_bounds(p).min_ub
        assert_witness_verifies(p, rate, witness)

    def test_matches_naive_enumeration_small_grid(self):
        for n11 in range(5):
            for n21 in range(5):
                for n2 in range(5):
                    p = ChannelParams(n11, n21, n2)
                    assert oracle_best_rate(p)[0] == naive_oracle(p), p

    def test_matches_naive_enumeration_spot_checks(self):
        for triple in ((5, 3, 4), (5, 4, 5), (6, 4, 5), (6, 2, 6), (5, 5, 3)):
            p = ChannelParams(*triple)
            assert oracle_best_rate(p)[0] == naive_oracle(p), p

    def test_known_strict_gap_instance(self):
        # the partition formula forfeits the remainder next to the private
        # part; a finer allocation reaches the converse here
        p = ChannelParams(6, 4, 5)
        assert r_achievable(p).r_ach == 3
        assert oracle_best_rate(p)[0] == 4 == upper_bounds(p).min_ub


class TestRankIdentityAgainstEnumeration:
    def test_random_schemes(self):
        rng = random.Random(99)
        for _ in range(60):
            q = rng.randint(1, 8)
            k = rng.randint(0, 5)
            m = rng.randint(0, min(5, 10 - k))
            A = random_matrix(rng, q, k)
            B = random_matrix(rng, q, m)
            s = make_scheme(A, B, A, B)
            mi = enumerated_mutual_information(A, B, k, m)
            assert abs(leakage(s) - mi) < 1e-9


class TestRunVerification:
    def test_small_grid_passes(self, capsys):
        run = run_verification(6, with_oracle=True, seed=1)
        assert run.ok
        assert run.instances == 7**3
        singular = sum(
            1 for n in range(7) for m in range(7)
            if r_achievable(ChannelParams(n, n, m)).case_tag is CaseTag.SINGULAR
        )
        assert run.schemes_checked == run.instances - singular
        assert run.singular_instances == singular
        # the CLI renders the finding line from the count
        assert main(["verify", "--max-q", "6", "--oracle", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert (f"finding: {singular} singular instances (n11 == n21): no alignment "
                "scheme; private-only rate reported\n") in out

    def test_oracle_gaps_are_data(self, capsys):
        # every instance where the oracle beats the formula, in grid order; the
        # CLI renders the finding line from the first ten
        run = run_verification(11, with_oracle=True)
        want = [OracleGap(p, oracle_best_rate(p)[0], r_achievable(p).r_ach)
                for p in iter_instances(11)]
        assert run.oracle_gaps == tuple(g for g in want if g.oracle_rate > g.formula_rate)
        assert len(run.oracle_gaps) == 10
        shown = "; ".join(f"ChannelParams(n11={g.params.n11}, n21={g.params.n21}, "
                          f"n2={g.params.n2}): oracle reaches {g.oracle_rate}, formula gives "
                          f"{g.formula_rate}" for g in run.oracle_gaps)
        assert main(["verify", "--max-q", "11", "--oracle"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ("finding: 10 instances where the exhaustive oracle beats the "
                "partition formula (bit-level granularity): " + shown) in lines
        assert len(run_verification(12, with_oracle=True).oracle_gaps) > 10
        assert run_verification(11).oracle_gaps == ()

    def test_grid_cap_is_checked_before_any_instance(self, monkeypatch):
        def no_instances(max_q):
            raise AssertionError("an instance was built past the grid cap")

        monkeypatch.setattr(verify, "iter_instances", no_instances)
        with pytest.raises(ParameterError, match="capped at max-q 64"):
            run_verification(verify.SCHEME_CHECK_CAP + 1)

    def test_negative_max_q_is_checked_before_any_instance(self, monkeypatch):
        def no_instances(max_q):
            raise AssertionError("an instance was built for a negative max_q")

        monkeypatch.setattr(verify, "iter_instances", no_instances)
        with pytest.raises(ParameterError, match="^max_q must be a nonnegative integer, got -1$"):
            run_verification(-1)

    @pytest.mark.parametrize("max_q", [2.5, "3", None, 3.0, True, 2.0, 1.5, F(2), "1"])
    def test_non_integer_max_q_is_checked_before_any_instance(self, monkeypatch, max_q):
        def no_instances(max_q):
            raise AssertionError("an instance was built for a non-integer max_q")

        monkeypatch.setattr(verify, "iter_instances", no_instances)
        with pytest.raises(ParameterError) as exc:
            run_verification(max_q)
        assert str(exc.value) == f"max_q must be a nonnegative integer, got {max_q!r}"

    @pytest.mark.parametrize("seed", [[1], 1.5, "x", True, False, None, 2.0, F(2), "1"])
    def test_non_integer_seed_is_checked_before_any_instance(self, monkeypatch, seed):
        def no_instances(max_q):
            raise AssertionError("an instance was built for a non-integer seed")

        monkeypatch.setattr(verify, "iter_instances", no_instances)
        with pytest.raises(ParameterError) as exc:
            run_verification(4, seed=seed)
        assert str(exc.value) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("with_oracle", ["no", 0.0, [], None, 1])
    def test_non_bool_with_oracle_is_checked_before_any_instance(self, monkeypatch,
                                                                 with_oracle):
        def no_instances(max_q):
            raise AssertionError("an instance was built for a non-bool with_oracle")

        monkeypatch.setattr(verify, "iter_instances", no_instances)
        with pytest.raises(ParameterError) as exc:
            run_verification(2, with_oracle=with_oracle)
        assert str(exc.value) == f"with_oracle must be a bool, got {with_oracle!r}"

    @pytest.mark.parametrize("with_oracle,searches", [(True, 27), (False, 0)])
    def test_bool_with_oracle_runs(self, with_oracle, searches):
        run = run_verification(2, with_oracle=with_oracle)
        assert run.ok and run.oracle_checked == searches

    def test_grid_without_a_scheme_is_not_ok(self):
        # q <= 0 holds only the singular instance (0, 0, 0)
        run = run_verification(0)
        assert run.schemes_checked == 0
        assert not run.ok
        assert any("no scheme was checked" in f for f in run.failures)

    def test_roundtrip_sample_spans_the_grid(self, monkeypatch):
        # a uniform sample of the decodable schemes with k > 0, not the first
        # ones the grid reaches
        seen = []
        real = verify.simulate_roundtrip
        monkeypatch.setattr(verify, "simulate_roundtrip",
                            lambda s, *rest: seen.append(s) or real(s, *rest))
        assert run_verification(24, seed=0).ok
        assert len(seen) == len({s.params for s in seen}) == verify.ROUNDTRIP_SAMPLES == 25
        assert all(s.A and decodable(s) for s in seen)
        assert max(s.params.n11 for s in seen) >= 12
        # an aligned scheme whose message spans several runs of levels
        assert any(r_achievable(s.params).case_tag is CaseTag.ALIGNED
                   and (s.allocation.message & ~(s.allocation.message << 1)).bit_count() > 2
                   for s in seen)

    def test_small_grid_roundtrips_every_scheme(self, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "simulate_roundtrip",
                            lambda s, *rest: seen.append(s.params) or True)
        run_verification(2, seed=3)
        eligible = [p for p in iter_instances(2)
                    if r_achievable(p).case_tag is not CaseTag.SINGULAR and constructed(p).A]
        assert seen == eligible  # fewer than ROUNDTRIP_SAMPLES, in grid order

    def test_sample_is_a_function_of_the_seed(self, monkeypatch):
        def sample(seed):
            seen = []
            monkeypatch.setattr(verify, "simulate_roundtrip",
                                lambda s, *rest: seen.append(s.params) or True)
            assert run_verification(6, seed=seed).ok
            return seen

        first = sample(7)
        assert len(first) == verify.ROUNDTRIP_SAMPLES
        assert sample(7) == first
        assert sample(8) != first

    def test_no_sample_when_the_sample_size_is_zero(self, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "ROUNDTRIP_SAMPLES", 0)
        monkeypatch.setattr(verify, "simulate_roundtrip",
                            lambda s, *rest: seen.append(s) or True)
        run = run_verification(4, seed=1)
        assert run.ok and run.schemes_checked == 100
        assert seen == []

    def test_sample_is_uniform_over_seeds(self, monkeypatch):
        # 2,000 seeds on the q <= 4 grid (80 eligible schemes): each scheme's
        # count is Binomial(2000, 25/80), and a skewed skip would move the
        # schemes past the first 25 by far more than 5 sigma
        # every per-instance step is a pure function: each runs once per instance
        for name in ("_rate_kernel", "_doubled_bounds", "_allocation", "build_linear_scheme",
                     "leakage", "decodable"):
            monkeypatch.setattr(verify, name, functools.cache(getattr(verify, name)))
        grid = list(iter_instances(4))
        monkeypatch.setattr(verify, "iter_instances", lambda max_q: grid)
        counts = Counter()
        monkeypatch.setattr(verify, "simulate_roundtrip",
                            lambda s, *rest: counts.update([s.params]) or True)
        seeds, k = 2000, verify.ROUNDTRIP_SAMPLES
        for seed in range(seeds):
            run_verification(4, seed=seed)
        eligible = [p for p in iter_instances(4)
                    if r_achievable(p).case_tag is not CaseTag.SINGULAR and constructed(p).A]
        assert len(eligible) == 80 and set(counts) == set(eligible)
        assert sum(counts.values()) == seeds * k
        p = k / len(eligible)
        sigma = math.sqrt(seeds * p * (1 - p))
        assert all(abs(counts[e] - seeds * p) < 5 * sigma for e in eligible)

    @pytest.mark.parametrize("max_q,seed", [(4, 0), (6, 7), (9, -3), (12, 2**70)])
    def test_sample_is_the_smallest_keys(self, monkeypatch, max_q, seed):
        # bottom-k: each eligible scheme draws a 64-bit key in grid order, and
        # the 25 smallest keys are decoded, in grid order; any int seeds it
        seen = []
        monkeypatch.setattr(verify, "simulate_roundtrip",
                            lambda s, *rest: seen.append(s.params) or True)
        assert run_verification(max_q, seed=seed).ok
        getrandbits = random.Random(seed).getrandbits
        keys = {}
        for p in iter_instances(max_q):
            if r_achievable(p).case_tag is not CaseTag.SINGULAR:
                s = constructed(p)
                if decodable(s) and s.A:
                    keys[p] = getrandbits(64)
        smallest = sorted(keys, key=keys.get)[:verify.ROUNDTRIP_SAMPLES]
        assert seen == [p for p in keys if p in smallest]
        assert len(seen) == verify.ROUNDTRIP_SAMPLES

    @pytest.mark.parametrize("samples", [0, 1, 25])
    @pytest.mark.parametrize("seed", [0, 5, -3])
    def test_equal_keys_at_the_cut(self, monkeypatch, samples, seed):
        # keys from range(4) force ties: the sample holds the smallest keys, and
        # of equal keys at the cut the later instance stays.  Draws of any
        # other width (the roundtrip's) are the real ones.
        class TiedKeys(random.Random):
            def getrandbits(self, k):
                v = super().getrandbits(k)
                return v % 4 if k == 64 else v

        getrandbits = TiedKeys(seed).getrandbits
        eligible = [p for p in iter_instances(6)
                    if r_achievable(p).case_tag is not CaseTag.SINGULAR and constructed(p).A]
        keys = [getrandbits(64) for _ in eligible]  # in grid order
        kept = set()
        if samples:
            cut = sorted(keys)[samples - 1]
            below = [p for key, p in zip(keys, eligible) if key < cut]
            at_cut = [p for key, p in zip(keys, eligible) if key == cut]
            need = samples - len(below)
            assert len(at_cut) > need  # the cut falls inside a run of equal keys
            kept = set(below + at_cut[len(at_cut) - need:])
        seen = []
        monkeypatch.setattr(verify, "ROUNDTRIP_SAMPLES", samples)
        monkeypatch.setattr(verify.random, "Random", TiedKeys)
        real = verify.simulate_roundtrip
        monkeypatch.setattr(verify, "simulate_roundtrip",
                            lambda s, *rest: seen.append(s.params) or real(s, *rest))
        assert run_verification(6, seed=seed).ok
        assert seen == [p for p in eligible if p in kept]  # in grid order

    def test_sample_is_pinned(self, monkeypatch):
        # integer draws only: every supported Python picks these for seed 7
        seen = []
        monkeypatch.setattr(verify, "simulate_roundtrip",
                            lambda s, *rest: seen.append(s.params) or True)
        assert run_verification(6, seed=7).ok
        assert seen == [
            (1, 0, 2), (1, 0, 4), (1, 2, 1), (1, 2, 5), (1, 3, 3), (1, 3, 5), (1, 5, 3),
            (2, 0, 2), (2, 1, 1), (2, 3, 1), (2, 4, 2), (2, 4, 3), (2, 4, 6), (3, 2, 1),
            (3, 2, 4), (4, 1, 1), (4, 5, 6), (5, 3, 0), (5, 4, 0), (5, 6, 5), (6, 0, 3),
            (6, 0, 6), (6, 2, 2), (6, 3, 4), (6, 4, 4)]

    def test_rate_kernel_runs_once_per_instance(self, monkeypatch):
        # the allocation is built from the grid's kernel result, not a second call
        calls = Counter()
        real = scheme._rate_kernel
        for module in (scheme, verify):
            monkeypatch.setattr(module, "_rate_kernel",
                                lambda *gains: calls.update([gains]) or real(*gains))
        run = run_verification(6)
        assert run.ok
        assert sum(calls.values()) == len(calls) == run.instances

    def test_grid_builds_no_rate_breakdown(self, monkeypatch):
        # the grid reads the kernel's (r_private, r_common, tag) as it is
        built = []
        real = scheme.RateBreakdown
        monkeypatch.setattr(scheme, "RateBreakdown", lambda *f: built.append(f) or real(*f))
        assert r_achievable(ChannelParams(10, 8, 10)).r_ach == 6
        assert len(built) == 1  # the patch sees every record r_achievable builds
        assert run_verification(6, with_oracle=True).ok
        assert len(built) == 1


def mix(columns):
    """Columns c_j ^ c_(j-1): an invertible change of input basis, which
    keeps every rank in ``leakage`` and ``decodable`` but is not unit."""
    return tuple(c ^ prev for prev, c in zip((0,) + columns, columns))


def mix_built_schemes(monkeypatch):
    # the roundtrip runs the channel itself, which mixed maps no longer describe
    monkeypatch.setattr(verify, "ROUNDTRIP_SAMPLES", 0)
    monkeypatch.setattr(verify, "build_linear_scheme", lambda a, p: mixed(
        build_linear_scheme(a, p)))


def mixed(s):
    return LinearScheme(A=mix(s.A), B=mix(s.B), C=mix(s.C), D=mix(s.D),
                        allocation=s.allocation, params=s.params)


def constructed(p):
    return build_linear_scheme(construct_allocation(p), p)


def assert_doubled_bounds_are_exact(p):
    ub = upper_bounds(p)
    assert _doubled_bounds(p.n11, p.n21, p.n2) == (2 * ub.ub1, 2 * ub.ub2, 2 * ub.ub3), p


class TestAboveTheGridCap:
    def test_sampled_schemes_pass_the_grid_checks(self, monkeypatch):
        # instances with q in 65..1,000 compile through ``_reached_columns``, which
        # no grid reaches; each gets every check ``run_verification`` makes
        reached = []
        real = scheme._reached_columns
        monkeypatch.setattr(scheme, "_reached_columns",
                            lambda q, *args: reached.append(q) or real(q, *args))
        rng, checked = random.Random(28), 0
        while checked < 30:
            n11, n21, n2 = (rng.randint(0, 1000) for _ in range(3))
            if max(n11, n21, n2) <= scheme.SCHEME_CHECK_CAP or n11 == n21:
                continue
            p = ChannelParams(n11, n21, n2)
            rp, rc, tag = scheme._rate_kernel(n11, n21, n2)
            s = build_linear_scheme(scheme._allocation(p, rp, tag), p)
            assert s.allocation.message.bit_count() == len(s.A) == rp + rc, p
            assert leakage(s) == 0 and decodable(s), p
            twice_ub = min(_doubled_bounds(n11, n21, n2))
            rate, _ = oracle_best_rate(p)
            assert rp + rc <= rate and 2 * rate <= twice_ub, p
            if s.A:
                assert simulate_roundtrip(s, 50, seed=checked), p
            checked += 1
        assert len(reached) == 2 * checked  # one call per mask of each build
        assert all(q > scheme.SCHEME_CHECK_CAP for q in reached)
        assert max(scheme._UNIT_COLUMNS, default=0) <= scheme.SCHEME_CHECK_CAP


class TestIntegerChecks:
    def test_every_instance_to_q16(self):
        for p in iter_instances(16):
            assert_doubled_bounds_are_exact(p)

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.integers(0, 64), st.integers(0, 64), st.integers(0, 64))
    def test_up_to_q64(self, n11, n21, n2):
        assert_doubled_bounds_are_exact(ChannelParams(n11, n21, n2))

    def test_mixed_columns_keep_the_verdict(self):
        for p in iter_instances(8):
            if r_achievable(p).case_tag is CaseTag.SINGULAR:
                continue
            s = constructed(p)
            g = mixed(s)
            assert (leakage(g), decodable(g)) == (leakage(s), decodable(s)), p

    def test_grid_of_non_unit_schemes_gets_the_same_verdict(self, monkeypatch):
        calls = Counter()

        def counting(f):
            def wrapper(s):
                calls[f.__name__] += 1
                return f(s)
            return wrapper

        monkeypatch.setattr(verify, "ROUNDTRIP_SAMPLES", 0)
        base = run_verification(8, with_oracle=True, seed=2)
        mix_built_schemes(monkeypatch)
        monkeypatch.setattr(verify, "leakage", counting(leakage))
        run = run_verification(8, with_oracle=True, seed=2)
        assert calls["leakage"] > 0
        assert run == base and run.ok


# (3, 2, 3) is aligned: message and jam on levels 1 and 3; jam level 1 lands
# on level 2 at the legitimate receiver.  (2, 3, 2) has converse 3/2.
ALIGNED, HALF = ChannelParams(3, 2, 3), ChannelParams(2, 3, 2)


def verify_with_fault(monkeypatch, capsys, name, target, fault, *flags):
    real = getattr(verify, name)

    def instance(*args):
        # the rate kernel takes the gains, the other functions the instance first
        return args if name == "_rate_kernel" else args[0]

    monkeypatch.setattr(verify, name, lambda *args: fault(real(*args))
                        if instance(*args) == target else real(*args))
    code = main(["verify", "--max-q", "3", *flags])
    out = capsys.readouterr().out
    assert code == 1
    assert out.endswith("result: FAILED\n")
    return [line[len("FAIL: "):] for line in out.splitlines() if line.startswith("FAIL: ")]


class TestFaultInjection:
    @pytest.mark.parametrize("fault,failures", [
        (lambda a: Allocation(a.message, a.jam & ~mask(1)),
         ["constructed scheme leaks 1 bits"]),
        (lambda a: Allocation(mask(1, 2), mask(1, 2)),
         ["constructed scheme is not decodable"]),
        (lambda a: Allocation(a.message | mask(2), a.jam),
         ["construction carries 3 bits, formula says 2",
          "constructed scheme leaks 1 bits", "constructed scheme is not decodable"]),
    ], ids=["jam-bit-dropped", "message-on-landing-level", "message-bit-added"])
    @pytest.mark.parametrize("columns", ["unit", "mixed"])
    def test_broken_construction(self, monkeypatch, capsys, fault, failures, columns):
        if columns == "mixed":
            mix_built_schemes(monkeypatch)
        # the grid builds each allocation from its r_achievable result
        got = verify_with_fault(monkeypatch, capsys, "_allocation", ALIGNED, fault)
        assert got == [f"{ALIGNED}: {line}" for line in failures]

    def test_rate_above_converse(self, monkeypatch, capsys):
        got = verify_with_fault(monkeypatch, capsys, "_rate_kernel", HALF,
                                lambda kernel: (0, 2, kernel[2]))
        assert got == [f"{HALF}: achievable 2 exceeds converse 3/2",
                       f"{HALF}: construction carries 1 bits, formula says 2"]

    def test_oracle_above_converse(self, monkeypatch, capsys):
        got = verify_with_fault(monkeypatch, capsys, "oracle_best_rate", HALF,
                                lambda found: (2, found[1]), "--oracle")
        assert got == [f"{HALF}: oracle best 2 exceeds converse 3/2"]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_channel_without_the_user_signal(self, monkeypatch, seed):
        # the grid runs the roundtrip's rank verdict: with x1 dropped from the
        # channel, exactly the sampled schemes fail, in grid order
        sampled, real = [], verify.simulate_roundtrip
        monkeypatch.setattr(verify, "simulate_roundtrip",
                            lambda s, *rest: sampled.append(s.params) or real(s, *rest))
        assert run_verification(8, seed=seed).ok
        assert len(sampled) == verify.ROUNDTRIP_SAMPLES
        expected = tuple(f"{p}: roundtrip decoding failed" for p in sampled)
        channel = verify.ldm_channel
        monkeypatch.setattr(verify, "ldm_channel", lambda x1, x2, p: channel(0, x2, p))
        assert run_verification(8, seed=seed).failures == expected
        assert sampled[25:] == sampled[:25] == sorted(sampled[:25])

    def test_oracle_below_formula(self, monkeypatch):
        # one bit short of every positive rate: each instance where the oracle
        # meets the formula (it is no gap) and is above 0 fails, and no other
        base = run_verification(8, with_oracle=True)
        gaps = {g.params for g in base.oracle_gaps}
        expected = tuple(f"{p}: oracle best {r - 1} below formula {r}"
                         for p in iter_instances(8)
                         if p not in gaps and (r := r_achievable(p).r_ach) > 0)
        assert base.ok and len(expected) > 400
        real = verify.oracle_best_rate

        def one_bit_short(p):
            rate, witness = real(p)
            return max(rate - 1, 0), witness

        monkeypatch.setattr(verify, "oracle_best_rate", one_bit_short)
        assert run_verification(8, with_oracle=True).failures == expected
