"""Rate formulas and the partition-aligned allocation construction."""

import gc
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from wiretap_helper import (
    Allocation,
    CaseTag,
    ChannelParams,
    ParameterError,
    build_linear_scheme,
    construct_allocation,
    decodable,
    l_func,
    ldm_channel,
    leakage,
    oracle_best_rate,
    phi1,
    phi2,
    r_achievable,
    upper_bounds,
)
from wiretap_helper import cli, scheme
from wiretap_helper.verify import SCHEME_CHECK_CAP, iter_instances


def mask(*levels):
    """Level bitset: bit i holds level i + 1."""
    return sum(1 << (level - 1) for level in set(levels))


class TestLFunc:
    @pytest.mark.parametrize("p,q,expected", [(10, 4, 2), (10, 0, 0), (0, 7, 0)])
    def test_examples(self, p, q, expected):
        assert l_func(p, q) == expected


class TestPhi:
    @pytest.mark.parametrize("p,q,expected", [(10, 4, 4), (12, 4, 4), (5, 0, 0), (9, 0, 0)])
    def test_phi1_examples(self, p, q, expected):
        assert phi1(p, q) == expected

    @pytest.mark.parametrize("p,q,expected", [(10, 4, 6), (12, 4, 8), (5, 5, 5)])
    def test_phi2_examples(self, p, q, expected):
        assert phi2(p, q) == expected

    def test_phi1_never_exceeds_phi2(self):
        for p in range(0, 61):
            for q in range(0, 61):
                assert phi1(p, q) <= phi2(p, q)

    def test_integer_results_for_integer_arguments(self):
        for p in range(0, 40):
            for q in range(0, 40):
                assert isinstance(phi1(p, q), int)
                assert isinstance(phi2(p, q), int)


# Every reader of an int argument that has no table of its own, fed one value
# that is no int (the other arguments are valid), with the message it raises.
P312 = ChannelParams(3, 1, 2)
L_FUNC_MESSAGE = "l(p, q) expects nonnegative arguments"
LDM_MESSAGE = "channel inputs must be bitsets of length q=3"
INT_READERS = {
    "l_func.p": (lambda v: l_func(v, 2), L_FUNC_MESSAGE),
    "l_func.q": (lambda v: l_func(5, v), L_FUNC_MESSAGE),
    "phi1.p": (lambda v: phi1(v, 2), L_FUNC_MESSAGE),
    "phi1.q": (lambda v: phi1(5, v), L_FUNC_MESSAGE),
    "phi2.p": (lambda v: phi2(v, 2), L_FUNC_MESSAGE),
    "phi2.q": (lambda v: phi2(5, v), L_FUNC_MESSAGE),
    "build_linear_scheme.message": (lambda v: build_linear_scheme(Allocation(v, 0), P312),
                                    "message levels must be an int bitset, got {!r}"),
    "build_linear_scheme.jam": (lambda v: build_linear_scheme(Allocation(1, v), P312),
                                "jam levels must be an int bitset, got {!r}"),
    "ldm_channel.x1": (lambda v: ldm_channel(v, 0, P312), LDM_MESSAGE),
    "ldm_channel.x2": (lambda v: ldm_channel(1, v, P312), LDM_MESSAGE),
}


@pytest.mark.parametrize("value", [True, 2.0, 1.5, F(2), "1", None], ids=repr)
@pytest.mark.parametrize("reader", sorted(INT_READERS))
def test_a_value_that_is_no_int_is_refused(reader, value):
    call, message = INT_READERS[reader]
    with pytest.raises(ParameterError) as exc:
        call(value)
    assert str(exc.value) == message.format(value)


class TestRPrivate:
    @pytest.mark.parametrize(
        "n11,n2,expected", [(10, 10, 0), (10, 6, 4), (4, 9, 0)]
    )
    def test_examples(self, n11, n2, expected):
        assert r_achievable(ChannelParams(n11, 5, n2)).r_private == expected


class TestRAchievable:
    def test_weak_helper_example(self):
        br = r_achievable(ChannelParams(10, 6, 10))
        assert (br.r_ach, br.case_tag) == (6, CaseTag.WEAK_HELPER)

    def test_aligned_example(self):
        br = r_achievable(ChannelParams(10, 8, 10))
        assert (br.r_ach, br.case_tag) == (6, CaseTag.ALIGNED)
        assert br.r_private == 0 and br.r_common == 6

    def test_strong_helper_example(self):
        br = r_achievable(ChannelParams(4, 8, 4))
        assert (br.r_ach, br.case_tag) == (4, CaseTag.STRONG_HELPER)

    def test_singular_reports_private_rate(self):
        br = r_achievable(ChannelParams(10, 10, 7))
        assert br.case_tag is CaseTag.SINGULAR
        assert br.r_ach == br.r_private == 3

    def test_zero_direct_gain(self):
        assert r_achievable(ChannelParams(0, 3, 2)).case_tag is CaseTag.STRONG_HELPER
        assert r_achievable(ChannelParams(0, 3, 2)).r_ach == 0
        assert r_achievable(ChannelParams(0, 0, 2)).case_tag is CaseTag.SINGULAR

    def test_case_boundaries_are_exact(self):
        # ratio 2/3 belongs to the aligned case, ratio 2 to the strong case
        assert r_achievable(ChannelParams(9, 6, 9)).case_tag is CaseTag.ALIGNED
        assert r_achievable(ChannelParams(9, 18, 9)).case_tag is CaseTag.STRONG_HELPER
        assert r_achievable(ChannelParams(9, 5, 9)).case_tag is CaseTag.WEAK_HELPER

    def test_rate_sandwich_on_grid(self):
        for p in iter_instances(12):
            br = r_achievable(p)
            assert br.r_private <= br.r_ach <= p.n11
            assert br.r_private >= 0 and br.r_common >= 0 and br.r_ach >= 0
            if br.case_tag is CaseTag.ALIGNED:
                assert br.r_ach == br.r_private + br.r_common

    def test_monotone_in_direct_gain_weak_and_strong_cases(self):
        # In the aligned case the value genuinely oscillates with n11: the
        # partition size delta = |n11 - n21| changes, e.g. (5,9,6) -> 4 but
        # (6,9,6) -> 3, and the exhaustive oracle confirms the drop is real
        # for one-shot level schemes.  Only the weak and strong expressions
        # are monotone, so only those are asserted; aligned drops are counted.
        aligned_drops = 0
        for n21 in range(0, 31):
            for n2 in range(0, 31):
                prev = None
                for n11 in range(0, 31):
                    br = r_achievable(ChannelParams(n11, n21, n2))
                    if prev is not None and br.case_tag is prev.case_tag:
                        if br.case_tag in (CaseTag.WEAK_HELPER, CaseTag.STRONG_HELPER):
                            assert br.r_ach >= prev.r_ach
                        elif br.r_ach < prev.r_ach:
                            aligned_drops += 1
                    prev = br
        assert aligned_drops > 0  # the oscillation exists and is tolerated

    def test_aligned_oscillation_matches_oracle(self):
        # the one-shot optimum itself drops from (5,9,6) to (6,9,6)
        from wiretap_helper import oracle_best_rate

        assert r_achievable(ChannelParams(5, 9, 6)).r_ach == 4
        assert r_achievable(ChannelParams(6, 9, 6)).r_ach == 3
        assert oracle_best_rate(ChannelParams(5, 9, 6))[0] == 4
        assert oracle_best_rate(ChannelParams(6, 9, 6))[0] == 3


class TestConstructAllocation:
    def test_aligned_odd_partitions(self):
        a = construct_allocation(ChannelParams(10, 8, 10))
        assert a.message == a.jam == mask(1, 2, 5, 6, 9, 10)

    def test_strong_helper_uses_top_levels(self):
        a = construct_allocation(ChannelParams(4, 8, 4))
        assert a.message == a.jam == mask(1, 2, 3, 4)

    def test_weak_helper_jamming_winner_is_two_slices(self):
        a = construct_allocation(ChannelParams(10, 6, 10))
        assert a.message == mask(1, 2, 3, 4, 9, 10)
        assert a.message.bit_count() == 6

    def test_singular_raises(self):
        # one refusal type: a singular instance raises the ParameterError of any bad argument
        with pytest.raises(ParameterError, match="^no alignment scheme for n11=7, n21=7: "
                                                 "equal gains leave nothing to align against$"):
            construct_allocation(ChannelParams(7, 7, 3))

    def test_message_count_matches_formula_on_grid(self):
        for p in iter_instances(14):
            br = r_achievable(p)
            if br.case_tag is CaseTag.SINGULAR:
                continue
            a = construct_allocation(p)
            assert a.message.bit_count() == br.r_ach, p

    def test_jam_never_lands_on_message_levels(self):
        # the delta offset pushes every audible jam bit onto unused levels
        for p in iter_instances(12):
            if r_achievable(p).case_tag is CaseTag.SINGULAR:
                continue
            a = construct_allocation(p)
            landing = {
                v + p.n11 - p.n21
                for v in range(1, p.n2 + 1)
                if a.jam >> (v - 1) & 1 and v <= p.n21 and 1 <= v + p.n11 - p.n21 <= p.n11
            }
            assert not mask(*landing) & a.message, p

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.integers(0, 64), st.integers(0, 64), st.integers(0, 64))
    def test_allocation_properties(self, n11, n21, n2):
        p = ChannelParams(n11, n21, n2)
        br = r_achievable(p)
        if br.case_tag is CaseTag.SINGULAR:
            with pytest.raises(ParameterError, match="^no alignment scheme for "):
                construct_allocation(p)
            return
        a = construct_allocation(p)
        assert a.message.bit_count() == br.r_ach
        assert a.jam == a.message & mask(*range(1, n2 + 1))
        s = build_linear_scheme(a, p)
        assert leakage(s) == 0
        assert decodable(s)


class TestBuildLinearScheme:
    def test_empty_allocation(self):
        p = ChannelParams(5, 3, 4)
        s = build_linear_scheme(Allocation(0, 0), p)
        assert len(s.A) == 0 and len(s.B) == 0
        assert s.A == s.B == s.C == s.D == ()

    def test_constructed_scheme_is_secret_and_decodable(self):
        p = ChannelParams(10, 8, 10)
        s = build_linear_scheme(construct_allocation(p), p)
        assert len(s.A) == 6 and len(s.B) == 6
        assert leakage(s) == 0
        assert decodable(s)

    def test_private_only_message_vanishes_at_eavesdropper(self):
        p = ChannelParams(10, 2, 6)
        s = build_linear_scheme(Allocation(mask(7, 8, 9, 10), 0), p)
        assert len(s.A) == 4 and len(s.B) == 0
        assert all(c == 0 for c in s.A)
        assert leakage(s) == 0 and decodable(s)

    def test_out_of_range_levels_rejected(self):
        p = ChannelParams(5, 3, 4)
        with pytest.raises(ParameterError):
            build_linear_scheme(Allocation(mask(6), 0), p)
        with pytest.raises(ParameterError):
            build_linear_scheme(Allocation(mask(1), mask(5)), p)
        with pytest.raises(ParameterError):
            build_linear_scheme(Allocation(-1, 0), p)
        with pytest.raises(ParameterError):
            build_linear_scheme(Allocation(0, -2), p)

    def test_column_order_follows_level_order(self):
        p = ChannelParams(4, 2, 4)
        a = Allocation(mask(3, 1), mask(2))
        s = build_linear_scheme(a, p)
        assert s.allocation == a
        assert s.C == (1 << 0, 1 << 2)

    @settings(derandomize=True, max_examples=400, database=None, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.data())
    def test_matches_per_level_shifts(self, n11, n21, n2, data):
        # reference: shift each allocated level on its own, zero past q
        p = ChannelParams(n11, n21, n2)
        a = Allocation(data.draw(st.integers(0, (1 << n11) - 1)),
                       data.draw(st.integers(0, (1 << n2) - 1)))
        msg = [1 << i for i in range(n11) if a.message >> i & 1]
        jam = [1 << i for i in range(n2) if a.jam >> i & 1]
        full = (1 << p.q) - 1
        s = build_linear_scheme(a, p)
        assert s.A == tuple(b << p.q - n2 & full for b in msg)
        assert s.B == tuple(b << p.q - n2 & full for b in jam)
        assert s.C == tuple(b << p.q - n11 & full for b in msg)
        assert s.D == tuple(b << p.q - n21 & full for b in jam)


def per_bit_columns(mask, shift1, shift2, q):
    """Reference for ``scheme._columns`` and ``scheme._reached_columns``:
    every set bit shifted on its own, truncated at q."""
    full = (1 << q) - 1
    levels = [1 << i for i in range(q) if mask >> i & 1]
    return (tuple(b << shift1 & full for b in levels),
            tuple(b << shift2 & full for b in levels))


def union_of_runs(runs):
    """Levels lo + 1 .. hi of each pair (lo, hi), in either order."""
    mask = 0
    for a, b in runs:
        mask |= ((1 << max(a, b)) - 1) ^ ((1 << min(a, b)) - 1)
    return mask


@st.composite
def column_jobs(draw):
    """(mask, shift1, shift2, q): a mask within levels 1..q, shifts 0..q."""
    q = draw(st.integers(0, 200))
    full = (1 << q) - 1
    level = st.integers(0, q)
    masks = [st.just(0), st.just(full), st.integers(0, full),
             st.lists(st.tuples(level, level), max_size=4).map(union_of_runs)]
    if q:
        masks.append(st.integers(0, q - 1).map(lambda i: 1 << i))  # one isolated level
        masks.append(st.sets(st.integers(0, q - 1), max_size=8).map(  # scattered levels
            lambda s: sum(1 << i for i in s)))
    mask = draw(st.one_of(masks))
    return mask, draw(level), draw(level), q


class TestColumns:
    @settings(derandomize=True, max_examples=600, database=None, deadline=None)
    @given(column_jobs())
    @example((0, 0, 0, 0))
    @example((0, 3, 1, 3))
    @example(((1 << 200) - 1, 0, 200, 200))  # the second shift truncates every level
    @example(((1 << 200) - 1, 200, 200, 200))
    @example(((1 << 65) - 1, 0, 1, 65))  # just past the kept tables
    @example((1 << 199 | 1 << 101 | 1, 1, 99, 200))  # isolated levels
    @example((0b1011_0111, 2, 7, 8))
    def test_matches_per_bit_reference(self, job):
        mask, shift1, shift2, q = job
        # both compilers, whichever side of the cap q is on
        expected = per_bit_columns(*job)
        assert scheme._columns(scheme._unit_table(q), mask, shift1, shift2) == expected
        assert scheme._reached_columns(q, mask, shift1, shift2) == expected

    def test_tables_kept_up_to_the_verification_cap(self):
        # one constant: the grid cap of verify and the CLI is the table cap
        assert SCHEME_CHECK_CAP is scheme.SCHEME_CHECK_CAP is cli.SCHEME_CHECK_CAP == 64
        build_linear_scheme(Allocation(1, 1), ChannelParams(64, 3, 64))
        kept = scheme._UNIT_COLUMNS[64]
        build_linear_scheme(Allocation(2, 1), ChannelParams(64, 5, 1))
        assert scheme._UNIT_COLUMNS[64] is kept
        build_linear_scheme(Allocation(1, 1), ChannelParams(65, 3, 65))
        assert 65 not in scheme._UNIT_COLUMNS

    def test_large_q_leaves_no_table_behind(self):
        # a q = 4,096 table is 8,192 entries and 4,096 ints of up to 4,096
        # bits: over 2 MB, of which nothing may stay once the scheme is gone
        q = 4096
        a, p = Allocation((1 << q) - 1, (1 << q) - 1), ChannelParams(q, q - 1, q)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            s = build_linear_scheme(a, p)
            assert len(s.A) == len(s.B) == q
            del s
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak > 2 << 20  # the table was built ...
        assert retained < 64 << 10  # ... and let go
        assert q not in scheme._UNIT_COLUMNS

    def test_sparse_large_q_builds_only_the_reached_columns(self):
        # one message and one jam level at q = 20,000 reach three unit columns,
        # not a table of all 20,000 (over 20 MiB)
        a, p = Allocation(1 << 19999, 1), ChannelParams(20000, 19999, 20000)
        gc.collect()
        tracemalloc.start()
        try:
            s = build_linear_scheme(a, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (s.A, s.B, s.C, s.D) == ((1 << 19999,), (1,), (1 << 19999,), (2,))
        assert peak < 1 << 20


def level_bits(m):
    return [1 << i for i in range(m.bit_length()) if m >> i & 1]


def assert_columns_are_channel_images(a, p):
    # column j of a map is what the channel does to the j-th allocated level alone
    s = build_linear_scheme(a, p)
    msg = [ldm_channel(b, 0, p) for b in level_bits(a.message)]
    jam = [ldm_channel(0, b, p) for b in level_bits(a.jam)]
    assert (s.A, s.C) == (tuple(y2 for _, y2 in msg), tuple(y1 for y1, _ in msg)), (p, a)
    assert (s.B, s.D) == (tuple(y2 for _, y2 in jam), tuple(y1 for y1, _ in jam)), (p, a)


class TestColumnsAreChannelImages:
    def test_constructed_and_oracle_allocations_q12(self):
        for p in iter_instances(12):
            if r_achievable(p).case_tag is not CaseTag.SINGULAR:
                assert_columns_are_channel_images(construct_allocation(p), p)
            assert_columns_are_channel_images(oracle_best_rate(p)[1], p)

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.integers(0, 64), st.integers(0, 64), st.integers(0, 64), st.data())
    def test_random_masks_to_q64(self, n11, n21, n2, data):
        a = Allocation(data.draw(st.integers(0, (1 << n11) - 1)),
                       data.draw(st.integers(0, (1 << n2) - 1)))
        assert_columns_are_channel_images(a, ChannelParams(n11, n21, n2))


def partition_sum_allocation(p):
    """Reference construction with the aligned message summed partition by
    partition, as it was built before the geometric series."""
    def ones(n):
        return (1 << n) - 1

    br = r_achievable(p)
    n_common = p.n11 - br.r_private
    gap = p.n11 - p.n21
    private = ones(p.n11) & ~ones(n_common)
    if br.case_tag is CaseTag.STRONG_HELPER:
        message = ones(p.n11)
    elif br.case_tag is CaseTag.ALIGNED:
        delta = p.delta
        phi1_branch = p.n11 > p.n2 and p.n11 > p.n21
        top = max(n_common - delta, 0) if phi1_branch else n_common
        message = sum(ones(delta) << b for b in range(0, top, 2 * delta)) & ones(top) | private
    elif max(gap, p.n21) >= br.r_private:
        message = ones(gap) | ones(p.n11) & ~ones(2 * gap)
    else:
        message = private
    return Allocation(message, message & ones(p.n2))


class TestSameAllocations:
    def test_matches_partition_sum_reference_q40(self):
        for p in iter_instances(40):
            if r_achievable(p).case_tag is not CaseTag.SINGULAR:
                assert construct_allocation(p) == partition_sum_allocation(p), p


class TestAgainstConverse:
    def test_spec_example_is_tight(self):
        p = ChannelParams(10, 8, 10)
        assert r_achievable(p).r_ach == upper_bounds(p).min_ub == 6


class TestSchemeMatricesMatchChannel:
    def test_random_allocations_agree_with_channel_map(self):
        # A,B,C,D must reproduce exactly what the shift channel does to
        # bits placed on the allocated levels
        import random
        from functools import reduce
        from operator import xor

        from wiretap_helper import ldm_channel

        def apply(columns, coeffs):
            """XOR of the columns selected by the bits of coeffs."""
            return reduce(xor, (c for j, c in enumerate(columns) if (coeffs >> j) & 1), 0)

        rng = random.Random(7)
        for _ in range(200):
            q = rng.randint(1, 12)
            p = ChannelParams(rng.randint(1, q), rng.randint(0, q), rng.randint(0, q))
            if p.q != q:
                continue
            msg = sorted(rng.sample(range(1, p.n11 + 1), rng.randint(0, p.n11)))
            jam = sorted(rng.sample(range(1, p.n2 + 1), rng.randint(0, p.n2))) if p.n2 else []
            s = build_linear_scheme(Allocation(mask(*msg), mask(*jam)), p)
            w = rng.getrandbits(len(s.A)) if s.A else 0
            u = rng.getrandbits(len(s.B)) if s.B else 0
            x1 = sum(1 << (lvl - 1) for j, lvl in enumerate(msg) if (w >> j) & 1)
            x2 = sum(1 << (lvl - 1) for j, lvl in enumerate(jam) if (u >> j) & 1)
            y1, y2 = ldm_channel(x1, x2, p)
            assert y1 == apply(s.C, w) ^ apply(s.D, u)
            assert y2 == apply(s.A, w) ^ apply(s.B, u)
