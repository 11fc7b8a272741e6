"""Int-bitset signals, the shift channel map, and GF(2) rank."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from wiretap_helper import ChannelParams, ParameterError, ldm_channel, scheme
from wiretap_helper.ldm import _added_rank, even_blocks


def bits(*levels):
    """Bitset from per-level bits listed from level 1 (the top) down."""
    return sum(b << i for i, b in enumerate(levels))


def shift(x, gain_n, q):
    """The gain-n channel map alone: x1 through n11 = gain_n, the helper
    silent, with n2 = q fixing the vector length."""
    return ldm_channel(x, 0, ChannelParams(gain_n, 0, q))[0]


class TestBitVector:
    """Signals are int bitsets: bit i holds level i + 1, level 1 on top."""

    def test_entries_validated(self):
        p = ChannelParams(3, 1, 2)
        with pytest.raises(ParameterError):
            ldm_channel(-1, 0, p)
        with pytest.raises(ParameterError):
            ldm_channel(0, -4, p)

    def test_level_indexing_is_one_based_from_msb(self):
        # bit 0 is level 1, the top: a gain one below q moves it to level 2,
        # and the bottom level falls below the noise floor
        assert shift(0b101, 2, 3) == 0b010

    def test_zero_length_vector_is_legal(self):
        p = ChannelParams(0, 0, 0)
        assert ldm_channel(0, 0, p) == (0, 0)
        with pytest.raises(ParameterError):
            ldm_channel(1, 0, p)


class TestDownShift:
    def test_full_gain_is_identity(self):
        assert shift(bits(1, 0, 1), 3, 3) == bits(1, 0, 1)

    def test_shift_by_two(self):
        assert shift(bits(1, 1, 0), 1, 3) == bits(0, 0, 1)

    def test_zero_gain_truncates_everything(self):
        assert shift(bits(1, 1, 1), 0, 3) == bits(0, 0, 0)

    def test_length_mismatch_rejected(self):
        # one level more than q, even where the gain is full
        with pytest.raises(ParameterError):
            shift(bits(1, 0, 1, 1), 3, 3)

    def test_shift_composition(self):
        rng = random.Random(1)
        for _ in range(300):
            q = rng.randint(1, 32)
            e1 = rng.randint(0, q)
            e2 = rng.randint(0, q - e1)
            x = rng.getrandbits(q)
            assert shift(shift(x, q - e1, q), q - e2, q) == shift(x, q - e1 - e2, q)


def reference_channel(x1, x2, p):
    """``ldm_channel`` as 0.22.0 wrote it: the q property and a fresh mask per use."""
    q = p.q
    if x1 < 0 or x2 < 0 or (x1 | x2) >> q:
        raise ParameterError(f"channel inputs must be bitsets of length q={q}")
    ones = (1 << q) - 1
    return ((x1 << (q - p.n11)) ^ (x2 << (q - p.n21))) & ones, ((x1 ^ x2) << (q - p.n2)) & ones


class TestLdmChannel:
    def test_zero_inputs(self):
        assert ldm_channel(0, 0, ChannelParams(3, 1, 2)) == (0, 0)

    def test_hand_evaluated_superposition(self):
        p = ChannelParams(3, 1, 3)
        y1, _ = ldm_channel(bits(1, 0, 1), bits(1, 1, 0), p)
        assert y1 == bits(1, 0, 0)

    def test_silent_helper_gives_shifted_user_signal(self):
        p = ChannelParams(4, 2, 4)
        x1 = bits(1, 0, 1, 1)
        _, y2 = ldm_channel(x1, 0, p)
        assert y2 == shift(x1, p.n11, 4)

    def test_length_mismatch_rejected(self):
        p = ChannelParams(3, 1, 2)
        with pytest.raises(ParameterError):
            ldm_channel(0b1000, 0, p)
        with pytest.raises(ParameterError):
            ldm_channel(0, 0b1000, p)

    def test_linearity(self):
        rng = random.Random(2)
        for _ in range(200):
            q = rng.randint(1, 16)
            p = ChannelParams(rng.randint(0, q), rng.randint(0, q), rng.randint(0, q))
            if p.q != q:
                continue
            a, b, c, d = (rng.getrandbits(q) for _ in range(4))
            lhs = ldm_channel(a ^ b, c ^ d, p)
            r1 = ldm_channel(a, c, p)
            r2 = ldm_channel(b, d, p)
            assert lhs == (r1[0] ^ r2[0], r1[1] ^ r2[1])

    @settings(derandomize=True, max_examples=500, database=None, deadline=None)
    @given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80), st.data())
    def test_matches_reference(self, n11, n21, n2, data):
        p = ChannelParams(n11, n21, n2)
        # inputs within 1..q, a few levels past it, and negative ones
        x = st.integers(-2, (1 << p.q + 3) - 1)
        x1, x2 = data.draw(x), data.draw(x)
        try:
            expected = reference_channel(x1, x2, p)
        except ParameterError as e:
            with pytest.raises(ParameterError, match=f"^{e}$"):
                ldm_channel(x1, x2, p)
        else:
            assert ldm_channel(x1, x2, p) == expected

    def test_both_senders_reach_eavesdropper_at_equal_strength(self):
        rng = random.Random(3)
        for _ in range(100):
            q = rng.randint(1, 12)
            p = ChannelParams(rng.randint(0, q), rng.randint(0, q), rng.randint(1, q))
            if p.q != q:
                continue
            x = rng.getrandbits(q) | 1
            _, y2_user = ldm_channel(x, 0, p)
            _, y2_help = ldm_channel(0, x, p)
            # the top nonzero level is the lowest set bit
            assert (y2_user & -y2_user).bit_length() == (y2_help & -y2_help).bit_length()


def row_space_size(columns, rows):
    """Number of vectors in the span of the rows of [columns], by enumeration."""
    row_ints = [sum(((c >> i) & 1) << j for j, c in enumerate(columns))
                for i in range(rows)]
    span = set()
    for picks in itertools.product((0, 1), repeat=rows):
        v = 0
        for take, r in zip(picks, row_ints):
            if take:
                v ^= r
        span.add(v)
    return len(span)


class TestGf2Rank:
    def test_identity(self):
        assert _added_rank((), (0b001, 0b010, 0b100)) == 3

    def test_zero_matrix(self):
        assert _added_rank((), (0, 0, 0, 0)) == 0

    def test_repeated_rows(self):
        # rows [1 1] and [1 1]: both columns are 0b11
        assert _added_rank((), (0b11, 0b11)) == 1

    def test_rank_matches_exhaustive_row_space_enumeration(self):
        rng = random.Random(4)
        for _ in range(150):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            columns = tuple(rng.getrandbits(rows) for _ in range(cols))
            assert 2 ** _added_rank((), columns) == row_space_size(columns, rows)
            # row and column rank agree, so the span sizes divide exactly
            split = rng.randint(0, cols)
            base, extra = columns[:split], columns[split:]
            assert (2 ** _added_rank(base, extra) * row_space_size(base, rows)
                    == row_space_size(columns, rows))


def added_rank_0_20(base, extra):
    """The elimination loop of ``_added_rank`` as it was in 0.20.0: a
    membership test, then an index, per step."""
    pivots = {}
    for v in base:
        while v and (h := v.bit_length() - 1) in pivots:
            v ^= pivots[h]
        if v:
            pivots[h] = v
    base_rank = len(pivots)
    for v in extra:
        while v and (h := v.bit_length() - 1) in pivots:
            v ^= pivots[h]
        if v:
            pivots[h] = v
    return len(pivots) - base_rank


# every unit column of the kept q = 64 table (a map with shift 0 is the table's
# first 64 entries), the very int objects the grid's maps hold
UNIT_COLUMNS_64 = scheme.build_linear_scheme(scheme.Allocation((1 << 64) - 1, 0),
                                             ChannelParams(64, 0, 0)).C


@st.composite
def rank_jobs(draw):
    """(base, extra) column tuples whose columns are drawn from one pool, so
    that a repeated column is the same int object in both: 0-200-bit ints,
    zero, equal values as distinct objects, unit columns of one table, and
    the small ints CPython caches."""
    width = draw(st.integers(0, 200))
    pool = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=10))
    pool += [int(str(x)) for x in pool[:3]]  # equal values, distinct objects above 256
    pool += draw(st.lists(st.sampled_from(UNIT_COLUMNS_64), max_size=6))
    pool += draw(st.lists(st.integers(0, 256), max_size=6)) + [0]
    columns = st.lists(st.sampled_from(pool), max_size=14).map(tuple)
    return draw(columns), draw(columns)


class TestSetdefaultElimination:
    """One ``setdefault`` per elimination step gives the ranks of the 0.20.0
    loop on every input, including columns that are already their own pivot."""

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(rank_jobs())
    @example(((), ()))
    @example(((0b11,), (0b11,)))  # a cached small int: extra's column is base's pivot
    @example((UNIT_COLUMNS_64[:40], UNIT_COLUMNS_64[20:64]))  # shared table slices
    @example((UNIT_COLUMNS_64[5:6] * 3, (0, UNIT_COLUMNS_64[5], 1 << 5)))
    def test_matches_the_0_20_loop(self, job):
        base, extra = job
        assert _added_rank(base, extra) == added_rank_0_20(base, extra)
        assert _added_rank((), base + extra) == added_rank_0_20((), base + extra)


class TestChannelParams:
    def test_q_and_delta(self):
        p = ChannelParams(10, 8, 12)
        assert p.q == 12
        assert p.delta == 2

    def test_degenerate_all_zero_instance(self):
        p = ChannelParams(0, 0, 0)
        assert p.q == 0
        assert p.delta == 0

    def test_negative_gain_rejected(self):
        with pytest.raises(ParameterError):
            ChannelParams(3, -1, 2)

    @pytest.mark.parametrize("gains,message", [
        ((-1, 2, 3), "n11 must be a nonnegative integer, got -1"),
        ((1, -2, -3), "n21 must be a nonnegative integer, got -2"),
        ((1, 2, 3.0), "n2 must be a nonnegative integer, got 3.0"),
        (("1", 2, 3), "n11 must be a nonnegative integer, got '1'"),
        ((1, None, 3), "n21 must be a nonnegative integer, got None"),
    ])
    def test_first_bad_gain_is_named(self, gains, message):
        with pytest.raises(ParameterError) as exc:
            ChannelParams(*gains)
        assert str(exc.value) == message

    def test_int_subclasses_still_accepted(self):
        # bool is an int: the fast path only skips the per-gain checks
        assert ChannelParams(True, 0, 2).q == 2


class TestEvenBlocks:
    def test_matches_block_by_block_sum(self):
        for width in range(1, 10):
            for n in range(0, 70):
                blocks = sum(((1 << width) - 1) << b for b in range(0, n, 2 * width))
                assert even_blocks(width, n) == blocks & (1 << n) - 1, (width, n)
