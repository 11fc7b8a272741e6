"""Converse bound evaluation, exact rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wiretap_helper import (
    ChannelParams,
    ParameterError,
    UpperBounds,
    gaussian_upper_bounds,
    upper_bounds,
)
from wiretap_helper.verify import iter_instances


def rational_bounds(p):
    """Reference: the three bounds as sums of exact rationals."""
    pos = lambda x: max(x, 0)  # noqa: E731
    rp = pos(p.n11 - p.n2)
    return (
        rp + Fraction(max(p.n11, p.n21) - rp, 2) + Fraction(pos(p.n2 - p.n21), 2),
        Fraction(p.n11),
        Fraction(p.n21 + pos(p.n11 - p.n21 - p.n2)
                 + pos(p.n2 - p.n21 - pos(p.n2 - p.n11 + p.n21))),
    )


class TestUpperBounds:
    def test_matches_rational_reference_to_q16(self):
        for p in iter_instances(16):
            ub = upper_bounds(p)
            assert (ub.ub1, ub.ub2, ub.ub3) == rational_bounds(p), p

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.integers(0, 64), st.integers(0, 64), st.integers(0, 64))
    def test_matches_rational_reference_to_q64(self, n11, n21, n2):
        p = ChannelParams(n11, n21, n2)
        ub = upper_bounds(p)
        assert (ub.ub1, ub.ub2, ub.ub3) == rational_bounds(p)
        c = Fraction(1, 3)
        assert gaussian_upper_bounds(p, c) == UpperBounds(*(x + c for x in rational_bounds(p)))

    def test_aligned_example(self):
        ub = upper_bounds(ChannelParams(10, 8, 10))
        assert (ub.ub1, ub.ub2, ub.ub3) == (6, 10, 8)
        assert ub.min_ub == 6

    def test_silent_helper_at_receiver(self):
        # n21 = 0 silences the helper at the legitimate receiver only; it
        # still jams the eavesdropper at gain n2, so all three bounds sit
        # at n11 and the rate n11 is achievable and tight.
        ub = upper_bounds(ChannelParams(10, 0, 10))
        assert (ub.ub1, ub.ub2, ub.ub3) == (10, 10, 10)
        assert ub.min_ub == 10

    def test_second_bound_is_direct_gain(self):
        for p in iter_instances(8):
            assert upper_bounds(p).ub2 == p.n11

    def test_half_integer_values_are_exact(self):
        ub = upper_bounds(ChannelParams(6, 3, 4))
        assert ub.ub1 == Fraction(2) + Fraction(2) + Fraction(1, 2) == Fraction(9, 2)

    def test_all_bounds_nonnegative(self):
        for p in iter_instances(10):
            ub = upper_bounds(p)
            assert ub.ub1 >= 0 and ub.ub2 >= 0 and ub.ub3 >= 0

    def test_middle_term_symmetric_in_gain_pair(self):
        for p in iter_instances(8):
            rp = max(p.n11 - p.n2, 0)
            mid = Fraction(max(p.n11, p.n21) - rp, 2)
            swapped = Fraction(max(p.n21, p.n11) - rp, 2)
            assert mid == swapped


class TestGaussianUpperBounds:
    def test_zero_constant_reduces_to_deterministic(self):
        p = ChannelParams(7, 5, 6)
        assert gaussian_upper_bounds(p, 0) == upper_bounds(p)

    def test_cited_42_bit_constant(self):
        ub = gaussian_upper_bounds(ChannelParams(10, 8, 10), 42)
        assert ub.min_ub == 48

    def test_half_bit_constant(self):
        ub = gaussian_upper_bounds(ChannelParams(4, 8, 4), Fraction(1, 2))
        assert ub.ub2 == Fraction(9, 2)

    def test_float_constant_is_read_as_its_decimal(self):
        # 0.1 means 1/10, as in GaussianParams, not the binary float's value
        ub = gaussian_upper_bounds(ChannelParams(10, 8, 10), 0.1)
        assert ub.ub1 == Fraction(61, 10)

    def test_negative_constant_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_upper_bounds(ChannelParams(4, 8, 4), -1)
