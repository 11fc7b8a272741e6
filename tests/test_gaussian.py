"""Gaussian rate evaluation: levels, decoding bounds, and the closed form."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from wiretap_helper import (
    CaseTag,
    ChannelParams,
    GaussianParams,
    ParameterError,
    correspondence,
    gaussian_rate,
    level_rate,
    odd_level_sum,
    r_achievable,
)
from wiretap_helper.gaussian import _log2_theta


def gp(log_snr1, beta1, beta2):
    return GaussianParams(F(str(log_snr1)), F(str(beta1)), F(str(beta2)))


class TestGaussianParams:
    def test_level_structure(self):
        g = gp(20, 0.75, 1)
        assert g.l_max == 4
        assert g.full_levels == 4

    def test_width_mirrors_gain_offset_above_one(self):
        # level width |1 - beta1| log SNR1 is the deterministic offset delta
        assert correspondence(gp(40, 1.25, 1)).delta == 10
        assert gp(40, 1.25, 1).full_levels == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            GaussianParams(F(0), F(1, 2), F(1))
        with pytest.raises(ParameterError):
            GaussianParams(F(10), F(-1, 2), F(1))
        with pytest.raises(ParameterError):
            gp(10, 1, 1).l_max


class TestTheta:
    """Signal power of one level, the difference of two SNR1 powers, in log2."""

    def test_first_level_power(self):
        assert 2 ** _log2_theta(gp(20, 0.75, 1), 1) == pytest.approx(2**20 - 2**15, rel=1e-12)

    def test_bottom_level_reaches_unit_power(self):
        # integer level count: the last level's lower edge is SNR^0 = 1
        assert 2 ** _log2_theta(gp(20, 0.75, 1), 4) == pytest.approx(2**5 - 1, rel=1e-12)

    def test_single_level_spans_everything_at_beta1_zero(self):
        assert 2 ** _log2_theta(gp(12, 0, 1), 1) == pytest.approx(2**12 - 1, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            level_rate(gp(20, 1.5, 1), 1)
        with pytest.raises(ParameterError):
            level_rate(gp(20, 0.75, 1), 5)
        with pytest.raises(ParameterError):
            level_rate(gp(20, 0.75, 1), 0)


class TestLevelRate:
    def test_first_level_example(self):
        expected = math.log2((2**40 - 2**30) / (1 + 2 * 2**30))
        assert level_rate(gp(40, 0.75, 1), 1) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(8.9986, abs=1e-3)

    def test_thin_levels_clamp_to_zero(self):
        assert level_rate(gp(10, 0.99, 1), 1) == 0.0

    def test_beta1_zero_single_level(self):
        expected = math.log2((2**30 - 1) / 3)
        assert level_rate(gp(30, 0, 1), 1) == pytest.approx(expected, abs=1e-9)

    def test_large_snr_stays_finite(self):
        assert 0 < level_rate(gp(4000, 0.75, 1), 1) < 4000


class TestCorrespondence:
    def test_round_values(self):
        assert correspondence(gp(40, 0.75, 1)) == ChannelParams(40, 30, 40)

    def test_fractional_values_round_up(self):
        cp = correspondence(gp(0.5, 0.5, 1))
        assert cp == ChannelParams(1, 1, 1)

    def test_zero_exponents(self):
        assert correspondence(gp(17, 0, 0)) == ChannelParams(17, 0, 0)


class TestGaussianRate:
    def test_strong_helper_case(self):
        gb = gaussian_rate(gp(40, 3, 1))
        assert gb.r_ach == 40
        assert gb.normalized == 1
        assert gb.case_tag is CaseTag.STRONG_HELPER

    def test_aligned_middle_case_example(self):
        gb = gaussian_rate(gp(40, 0.75, 1))
        assert gb.r_private == 0
        assert gb.r_common == 20
        assert gb.r_gross == 20
        assert gb.d == 4
        assert gb.r_ach == 16
        assert gb.normalized == F(2, 5)
        assert gb.case_tag is CaseTag.ALIGNED

    def test_deaf_eavesdropper_gives_full_private_rate(self):
        gb = gaussian_rate(gp(40, 0.75, 0))
        assert gb.r_private == 40

    def test_private_rate_clamped_for_strong_eavesdropper(self):
        gb = gaussian_rate(gp(40, 0.75, 1.5))
        assert gb.r_private == 0
        assert gb.r_ach >= 0

    def test_singularity_at_equal_gains(self):
        gb = gaussian_rate(gp(40, 1, 0.5))
        assert gb.case_tag is CaseTag.SINGULAR
        assert gb.r_ach == gb.r_private == 20

    def test_weak_helper_takes_the_best_of_three(self):
        gb = gaussian_rate(gp(40, 0.5, 1))
        assert gb.r_ach == 20
        assert gb.case_tag is CaseTag.WEAK_HELPER
        assert gaussian_rate(gp(40, 0.25, 1)).r_ach == 30
        assert gaussian_rate(gp(40, 0.25, 0.25)).r_ach == 30

    def test_penalty_clamps_whole_rate_at_zero(self):
        gb = gaussian_rate(gp(40, 0.99, 1))
        assert gb.r_gross == 20
        assert gb.d == 100
        assert gb.r_ach == 0
        assert gb.normalized == 0

    def test_normalized_stays_in_unit_interval(self):
        for b1 in (F(k, 20) for k in range(0, 50)):
            for b2 in (F(0), F(1, 2), F(1), F(3, 2)):
                if b1 == 0:
                    continue
                gb = gaussian_rate(GaussianParams(F(40), b1, b2))
                assert 0 <= gb.normalized <= 1

    def test_common_sum_reported_below_one(self):
        assert gaussian_rate(gp(40, 0.75, 1)).r_common_sum is not None
        assert gaussian_rate(gp(40, 1.5, 1)).r_common_sum is None

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.integers(1, 64).flatmap(
        lambda L: st.tuples(st.just(L), st.integers(0, 2 * L), st.integers(0, 2 * L))))
    def test_integer_gains_match_the_deterministic_kernel(self, gains):
        # log SNR1 = L and betas n21/L, n2/L give the deterministic gains exactly
        L, n21, n2 = gains
        g = GaussianParams(F(L), F(n21, L), F(n2, L))
        p = ChannelParams(L, n21, n2)
        gb, det = gaussian_rate(g), r_achievable(p)
        assert (gb.r_private, gb.r_common, gb.case_tag) == (
            det.r_private, det.r_common, det.case_tag)
        assert correspondence(g) == p


class TestOddLevelSumBound:
    def test_sum_dominates_simplified_chain(self):
        # closed-form chain: sum over odd levels of the width minus one bit
        # per full level
        for log_snr1 in (10, 20, 40, 60):
            for k in range(0, 33):
                b1 = F(2, 3) + F(k, 100)
                if b1 >= 1:
                    continue
                g = GaussianParams(F(log_snr1), b1, F(1))
                floor_l = g.full_levels
                lower = F(floor_l, 2) * (1 - b1) * log_snr1 - floor_l
                assert odd_level_sum(g) >= float(lower) - 1e-9, (log_snr1, b1)

    @pytest.mark.parametrize("b1", [F(3), F(3, 2)], ids=["above-two", "between-one-and-two"])
    def test_no_power_levels_from_beta1_one_up(self, b1):
        # beta1 = 3 gives no full level; it must fail like 1.5, not sum to 0
        with pytest.raises(ParameterError):
            odd_level_sum(GaussianParams(F(40), b1, F(1)))


class TestNormalizedLimit:
    @pytest.mark.parametrize(
        "b1,b2",
        [("0.75", "1"), ("0.8", "0.5"), ("1.5", "1"), ("0.45", "0.8")],
    )
    def test_converges_to_deterministic_normalized_rate(self, b1, b2):
        norms = [float(gaussian_rate(gp(L, b1, b2)).normalized) for L in (20, 40, 80)]
        d1, d2 = abs(norms[1] - norms[0]), abs(norms[2] - norms[1])
        assert d2 <= d1 + 1e-12
        # rates behave like c - const/L, so 2 r(80) - r(40) recovers the limit
        extrapolated = 2 * norms[2] - norms[1]
        cp = correspondence(gp(80, b1, b2))
        det = r_achievable(cp)
        assert abs(extrapolated - det.r_ach / cp.n11) <= 0.02
