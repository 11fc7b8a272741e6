"""Gaussian rate evaluation: levels, decoding bounds, and the closed form."""

import io
import math
import time
from contextlib import redirect_stderr
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wiretap_helper import (
    CaseTag,
    ChannelParams,
    GaussianParams,
    GaussianRateBreakdown,
    ParameterError,
    SweepSpec,
    UpperBounds,
    correspondence,
    gaussian_rate,
    gaussian_upper_bounds,
    level_rate,
    odd_level_sum,
    r_achievable,
    run_sweep,
    to_fraction,
)
from wiretap_helper import gaussian
from wiretap_helper.cli import main
from wiretap_helper.bounds import _doubled_bounds
from wiretap_helper.gaussian import _edge, _log2_1p_exp2, _log2_theta
from wiretap_helper.scheme import _rate_kernel


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


class TestDecimalExponentCap:
    """The library owns the cap: every reader of a decimal string refuses an
    exponent past +-10000 at once, instead of parsing it for seconds."""

    @pytest.mark.parametrize("read", [
        to_fraction,
        lambda x: GaussianParams(40, "0.5", x),
        lambda x: gaussian_upper_bounds(ChannelParams(3, 2, 1), x),
    ], ids=["to_fraction", "GaussianParams", "gaussian_upper_bounds"])
    @pytest.mark.parametrize("text", ["1e10000000", "1E-10000000", " 1e+10_000_000 "])
    def test_huge_exponent_raises_at_once(self, read, text):
        start = time.perf_counter()
        with pytest.raises(ParameterError) as exc:
            read(text)
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == f"decimal exponent beyond +-10000: {text!r}"

    def test_bound(self):
        assert to_fraction("1e10000") == 10**10000
        assert to_fraction("2.5e-10000") == F(1, 4 * 10**9999)
        for text in ("1e10001", "1e-10001"):
            with pytest.raises(ParameterError):
                to_fraction(text)

    @pytest.mark.parametrize("text", ["tree", "1e", "1e5e", "e5", "1/0e3"])
    def test_other_literals_keep_the_fraction_error(self, text):
        # a malformed literal is not the cap's business: it gets the refusal
        # of any value that is no number
        with pytest.raises(ParameterError) as exc:
            to_fraction(text)
        assert str(exc.value) == f"not a rational number: {text!r}"


# Values that are no finite rational number, one of each way Fraction refuses
# one: ValueError, TypeError, ZeroDivisionError and OverflowError.
JUNK = [None, "", "abc", "1e", "1/0", "1/0e3", "1" * 5000, float("nan"), float("inf"),
        Decimal("NaN"), Decimal("Infinity"), b"1", 1j, [], object()]

# Every library reader of a number, fed one junk value; the others are valid.
JUNK_READERS = {
    "to_fraction": to_fraction,
    "GaussianParams.log_snr1": lambda x: GaussianParams(x, "0.5", 1),
    "GaussianParams.beta1": lambda x: GaussianParams(40, x, 1),
    "GaussianParams.beta2": lambda x: GaussianParams(40, "0.5", x),
    "gaussian_upper_bounds.c": lambda x: gaussian_upper_bounds(ChannelParams(3, 2, 1), x),
    "SweepSpec.start": lambda x: run_sweep(SweepSpec("beta1", x, 1, "0.25", {"beta2": 1})),
    "SweepSpec.stop": lambda x: run_sweep(SweepSpec("beta1", "0.5", x, "0.25", {"beta2": 1})),
    "SweepSpec.step": lambda x: run_sweep(SweepSpec("beta1", "0.5", 1, x, {"beta2": 1})),
    "SweepSpec.fixed beta": lambda x: run_sweep(SweepSpec("beta1", "0.5", 1, "0.25",
                                                          {"beta2": x})),
    "SweepSpec.fixed gain": lambda x: run_sweep(SweepSpec("n11", 1, 3, 1, {"n21": x, "n2": 1})),
    "SweepSpec.log_snr1": lambda x: run_sweep(SweepSpec("beta1", "0.5", 1, "0.25",
                                                        {"beta2": 1}, log_snr1=x)),
    "SweepSpec.const_c": lambda x: run_sweep(SweepSpec("beta1", "0.5", 1, "0.25",
                                                       {"beta2": 1}, const_c=x)),
}

GAUSSIAN_ARGV = ["gaussian", "--log-snr1", "40", "--beta1", "0.5", "--beta2", "1"]
SWEEP_ARGV = ["sweep", "--axis", "beta1", "--start", "0.5", "--stop", "1", "--step", "0.25",
              "--beta2", "1"]
GAUSS_FLAGS = ("--log-snr1", "--beta1", "--beta2", "--const-c")
RATIONAL_FLAGS = ([(GAUSSIAN_ARGV, flag) for flag in GAUSS_FLAGS]
                  + [(SWEEP_ARGV, flag) for flag in ("--start", "--stop", "--step", *GAUSS_FLAGS)])


class TestNotANumber:
    """``to_fraction`` decides what counts as a number, for the library and the
    CLI alike: a value that is none is a ParameterError wherever it enters."""

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(sorted(JUNK_READERS)), st.sampled_from(JUNK))
    def test_every_library_reader_raises_parameter_error(self, reader, x):
        # None is "not given" for these two; ``run_sweep`` defaults it
        assume(x is not None or reader not in ("SweepSpec.log_snr1", "SweepSpec.const_c"))
        with pytest.raises(ParameterError) as exc:
            JUNK_READERS[reader](x)
        assert str(exc.value) == f"not a rational number: {x!r}"

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(RATIONAL_FLAGS), st.sampled_from(JUNK))
    def test_every_rational_flag_exits_2(self, command, x):
        argv, flag = command
        token = str(x)
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main([*argv, flag, token])
        assert exc.value.code == 2
        assert f"argument {flag}: not a rational number: {token!r}" in err.getvalue()
        assert "Traceback" not in err.getvalue()

    @given(st.one_of(st.text(), st.floats(), st.decimals()))
    @example("1_0")
    @example("1 / 2")
    def test_a_value_is_read_by_fraction_or_refused(self, x):
        read = lambda: F(str(x) if isinstance(x, float) else x)
        # Fraction reads these from 3.11 or 3.12 on; to_fraction refuses them on all
        outside_grammar = isinstance(x, str) and ("_" in x or len(x.split()) > 1)
        try:
            got = to_fraction(x)
        except ParameterError as exc:
            if not str(exc).startswith("decimal exponent beyond") and not outside_grammar:
                with pytest.raises((ValueError, ZeroDivisionError, OverflowError)):
                    read()
        else:
            assert not outside_grammar
            assert got == read()

    @pytest.mark.parametrize("text,plain", [("1_0", "10"), ("1e1_0", "1e10"), ("1 / 2", "1/2"),
                                            ("1/ 2", "1/2")])
    def test_underscores_and_inner_spaces_are_refused_on_every_python(self, text, plain):
        with pytest.raises(ParameterError) as exc:
            to_fraction(text)
        assert str(exc.value) == f"not a rational number: {text!r}"
        assert to_fraction(f" {plain} ") == F(plain)  # outer spaces are read

    def test_the_cli_refuses_an_underscore(self):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["gaussian", "--log-snr1", "1_0", "--beta1", "0.5", "--beta2", "1"])
        assert exc.value.code == 2
        assert "argument --log-snr1: not a rational number: '1_0'" in err.getvalue()
        assert "Traceback" not in err.getvalue()


def level_theta(g, level):
    """log2 of the signal power of ``level``, from its two edges."""
    return _log2_theta(_edge(g, level - 1), _edge(g, level))


class TestTheta:
    """Signal power of one level, the difference of two SNR1 powers, in log2."""

    def test_first_level_power(self):
        assert 2 ** level_theta(gp(20, 0.75, 1), 1) == pytest.approx(2**20 - 2**15, rel=1e-12)

    def test_bottom_level_reaches_unit_power(self):
        # integer level count: the last level's lower edge is SNR^0 = 1
        assert 2 ** level_theta(gp(20, 0.75, 1), 4) == pytest.approx(2**5 - 1, rel=1e-12)

    def test_single_level_spans_everything_at_beta1_zero(self):
        assert 2 ** level_theta(gp(12, 0, 1), 1) == pytest.approx(2**12 - 1, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            level_rate(gp(20, 1.5, 1), 1)
        with pytest.raises(ParameterError):
            level_rate(gp(20, 0.75, 1), 5)
        with pytest.raises(ParameterError):
            level_rate(gp(20, 0.75, 1), 0)

    @pytest.mark.parametrize("level", [1.5, 2.0, True, F(2), "1", None])
    def test_a_level_that_is_no_int_is_refused(self, level):
        with pytest.raises(ParameterError) as exc:
            level_rate(GaussianParams(40, "0.75", 1), level)
        assert str(exc.value) == f"level must be an integer, got {level!r}"


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


@st.composite
def narrow_levels(draw):
    """(m, d, w): beta1 = 1 - m/d with at most 5,000 full levels, and a level
    width w in (0, 3/2]."""
    m = draw(st.integers(1, 40))
    d = draw(st.integers(m, 5001 * m - 1))
    return m, d, draw(st.fractions(0, F(3, 2), max_denominator=10**6).filter(bool))


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

    @settings(derandomize=True, max_examples=100, database=None, deadline=None)
    @given(narrow_levels())
    @example((1, 5000, F(3, 2)))  # 5,000 full levels of width exactly 3/2
    @example((1, 1, F(3, 2)))  # beta1 = 0: one level, the whole signal
    @example((7, 34_999, F(1, 10**9)))
    def test_levels_of_width_up_to_three_halves_carry_nothing(self, job):
        # with level width w = (1 - beta1) log SNR1 <= 3/2 < log2 3, a level's
        # power 2^lo (2^w - 1) < 2^(lo + 1) is below its noise bound 1 + 2^(lo + 1),
        # so every per-level bound, and the odd-level sum, is exactly 0.0
        m, d, w = job
        g = GaussianParams(w * d / m, F(d - m, d), F(1))
        assert (1 - g.beta1) * g.log_snr1 == w and 1 <= g.full_levels <= 5000
        top = -(-d // m)  # the partial level, if any, has the same width
        assert all(level_rate(g, level) == 0.0 for level in range(1, top + 1))
        total = odd_level_sum(g)
        assert total == 0.0 and type(total) is float

    @pytest.mark.parametrize("b1", [F(3), F(3, 2)], ids=["above-two", "between-one-and-two"])
    def test_no_power_levels_from_beta1_one_up(self, b1):
        # beta1 = 3 gives no full level; it must fail like 1.5, not sum to 0
        with pytest.raises(ParameterError):
            odd_level_sum(GaussianParams(F(40), b1, F(1)))

    def test_level_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(gaussian, "MAX_LEVELS", 4)
        at_cap = GaussianParams(F(40), F(3, 4), F(1))  # 4 full levels
        assert at_cap.full_levels == 4
        assert odd_level_sum(at_cap) == level_rate(at_cap, 1) + level_rate(at_cap, 3)
        assert gaussian_rate(at_cap).r_common_sum == odd_level_sum(at_cap)
        past_cap = GaussianParams(F(40), F(4, 5), F(1))
        with pytest.raises(ParameterError, match="over 5 power levels exceeds the cap of 4"):
            odd_level_sum(past_cap)
        with pytest.raises(ParameterError, match="cap of 4"):
            gaussian_rate(past_cap)


class TestLevelWork:
    @pytest.mark.parametrize("beta1,full", [(F(0), 1), (F(3, 4), 4), (F(4, 5), 5),
                                            (F(5, 7), 3), (F(59, 60), 60)],
                             ids=["0", "3/4", "4/5", "5/7", "59/60"])
    def test_each_level_computes_its_two_edges_once(self, monkeypatch, beta1, full):
        calls = []

        def counted(g, level):
            calls.append(level)
            return _edge(g, level)

        monkeypatch.setattr(gaussian, "_edge", counted)
        g = GaussianParams(F(40), beta1, F(1))
        assert g.full_levels == full
        odd_level_sum(g)
        # two edges per odd level, the level's top and bottom
        assert len(calls) == 2 * math.ceil(full / 2)
        assert sorted(calls) == sorted(e for l in range(1, full + 1, 2) for e in (l - 1, l))


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


# --- the integer closed forms against the Fraction expressions they replaced ---

def outcome(f, *args):
    """f(*args), or the ParameterError it raises, for comparing two versions."""
    try:
        return f(*args)
    except ParameterError as exc:
        return ParameterError, str(exc)


def fraction_params(log_snr1, beta1, beta2):
    if log_snr1 <= 0:
        raise ParameterError("log_snr1 must be positive")
    if beta1 < 0 or beta2 < 0:
        raise ParameterError("beta exponents must be nonnegative")
    return log_snr1, beta1, beta2


def fraction_full_levels(g):
    return math.floor(g.l_max)


def fraction_correspondence(g):
    L = g.log_snr1
    return ChannelParams(max(0, math.ceil(L)), max(0, math.ceil(g.beta1 * L)),
                         max(0, math.ceil(g.beta2 * L)))


def fraction_gaussian_rate(g):
    L = g.log_snr1
    gains = (L, g.beta1 * L, g.beta2 * L)
    den = math.lcm(*(x.denominator for x in gains))
    rp, rc, tag = _rate_kernel(*(x.numerator * (den // x.denominator) for x in gains))
    r_private, r_common = F(rp, den), F(rc, den)
    gross = r_private + r_common
    d = fraction_full_levels(g) if tag is CaseTag.ALIGNED else 0
    r_ach = max(gross - d, F(0))
    return GaussianRateBreakdown(
        r_private=r_private, r_common=r_common, r_gross=gross, d=d, r_ach=r_ach,
        normalized=r_ach / L, case_tag=tag,
        r_common_sum=odd_level_sum(g) if g.beta1 < 1 else None,
    )


def fraction_gaussian_upper_bounds(p, c):
    c = F(c)
    if c < 0:
        raise ParameterError("the gap constant c must be nonnegative")
    return UpperBounds(*(F(x, 2) + c for x in _doubled_bounds(p.n11, p.n21, p.n2)))


def fraction_grid(spec):
    count = (spec.stop - spec.start) // spec.step + 1
    return [spec.start + k * spec.step for k in range(count)]


# non-decimal denominators up to 60, so that a beta1 below one has at most 60 levels
betas = st.integers(1, 60).flatmap(lambda d: st.builds(F, st.integers(0, 3 * d), st.just(d)))
betas_below_one = st.integers(1, 60).flatmap(lambda d: st.builds(F, st.integers(0, d - 1),
                                                                  st.just(d)))
log_snr1s = st.builds(lambda m, d, e: F(m, d) * F(10) ** e,
                      st.integers(1, 10**6), st.integers(1, 999),
                      st.one_of(st.integers(-3, 3), st.integers(-400, -300),
                                st.integers(300, 5000)))


class TestIntegerPathsMatchFractions:
    @settings(derandomize=True, max_examples=400, database=None, deadline=None)
    @given(log_snr1s, st.one_of(st.sampled_from([F(1), F(2)]), betas, betas_below_one),
           st.one_of(betas, st.just(F(0))), st.sampled_from([0, F(1, 3), F(2, 9), F(-1, 3)]))
    @example(F(13, 3), F(5, 7), F(1, 3), F(1, 3))
    @example(F(1, 10**400), F(1, 2), F(0), 0)
    def test_closed_forms(self, log_snr1, beta1, beta2, c):
        g = GaussianParams(log_snr1, beta1, beta2)
        assert outcome(lambda: g.full_levels) == outcome(fraction_full_levels, g)
        p = correspondence(g)
        assert p == fraction_correspondence(g)
        assert outcome(gaussian_upper_bounds, p, c) == outcome(
            fraction_gaussian_upper_bounds, p, c)
        got, want = outcome(gaussian_rate, g), outcome(fraction_gaussian_rate, g)
        assert got == want
        if isinstance(got, GaussianRateBreakdown):
            for name in ("r_private", "r_common", "r_gross", "r_ach", "normalized"):
                assert type(getattr(got, name)) is F, name
            assert type(got.d) is int

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.builds(F, st.integers(-300, 300), st.integers(1, 99)),
           st.builds(F, st.integers(-300, 300), st.integers(1, 99)),
           st.builds(F, st.integers(-300, 300), st.integers(1, 99)))
    def test_parameter_checks(self, log_snr1, beta1, beta2):
        got = outcome(lambda: tuple(GaussianParams(log_snr1, beta1, beta2)))
        assert got == outcome(fraction_params, log_snr1, beta1, beta2)

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.builds(F, st.integers(0, 300), st.integers(1, 99)),
           st.builds(F, st.integers(0, 300), st.integers(1, 99)),
           st.builds(F, st.integers(-3, 30), st.integers(1, 17)))
    def test_sweep_grid(self, start, stop, step):
        spec = SweepSpec("beta1", start, stop, step, {"beta2": F(1)})
        if step <= 0 or start > stop:
            with pytest.raises(ParameterError):
                spec.grid()
        else:
            got = spec.grid()
            assert got == fraction_grid(spec)
            assert all(type(v) is F for v in got)


# --- the per-level bounds against the 0.13.0 code, which computed each edge three times ---

def three_edge(g, level):
    try:
        return float(g.log_snr1 * (1 - level * (1 - g.beta1)))
    except OverflowError:
        raise ParameterError("log_snr1 is too large for the per-level float bounds") from None


def three_edge_theta(g, level):
    hi, lo = three_edge(g, level - 1), three_edge(g, level)
    ratio = 2.0 ** (lo - hi)
    return hi + math.log1p(-ratio) / math.log(2) if ratio < 1 else -math.inf


def three_edge_level_rate(g, level):
    if g.beta1 >= 1:
        raise ParameterError("power levels require beta1 < 1")
    if not 1 <= level <= math.ceil(g.l_max):
        raise ParameterError(f"level {level} out of range 1..{math.ceil(g.l_max)}")
    noise = _log2_1p_exp2(1.0 + three_edge(g, level))
    return max(0.0, three_edge_theta(g, level) - noise)


def three_edge_odd_level_sum(g):
    if g.beta1 >= 1:
        raise ParameterError("power levels require beta1 < 1")
    if g.full_levels > gaussian.MAX_LEVELS:
        raise ParameterError(f"the odd-level sum over {g.full_levels} power levels exceeds "
                             f"the cap of {gaussian.MAX_LEVELS} levels")
    return sum(three_edge_level_rate(g, l) for l in range(1, g.full_levels + 1, 2))


# beta1 < 1 with denominators up to 1000: up to 1000 levels, a partial top one
# whenever (d - n) does not divide d
betas_below_one_fine = st.integers(1, 1000).flatmap(
    lambda d: st.builds(F, st.integers(0, d - 1), st.just(d)))


class TestLevelRateMatchesThreeEdgeCode:
    @settings(derandomize=True, max_examples=200, database=None, deadline=None)
    @given(log_snr1s, betas_below_one_fine)
    @example(F(100, 3), F(5, 7))
    @example(F(4000), F(99, 100))
    @example(F(10**400), F(1, 2))
    @example(F(1, 10**400), F(999, 1000))
    def test_every_level_and_the_sum_are_bit_identical(self, log_snr1, beta1):
        g = GaussianParams(log_snr1, beta1, F(1))
        top = math.ceil(g.l_max)
        for level in range(0, top + 2):  # 0 and top + 1 are out of range
            got = outcome(level_rate, g, level)
            assert got == outcome(three_edge_level_rate, g, level), level
        assert outcome(odd_level_sum, g) == outcome(three_edge_odd_level_sum, g)

    @pytest.mark.parametrize("log_snr1,beta1,level,message", [
        (F(40), F(1), 1, "power levels require beta1 < 1"),
        (F(40), F(3, 2), 1, "power levels require beta1 < 1"),
        (F(40), F(5, 7), 0, "level 0 out of range 1..4"),
        (F(40), F(5, 7), 5, "level 5 out of range 1..4"),
        (F(40), F(3, 4), 5, "level 5 out of range 1..4"),
        (F(10**400), F(3, 4), 1, "log_snr1 is too large for the per-level float bounds"),
        (F(10**400), F(3, 4), 4, "log_snr1 is too large for the per-level float bounds"),
    ])
    def test_same_errors(self, log_snr1, beta1, level, message):
        g = GaussianParams(log_snr1, beta1, F(1))
        got = outcome(level_rate, g, level)
        assert got == (ParameterError, message)
        assert got == outcome(three_edge_level_rate, g, level)
