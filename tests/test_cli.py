"""CLI behavior: families, sweeps, verification, exit codes, config."""

import argparse
import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wiretap_helper import (ChannelParams, GaussianParams, ParameterError, SweepSpec, cli,
                            gaussian, run_sweep, run_verification, sweep)
from wiretap_helper.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRates:
    def test_deterministic_report(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--n11", "10", "--n21", "8", "--n2", "10")
        assert code == 0
        assert "r_ach: 6" in out
        assert "min_ub: 6" in out
        assert "tight: yes" in out
        assert "case: aligned" in out

    def test_singular_note(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--n11", "10", "--n21", "10", "--n2", "10")
        assert code == 0
        assert "case: singular" in out
        assert "r_ach: 0" in out
        assert "no alignment scheme" in out

    @pytest.mark.parametrize("argv,singular,has_sum", [
        ("rates --n11 10 --n21 8 --n2 10", False, False),
        ("rates --n11 5 --n21 5 --n2 3", True, False),
        ("gaussian --beta1 0.75 --beta2 1", False, True),
        ("gaussian --beta1 1 --beta2 1", True, False),
        ("gaussian --beta1 1.5 --beta2 0.3", False, False),
    ])
    def test_report_is_one_write(self, argv, singular, has_sum):
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        with redirect_stdout(Recorder()):
            assert main(argv.split()) == 0
        assert len(writes) == 1
        assert ("\nnote: " in writes[0]) == singular
        assert ("\nr_common_sum: " in writes[0]) == has_sum
        assert writes[0].endswith(("\ntight: yes\n", "\ntight: no\n"))

    def test_gaussian_strong_helper(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaussian", "--log-snr1", "40", "--beta1", "3", "--beta2", "1"
        )
        assert code == 0
        assert "r_ach: 40" in out
        assert "normalized: 1" in out

    def test_gaussian_alias_command(self, capsys):
        code, out, _ = run_cli(capsys, "gaussian", "--beta1", "0.75", "--beta2", "1",
                               "--log-snr1", "40")
        assert code == 0
        assert "r_gross: 20" in out
        assert "level_penalty: 4" in out
        assert "r_ach: 16" in out
        assert "normalized: 0.400000" in out

    def test_both_families_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--n11", "3", "--n21", "2", "--n2", "1", "--beta1", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["rates", "--n11", "3", "--n21", "2", "--n2", "1", "--const-c", "5"],
        ["rates", "--log-snr1", "40", "--beta1", "3", "--beta2", "1"],
        ["gaussian", "--beta1", "3", "--beta2", "1", "--n11", "3"],
    ], ids=["rates-const-c", "rates-gaussian-family", "gaussian-n11"])
    def test_other_family_flag_is_usage_error(self, capsys, argv):
        # each report takes only its own family's flags; none is ignored
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_neither_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["rates"])
        assert exc.value.code == 2

    def test_partial_deterministic_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--n11", "3", "--n21", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--log-snr1", "-5", "--beta1", "0.75", "--beta2", "1"],
        ["--log-snr1", "40", "--beta1", "-1", "--beta2", "1"],
        ["--log-snr1", "40", "--beta1", "0.75", "--beta2", "1", "--const-c", "-1"],
    ], ids=["log-snr1", "beta1", "const-c"])
    def test_out_of_domain_gaussian_value_is_usage_error(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["gaussian", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize("log_snr1", ["1e-17", "1e-400"])
    def test_levels_below_float_resolution_rate_zero(self, capsys, log_snr1):
        # each power level is far narrower than one bit, so its bound is 0
        code, out, _ = run_cli(capsys, "gaussian", "--log-snr1", log_snr1,
                               "--beta1", "0.5", "--beta2", "1")
        assert code == 0
        assert "r_common_sum: 0.000000" in out

    def test_log_snr1_beyond_float_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gaussian", "--log-snr1", "1e400", "--beta1", "0.5", "--beta2", "1"])
        assert exc.value.code == 2
        assert "log_snr1" in capsys.readouterr().err

    def test_exact_report_takes_log_snr1_beyond_float_range(self, capsys):
        # beta1 >= 1 has no per-level float bounds
        code, out, _ = run_cli(capsys, "gaussian", "--log-snr1", "1e400",
                               "--beta1", "1.5", "--beta2", "1")
        assert code == 0
        assert f"ub2: 1{'0' * 400}\n" in out

    def test_values_beyond_the_int_print_limit(self, capsys):
        # str(int) stops at 4,300 digits by default
        code, out, _ = run_cli(capsys, "gaussian", "--log-snr1", "1e5000",
                               "--beta1", "1.5", "--beta2", "1")
        assert code == 0
        assert f"ub2: 1{'0' * 5000}\n" in out
        assert f"correspondence: n11=1{'0' * 5000} n21=15{'0' * 4999} " in out
        code, out, _ = run_cli(capsys, "sweep", "--axis", "beta1", "--start", "1.5",
                               "--stop", "1.5", "--step", "1", "--beta2", "1",
                               "--log-snr1", "1e5000")
        assert code == 0
        assert out.splitlines()[1].startswith(f"1.500000,5{'0' * 4999},")

    @pytest.mark.parametrize("value", ["1e1000000", "1e-1000000", "0e99999999", "1e1_000_000"])
    @pytest.mark.parametrize("argv", [
        ["gaussian", "--beta1", "0.5", "--beta2", "{}"],
        ["gaussian", "--beta1", "0.5", "--beta2", "1", "--const-c", "{}"],
        ["sweep", "--axis", "beta1", "--start", "0.5", "--stop", "{}", "--step", "0.1",
         "--beta2", "1"],
    ], ids=["beta2", "const-c", "sweep-stop"])
    def test_huge_decimal_exponent_is_usage_error(self, capsys, value, argv):
        # Fraction("1e10000000") alone takes seconds, and printing 1e1000000 a minute
        start = time.monotonic()
        with pytest.raises(SystemExit) as exc:
            main([a.format(value) for a in argv])
        assert exc.value.code == 2
        assert time.monotonic() - start < 3
        assert f"decimal exponent beyond +-10000: '{value}'" in capsys.readouterr().err

    def test_huge_non_integer_values_keep_six_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "gaussian", "--log-snr1", f"1{'0' * 50}1/3",
                               "--beta1", "1.5", "--beta2", "1")
        assert code == 0
        assert f"log_snr1={'3' * 51}.666667 " in out

    def test_const_c_shifts_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaussian", "--log-snr1", "10", "--beta1", "0.8", "--beta2", "1",
            "--const-c", "42",
        )
        assert code == 0
        assert "min_ub: 48" in out


class TestSweep:
    def test_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", "beta1", "--start", "0.5", "--stop", "0.7",
            "--step", "0.1", "--beta2", "1", "--log-snr1", "40",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == (
            "axis_value,r_ach,r_private,r_common,ub1,ub2,ub3,min_ub,"
            "normalized_ach,normalized_ub,case_tag"
        )
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0.500000"
        assert first[-1] == "weak-helper"

    def test_csv_is_bit_exact_reproducible(self, capsys, tmp_path):
        args = ["sweep", "--axis", "beta2", "--start", "0", "--stop", "1.5",
                "--step", "0.05", "--beta1", "0.75", "--log-snr1", "40"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "n11", "--start", "1", "--stop", "4",
            "--step", "1", "--n21", "2", "--n2", "3",
        )
        assert code == 0
        assert out.startswith("axis_value,")
        assert len(out.splitlines()) == 5

    def test_svg_output(self, capsys, tmp_path):
        out_file = tmp_path / "plot.svg"
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", "beta1", "--start", "0.1", "--stop", "2.2",
            "--step", "0.1", "--beta2", "1", "--format", "svg", "--out", str(out_file),
        )
        assert code == 0
        body = out_file.read_text()
        assert body.startswith("<svg")
        assert "polyline" in body
        assert "normalized rate" in body

    def test_private_part_shrinks_along_beta2(self):
        rows = run_sweep(SweepSpec(axis="beta2", start=F(0), stop=F(3, 2),
                                   step=F(1, 20), fixed={"beta1": F(3, 4)},
                                   log_snr1=F(40)))
        on_unit = [r for r in rows if r.axis_value <= 1]
        for a, b in zip(on_unit, on_unit[1:]):
            assert b.normalized_ach <= a.normalized_ach
        assert on_unit[0].normalized_ach > on_unit[-1].normalized_ach

    def test_empty_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "beta1", "--start", "2", "--stop", "1",
                  "--step", "0.1", "--beta2", "1"])
        assert exc.value.code == 2

    def test_missing_fixed_parameter_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "beta1", "--start", "0.1", "--stop", "0.2",
                  "--step", "0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,named", [
        (["--axis", "n11", "--n21", "10", "--n2", "12", "--beta1", "0.5"],
         "sweep over n11 takes no fixed beta1"),
        (["--axis", "n11", "--n21", "10", "--n2", "12", "--log-snr1", "7"],
         "log_snr1 applies only to a sweep over beta1 or beta2"),
        (["--axis", "n11", "--n21", "10", "--n2", "12", "--const-c", "0"],
         "const_c applies only to a sweep over beta1 or beta2"),
        (["--axis", "n11", "--n21", "10", "--n2", "12", "--asymptotic"],
         "asymptotic applies only to a sweep over beta1 or beta2"),
        (["--axis", "beta1", "--beta2", "1", "--n11", "99"], "sweep over beta1 takes no fixed n11"),
        (["--axis", "n21", "--n11", "20", "--n2", "15", "--n21", "5"],
         "sweep over n21 takes no fixed n21"),
    ], ids=["beta1-on-n11", "log-snr1-on-n11", "const-c-on-n11", "asymptotic-on-n11",
            "n11-on-beta1", "own-axis-flag"])
    def test_flag_the_sweep_does_not_read_is_usage_error(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--start", "1", "--stop", "2", "--step", "1", *argv])
        assert exc.value.code == 2
        # the usage line lists every flag, so only the error line can name the rule
        assert capsys.readouterr().err.splitlines()[-1] == f"wth sweep: error: {named}"

    def test_extra_fixed_key_is_rejected(self):
        spec = SweepSpec(axis="n11", start=F(1), stop=F(2), step=F(1),
                         fixed={"n21": F(2), "n2": F(3), "beta1": F(1, 2)})
        with pytest.raises(ParameterError, match="takes no fixed beta1"):
            run_sweep(spec)

    @pytest.mark.parametrize("changes,named", [
        ({"asymptotic": True}, "asymptotic"),
        ({"const_c": F(5)}, "const_c"),
        ({"asymptotic": True, "const_c": F(5)}, "const_c"),
        ({"log_snr1": F(7)}, "log_snr1"),
        ({"log_snr1": F(40), "const_c": F(0)}, "log_snr1"),
        ({"const_c": F(0)}, "const_c"),
    ], ids=["asymptotic", "const-c", "both", "log-snr1", "log-snr1-default", "const-c-zero"])
    def test_gaussian_field_on_a_gain_axis_is_rejected(self, changes, named):
        # None is "not given", so a given field is rejected even at its default value
        spec = SweepSpec("n11", F(1), F(2), F(1), {"n21": F(2), "n2": F(3)})
        assert len(run_sweep(spec)) == 2
        with pytest.raises(ParameterError,
                           match=f"^{named} applies only to a sweep over beta1 or beta2$"):
            run_sweep(spec._replace(**changes))

    def test_gaussian_fields_not_given_take_their_defaults(self):
        spec = SweepSpec("beta1", F(1, 2), F(1), F(1, 4), {"beta2": F(1)})
        given = spec._replace(log_snr1=sweep.DEFAULT_LOG_SNR1, const_c=F(0))
        assert (spec.log_snr1, spec.const_c) == (None, None)
        assert run_sweep(spec) == run_sweep(given)

    def test_fractional_gain_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "n11", "--start", "1", "--stop", "2",
                  "--step", "0.5", "--n21", "2", "--n2", "3"])
        assert exc.value.code == 2

    def test_row_cap_is_usage_error(self, capsys):
        # the count is checked before any row is built
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "n11", "--start", "0", "--stop", "1000000000",
                  "--step", "1", "--n21", "2", "--n2", "3"])
        assert exc.value.code == 2
        assert "above the cap of 100000" in capsys.readouterr().err

    def test_row_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(sweep, "MAX_SWEEP_ROWS", 3)
        spec = SweepSpec(axis="beta1", start=F(1, 10), stop=F(3, 10), step=F(1, 10))
        assert spec.grid() == [F(1, 10), F(2, 10), F(3, 10)]
        with pytest.raises(ParameterError, match="4 rows"):
            SweepSpec(axis="beta1", start=F(0), stop=F(3, 10), step=F(1, 10)).grid()

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "n11", "--start", "1", "--stop", "2",
            "--step", "1", "--n21", "2", "--n2", "3", "--out", str(tmp_path),
        )
        assert code == 3
        assert "cannot open output" in err

    def test_svg_beyond_float_range_is_usage_error(self, capsys, tmp_path):
        # the CSV of the same sweep is exact (see the float-range test below)
        out_file = tmp_path / "plot.svg"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "beta1", "--start", "0.5", "--stop", "0.6",
                  "--step", "0.05", "--beta2", "1", "--log-snr1", "1e-400",
                  "--format", "svg", "--out", str(out_file)])
        assert exc.value.code == 2
        assert "write CSV instead" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_path_fails_before_any_row(self, capsys, tmp_path, monkeypatch, where):
        def no_rows(spec):
            raise AssertionError("a row was built")

        monkeypatch.setattr(cli, "run_sweep", no_rows)
        out = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "n11", "--start", "1", "--stop", "2",
            "--step", "1", "--n21", "2", "--n2", "3", "--out", str(out),
        )
        assert code == 3
        assert "cannot open output" in err

    @pytest.mark.parametrize("existing", [None, "earlier output\n"], ids=["new", "existing"])
    def test_usage_error_creates_and_truncates_no_file(self, tmp_path, existing):
        out_file = tmp_path / "sweep.csv"
        if existing is not None:
            out_file.write_text(existing)
        # the half-integer gain is rejected while the rows are built
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "n11", "--start", "1", "--stop", "2",
                  "--step", "0.5", "--n21", "2", "--n2", "3", "--out", str(out_file)])
        assert exc.value.code == 2
        if existing is None:
            assert not out_file.exists()
        else:
            assert out_file.read_text() == existing

    def test_longer_existing_file_is_replaced(self, capsys, tmp_path):
        args = ["sweep", "--axis", "n11", "--start", "1", "--stop", "4",
                "--step", "1", "--n21", "2", "--n2", "3"]
        out_file = tmp_path / "sweep.csv"
        out_file.write_text("x" * 10_000)
        assert run_cli(capsys, *args, "--out", str(out_file))[0] == 0
        assert out_file.read_text() == run_cli(capsys, *args)[1]

    def test_output_to_a_device(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", "n11", "--start", "1", "--stop", "2",
            "--step", "1", "--n21", "2", "--n2", "3", "--out", os.devnull,
        )
        assert code == 0

    def test_asymptotic_uses_integer_correspondence(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "beta1", "--start", "0.5", "--stop", "0.5",
            "--step", "1", "--beta2", "1", "--log-snr1", "40", "--asymptotic",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[1] == "20"  # deterministic rate of (40, 20, 40)


    @pytest.mark.parametrize("log_snr1,extra,code", [
        ("1e-400", [], 0),
        ("1e400", ["--asymptotic"], 0),
        ("1e400", [], 2),
    ], ids=["tiny", "huge-asymptotic", "huge"])
    def test_beta_sweep_at_the_float_range_edges(self, capsys, log_snr1, extra, code):
        argv = ["sweep", "--axis", "beta1", "--start", "0.5", "--stop", "0.6",
                "--step", "0.05", "--beta2", "1", "--log-snr1", log_snr1, *extra]
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "log_snr1" in capsys.readouterr().err
        else:
            assert run_cli(capsys, *argv)[0] == 0


class TestLevelCap:
    """A Gaussian query near beta1 = 1 exits 2 at once instead of summing
    10^7 power levels for minutes."""

    @pytest.mark.parametrize("argv", [
        ["gaussian", "--log-snr1", "40", "--beta1", "0.9999999", "--beta2", "1"],
        ["sweep", "--axis", "beta2", "--start", "1", "--stop", "1", "--step", "1",
         "--beta1", "0.9999999", "--log-snr1", "40"],
    ], ids=["gaussian", "sweep-row"])
    def test_exits_2_in_bounded_time(self, capsys, argv):
        began = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - began < 3
        assert exc.value.code == 2
        assert "10000000 power levels exceeds the cap of 1000000" in capsys.readouterr().err

    def test_a_sweep_over_the_cap_exits_2_before_its_sums(self, capsys):
        # only the last of 200 rows is over the cap; the 199 sums before it take a minute
        began = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "beta1", "--start", "0.9999", "--stop", "0.9999995",
                  "--step", "0.0000005", "--beta2", "1", "--out", "-"])
        assert time.perf_counter() - began < 3
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == ("wth sweep: error: the odd-level sum over 2000000 power "
                                        "levels exceeds the cap of 1000000 levels")

    def test_bad_const_c_exits_before_the_level_sum(self, capsys, monkeypatch):
        def no_sum(g):
            raise AssertionError("odd_level_sum ran before --const-c was checked")

        monkeypatch.setattr(gaussian, "odd_level_sum", no_sum)
        with pytest.raises(SystemExit) as exc:
            main(["gaussian", "--beta1", "0.99999", "--beta2", "1", "--const-c", "-1"])
        assert exc.value.code == 2
        assert "the gap constant c must be nonnegative" in capsys.readouterr().err


def six_decimals(x):
    """Reference: exact half-even rounding of a Fraction to six decimals."""
    n = round(x * 10**6)
    return f"{'-' if x < 0 else ''}{abs(n) // 10**6}.{abs(n) % 10**6:06d}"


def decimal_format_number(x):
    """Reference: format_number as written with a decimal context, before the
    integer rounding replaced it."""
    if x.denominator == 1:
        return str(Decimal(x.numerator))
    with localcontext() as ctx:
        ctx.prec = 50 + x.numerator.bit_length() // 3
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return str(d.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def signed(magnitudes):
    return st.tuples(st.sampled_from([1, -1]), magnitudes).map(lambda t: t[0] * t[1])


class TestFormatNumber:
    @settings(derandomize=True, max_examples=400, database=None, deadline=None)
    @given(signed(st.one_of(st.integers(0, 10**30), st.integers(10**4300, 10**4400))),
           st.one_of(st.integers(1, 10**7), st.integers(1, 10**60)))
    @example(5 * 10**53 + 1, 10**60)  # 5e-7 + 1e-60, just above a half-way point
    @example(0, 1)
    @example(-10**4400, 1)
    def test_matches_the_decimal_version(self, num, den):
        x = F(num, den)
        assert sweep.format_number(x) == decimal_format_number(x)

    @settings(derandomize=True, max_examples=200, database=None, deadline=None)
    @given(signed(st.one_of(st.integers(0, 10**12), st.integers(10**4300, 10**4310))))
    def test_half_way_points_of_both_parities(self, k):
        # (2k + 1) / (2 * 10^6) lies halfway between k and k + 1 millionths
        for j in (k, k + 1):
            x = F(2 * j + 1, 2 * 10**6)
            assert sweep.format_number(x) == decimal_format_number(x)

    @pytest.mark.parametrize("x,text", [
        (F(5, 10**7), "0.000000"),
        (F(15, 10**7), "0.000002"),
        (F(5, 10**7) + F(1, 10**60), "0.000001"),
        (-F(1, 3), "-0.333333"),
        (F(10**60 + 1, 3), f"{'3' * 60}.666667"),
    ], ids=["half-to-even-down", "half-to-even-up", "just-above-half",
            "negative", "61-digit-whole-part"])
    def test_examples(self, x, text):
        assert sweep.format_number(x) == text == six_decimals(x)

    def test_integers_are_bare(self):
        assert sweep.format_number(F(10**70)) == "1" + "0" * 70

    @settings(derandomize=True, max_examples=500, database=None, deadline=None)
    @given(st.integers(-10**90, 10**90), st.integers(2, 10**70))
    def test_matches_exact_rounding(self, num, den):
        x = F(num, den)
        if x.denominator > 1:
            assert sweep.format_number(x) == six_decimals(x)

    @settings(derandomize=True, max_examples=200, database=None, deadline=None)
    @given(st.integers(-10**80, 10**80), st.integers(1, 10**40))
    def test_exact_halves_and_near_halves(self, k, eps_den):
        half = F(2 * k + 1, 2 * 10**6)
        for x in (half, half + F(1, eps_den * 10**7), half - F(1, eps_den * 10**7)):
            if x.denominator > 1:
                assert sweep.format_number(x) == six_decimals(x)


class TestVerifyCommand:
    def test_small_grid_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-q", "5", "--oracle")
        assert code == 0
        assert "result: ok" in out
        assert "instances checked: 216" in out

    def test_oracle_gap_findings_are_printed_not_failed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-q", "6", "--oracle")
        assert code == 0
        assert "oracle beats the partition formula" in out

    @pytest.mark.parametrize("max_q,searches,gaps",
                             [(11, 1728, 10), (24, 15625, 144), (40, 68921, 766)])
    def test_oracle_runs_up_to_the_grid_cap(self, capsys, max_q, searches, gaps):
        code, out, _ = run_cli(capsys, "verify", "--max-q", str(max_q), "--oracle")
        assert code == 0
        assert f"oracle searches: {searches}" in out
        assert f"finding: {gaps} instances where the exhaustive oracle beats" in out

    def test_oracle_cap(self):
        for max_q in ("65", "80"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--max-q", max_q, "--oracle"])
            assert exc.value.code == 2

    def test_scheme_cap(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-q", "65"])
        assert exc.value.code == 2

    def test_grid_without_a_scheme_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-q", "0")
        assert code == 1
        assert "schemes built and verified: 0" in out
        assert "FAIL: no scheme was checked" in out
        assert "result: FAILED" in out


class TestEnvironmentPrecedence:
    """Flags and their defaults are the only configuration: the ``WTH_``
    variables that 0.15.0 read are ignored."""

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WTH_DEFAULT_LOG_SNR1", "20")
        code, out, _ = run_cli(capsys, "gaussian", "--beta1", "0.75", "--beta2", "1",
                               "--log-snr1", "40")
        assert code == 0
        assert "log_snr1=40" in out

    def test_default_log_snr1_is_40(self, capsys):
        code, out, _ = run_cli(capsys, "gaussian", "--beta1", "3", "--beta2", "1")
        assert code == 0
        assert "log_snr1=40" in out

    def test_deterministic_sweep_ignores_log_snr1_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WTH_DEFAULT_LOG_SNR1", "abc")
        code, out, _ = run_cli(capsys, "sweep", "--axis", "n11", "--start", "1", "--stop", "2",
                               "--step", "1", "--n21", "2", "--n2", "3")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_env_values_are_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("WTH_MAX_Q", "3")
        monkeypatch.setenv("WTH_DEFAULT_LOG_SNR1", "abc")
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "instances checked: 729 (q <= 8)" in out
        code, out, _ = run_cli(capsys, "gaussian", "--beta1", "0.75", "--beta2", "1")
        assert code == 0
        assert "log_snr1=40" in out


# usage errors first, then one call of every subcommand
FIXED_COST_RUNS = [
    ["rates", "--n11", "-1", "--n21", "2", "--n2", "3"],
    ["verify", "--max-q", "65"],
    ["rates", "--n11", "10", "--n21", "8", "--n2", "10"],
    ["gaussian", "--log-snr1", "40", "--beta1", "0.75", "--beta2", "1"],
    ["sweep", "--axis", "beta1", "--start", "0.5", "--stop", "0.6", "--step", "0.05",
     "--beta2", "1", "--out", "-"],
    ["verify", "--max-q", "3"],
]


def fresh_python(*args):
    """A new interpreter with the package under test on its path and help
    text wrapped at 80 columns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env["COLUMNS"] = "80"
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)


class TestFixedCost:
    """What every ``wth`` call pays before its own work."""

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        done = fresh_python("-S", "-c", (
            "import sys; before = set(sys.modules); import wiretap_helper.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"))
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"[]\n"

    def test_one_parser_serves_every_call(self, capsysbinary, monkeypatch):
        first = [fresh_python("-m", "wiretap_helper.cli", *argv) for argv in FIXED_COST_RUNS]
        monkeypatch.setenv("COLUMNS", "80")
        roots = []  # top-level parsers built from here on
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "wth":
                roots.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv, want in zip(FIXED_COST_RUNS, first):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsysbinary.readouterr()
            assert (code, out.out, out.err) == (want.returncode, want.stdout, want.stderr), argv
        assert [c.returncode for c in first] == [2, 2, 0, 0, 0, 0]
        assert len(roots) <= 1


def reference_main(argv=None):
    """``main`` as of 0.14.0: one full ``parse_args`` pass for every argv;
    errors found after parsing go to the subcommand's parser, as in 0.17.0."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    sub = parser.commands[args.command]
    try:
        return args.run(args)
    except ParameterError as exc:
        sub.error(str(exc))


def outcome(run, argv):
    """Exit code, stdout and stderr of ``run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


RATES = ["rates", "--n11", "10", "--n21", "8", "--n2", "10"]
GAUSSIAN = ["gaussian", "--log-snr1", "40", "--beta1", "0.75", "--beta2", "1"]
SWEEP = ["sweep", "--axis", "beta1", "--start", "0.5", "--stop", "0.6", "--step", "0.05",
         "--beta2", "1", "--out", "-"]
PARITY_CORPUS = {
    "rates": RATES,
    "rates-equals": ["rates", "--n11=10", "--n21=8", "--n2=10"],
    "gaussian": GAUSSIAN,
    "gaussian-equals": ["gaussian", "--log-snr1=17/2", "--beta1=2/3", "--beta2=1",
                        "--const-c=1/2"],
    "sweep": SWEEP,
    "sweep-equals": ["sweep", "--axis=beta1", "--start=0.5", "--stop=0.6", "--step=0.05",
                     "--beta2=1", "--format=svg", "--out=-"],
    "verify": ["verify", "--max-q", "3"],
    "verify-equals": ["verify", "--max-q=3", "--oracle", "--seed=1"],
    "abbreviated-flag": ["rates", "--n1", "5", "--n21", "8", "--n2", "10"],
    "dashes-before-flags": ["rates", "--", "--n11", "10", "--n21", "8", "--n2", "10"],
    "dashes-after-flags": RATES + ["--"],
    "help-after-subcommand": ["rates", "-h"],
    "help-after-flags": ["gaussian", "--beta1", "1", "-h"],
    "trailing-unknown-flag": RATES + ["--bogus"],
    "stray-positional": RATES[:3] + ["stray"] + RATES[3:],
    "missing-required-flag": RATES[:5],
    "bad-int": ["rates", "--n11", "x", "--n21", "8", "--n2", "10"],
    "bad-rational": ["gaussian", "--beta1", "a/b", "--beta2", "1"],
    "bad-axis-choice": ["sweep", "--axis", "n3", "--start", "0", "--stop", "1", "--step", "1"],
    "empty": [],
    "help": ["-h"],
    "help-before-subcommand": ["-h", "rates"],
    "unknown-subcommand": ["bogus"],
    "subcommand-prefix": ["rat", "--n11", "10", "--n21", "8", "--n2", "10"],
    "parameter-error": ["gaussian", "--log-snr1", "40", "--beta1", "0.9999999", "--beta2", "1"],
}


@st.composite
def flag_argvs(draw, command, flags):
    """``command`` with ``flags`` (name -> value strategy) in any order, each
    as ``--flag value`` or ``--flag=value``, optional ones maybe left out, and
    maybe one junk token at the end."""
    argv = [command]
    for name in draw(st.permutations(list(flags))):
        value, required = flags[name]
        if not required and draw(st.booleans()):
            continue
        text = str(draw(value))
        argv += [f"{name}={text}"] if draw(st.booleans()) else [name, text]
    junk = draw(st.sampled_from([None, "--bogus", "stray", "--", "-x", "--n1", "-h"]))
    return argv + ([junk] if junk else [])


GAINS = st.integers(0, 40)
EXPONENTS = st.fractions(0, 3, max_denominator=12)
RATES_ARGVS = flag_argvs("rates", {"--n11": (GAINS, True), "--n21": (GAINS, True),
                                   "--n2": (GAINS, True)})
GAUSSIAN_ARGVS = flag_argvs("gaussian", {
    "--log-snr1": (st.fractions(1, 60, max_denominator=4), False),
    "--beta1": (EXPONENTS, True), "--beta2": (EXPONENTS, True),
    "--const-c": (st.fractions(0, 2, max_denominator=4), False)})


class TestParseOnce:
    """A named subcommand parses its flags once, with the bytes and exit code
    of the full two-level pass."""

    @pytest.mark.parametrize("argv", PARITY_CORPUS.values(), ids=PARITY_CORPUS.keys())
    def test_matches_the_full_pass(self, argv):
        assert outcome(main, list(argv)) == outcome(reference_main, list(argv))

    @settings(derandomize=True, max_examples=150, database=None, deadline=None)
    @given(st.one_of(RATES_ARGVS, GAUSSIAN_ARGVS))
    def test_any_flag_order_matches_the_full_pass(self, argv):
        assert outcome(main, list(argv)) == outcome(reference_main, list(argv))

    def test_argv_defaults_to_sys_argv(self, monkeypatch):
        for argv in (RATES, RATES + ["--bogus"], ["rates", "-h"]):
            monkeypatch.setattr(sys, "argv", ["wth", *argv])
            assert outcome(main, None) == outcome(reference_main, None)

    def test_one_parse_per_valid_call(self, monkeypatch):
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert outcome(main, list(RATES))[0] == 0
        assert calls == ["wth rates"]
        assert outcome(main, RATES + ["--bogus"])[::2] == (
            2, "usage: wth [-h] {rates,gaussian,sweep,verify} ...\n"
               "wth: error: unrecognized arguments: --bogus\n")

    def test_one_parse_without_argparse_internals(self, monkeypatch):
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        monkeypatch.delattr(cli.build_parser(), "_subparsers")
        assert outcome(main, list(RATES))[0] == 0
        assert calls == ["wth rates"]


class TestSubcommandUsage:
    """An error found after parsing prints the usage line of the subcommand
    that found it, as argparse's own errors for that subcommand do."""

    @pytest.mark.parametrize("argv,error", [
        (["verify", "--max-q", "65"], "verification grids are capped at max-q 64"),
        (["gaussian", "--log-snr1", "40", "--beta1", "0.9999999", "--beta2", "1"],
         "the odd-level sum over 10000000 power levels exceeds the cap of 1000000 levels"),
        (["sweep", "--axis", "n21", "--start", "0", "--stop", "1", "--step", "1",
          "--n11", "3", "--n2", "2", "--asymptotic"],
         "asymptotic applies only to a sweep over beta1 or beta2"),
    ], ids=["verify-cap", "gaussian-level-cap", "sweep-flag"])
    def test_error_prints_the_subcommand_usage(self, argv, error):
        code, out, err = outcome(main, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: wth {argv[0]} [-h]")
        assert err.endswith(f"\nwth {argv[0]}: error: {error}\n")


class TestRuleParity:
    """Each value rule has one owner, the library: the CLI exits 2 with the
    very text that the matching library call raises."""

    @pytest.mark.parametrize("argv,call", [
        (["rates", "--n11", "-1", "--n21", "0", "--n2", "0"], lambda: ChannelParams(-1, 0, 0)),
        (["verify", "--max-q", "-1"], lambda: run_verification(-1)),
        (["gaussian", "--beta1", "0.5", "--beta2", "1e20000"],
         lambda: GaussianParams(40, "0.5", "1e20000")),
        (["sweep", "--axis", "n11", "--start", "1", "--stop", "2", "--step", "1",
          "--n21", "2", "--n2", "3", "--log-snr1", "7"],
         lambda: run_sweep(SweepSpec("n11", F(1), F(2), F(1), {"n21": F(2), "n2": F(3)},
                                     log_snr1=F(7)))),
    ], ids=["negative-gain", "negative-max-q", "huge-exponent", "gaussian-field-on-gain-axis"])
    def test_cli_error_is_the_library_error(self, argv, call):
        with pytest.raises(ParameterError) as exc:
            call()
        code, out, err = outcome(main, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(str(exc.value))


class TestIntFlags:
    """The int flags (--n11, --n21, --n2, --max-q, --seed) read what ``int``
    reads, but refuse a "_" inside a value, as the rational flags do."""

    @pytest.mark.parametrize("argv", [
        ["rates", "--n11", "{}", "--n21", "8", "--n2", "10"],
        ["rates", "--n11", "10", "--n21", "{}", "--n2", "10"],
        ["sweep", "--axis", "n11", "--start", "1", "--stop", "2", "--step", "1",
         "--n21", "8", "--n2", "{}"],
        ["verify", "--max-q", "{}"],
        ["verify", "--max-q", "1", "--seed", "{}"],
    ], ids=["n11", "n21", "n2", "max-q", "seed"])
    @pytest.mark.parametrize("value", ["1_0", "10_000", "x", "1.0", ""])
    def test_refused_with_the_int_message(self, argv, value):
        flag = argv[argv.index("{}") - 1]
        code, out, err = outcome(main, [a.format(value) for a in argv])
        assert (code, out) == (2, "")
        assert err.endswith(f" error: argument {flag}: invalid int value: {value!r}\n")

    def test_what_int_reads_still_runs(self):
        assert outcome(main, ["rates", "--n11", " 10 ", "--n21", "8", "--n2", "+10"]) == \
            outcome(main, RATES)
        code, out, _ = outcome(main, ["verify", "--max-q", "2", "--seed", "-3"])
        assert (code, out.splitlines()[-1]) == (0, "result: ok")


FULL = "/dev/full"  # every write to it fails with ENOSPC


class TestFailedWrite:
    """A write that fails, to stdout or to --out, exits 3 with one line on stderr
    and no traceback: ``main`` reports it, and nothing is left to fail at exit."""

    def test_main_reports_a_failed_stdout_flush(self, monkeypatch, capsys):
        class Full(io.StringIO):
            def flush(self):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        assert main(RATES) == 3
        err = capsys.readouterr().err
        assert err == "cannot write output: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL} on this system")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [RATES, GAUSSIAN, SWEEP, ["verify", "--max-q", "3"],
                                      [*SWEEP[:-1], FULL]],
                             ids=["rates", "gaussian", "sweep", "verify", "sweep-out"])
    def test_full_device(self, argv, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        to_stdout = FULL not in argv
        with open(FULL, "wb") as full:
            done = subprocess.run([sys.executable, "-m", "wiretap_helper.cli", *argv],
                                  stdout=full if to_stdout else subprocess.PIPE,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        assert done.returncode == 3
        assert done.stderr == b"cannot write output: [Errno 28] No space left on device\n"
        assert to_stdout or done.stdout == b""


class TestClosedStdout:
    """A process started with fd 1 closed has ``sys.stdout is None``: a command
    that writes to stdout exits 3 with one line on stderr, as for any failed
    write, while ``sweep --out PATH``, which writes no stdout, still runs."""

    CLOSED = "cannot write output: [Errno 9] Bad file descriptor\n"
    ARGVS = pytest.mark.parametrize("argv", [RATES, GAUSSIAN, SWEEP, ["verify", "--max-q", "2"]],
                                    ids=["rates", "gaussian", "sweep", "verify"])

    @ARGVS
    def test_in_process(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(argv) == 3
        assert capsys.readouterr().err == self.CLOSED

    def test_in_process_sweep_to_a_file(self, monkeypatch, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        monkeypatch.setattr(sys, "stdout", None)
        assert main([*SWEEP[:-1], str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().startswith("axis_value,")

    @staticmethod
    def closed_run(argv):
        # sh closes fd 1 before it starts the CLI
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        return subprocess.run(["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m",
                               "wiretap_helper.cli", *argv],
                              stderr=subprocess.PIPE, env=env, timeout=60)

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 through sh")
    @ARGVS
    def test_fd_closed(self, argv):
        done = self.closed_run(argv)
        assert (done.returncode, done.stderr.decode()) == (3, self.CLOSED)

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 through sh")
    def test_fd_closed_sweep_to_a_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        done = self.closed_run([*SWEEP[:-1], str(out)])
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.read_text() == outcome(main, SWEEP)[1]
