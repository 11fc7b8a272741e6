"""Sweep rows: cells shared by a run of equal gain triples, against the
row-by-row loop they replaced; the CSV writer, against the ``csv.writer``
version it replaced."""

import csv
import io
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from wiretap_helper import (ChannelParams, GaussianParams, ParameterError, SweepSpec, gaussian,
                            sweep)
from wiretap_helper.bounds import _doubled_bounds, gaussian_upper_bounds, upper_bounds
from wiretap_helper.gaussian import correspondence, gaussian_rate
from wiretap_helper.scheme import CaseTag, r_achievable
from wiretap_helper.sweep import (DET_AXES, GAUSS_AXES, SweepRow, _normalized, run_sweep,
                                  write_csv, write_svg)


def row_by_row_sweep(spec):
    """Reference: the 0.12.0 ``run_sweep``, which built every cell of every row."""
    gaussian = spec.axis in GAUSS_AXES
    if not gaussian and spec.axis not in DET_AXES:
        raise ParameterError(f"unknown sweep axis {spec.axis!r}")
    wanted = set(GAUSS_AXES if gaussian else DET_AXES) - {spec.axis}
    for name in sorted(wanted ^ set(spec.fixed)):
        verb = "needs" if name in wanted else "takes no"
        raise ParameterError(f"sweep over {spec.axis} {verb} fixed {name}")
    rows = []
    for v in spec.grid():
        params = {**spec.fixed, spec.axis: v}
        if gaussian:
            g = GaussianParams(spec.log_snr1, params["beta1"], params["beta2"])
            p = correspondence(g)
            ub = gaussian_upper_bounds(p, spec.const_c)
        else:
            for name, x in params.items():
                if x.denominator != 1:
                    raise ParameterError(f"{name} must be an integer, got {x}")
            p = ChannelParams(**{name: int(x) for name, x in params.items()})
            ub = upper_bounds(p)
        twice = _doubled_bounds(p.n11, p.n21, p.n2)
        min_ub = (ub.ub1, ub.ub2, ub.ub3)[twice.index(min(twice))]
        if gaussian and not spec.asymptotic:
            br = gaussian_rate(g)
            r_ach, r_private, r_common = br.r_gross, br.r_private, br.r_common
            norm = spec.log_snr1.as_integer_ratio()
        else:
            br = r_achievable(p)
            r_ach, r_private, r_common = map(F, (br.r_ach, br.r_private, br.r_common))
            norm = p.n11, 1
        rows.append(SweepRow(
            axis_value=v, r_ach=r_ach, r_private=r_private, r_common=r_common,
            ub1=ub.ub1, ub2=ub.ub2, ub3=ub.ub3, min_ub=min_ub,
            normalized_ach=_normalized(r_ach, *norm),
            normalized_ub=_normalized(min_ub, *norm),
            case_tag=br.case_tag.value,
        ))
    return rows


def outcome(spec):
    """Each version's rows with the type of every cell, or the ParameterError
    it raises."""
    result = []
    for build in (run_sweep, row_by_row_sweep):
        try:
            rows = build(spec)
        except ParameterError as exc:
            result.append((ParameterError, str(exc)))
        else:
            result.append((rows, [tuple(map(type, r)) for r in rows]))
    return result


def fractions(num, den):
    return st.builds(F, num, den)


# denominators up to 24, so that a beta1 below one on the grid has at most
# 24 * 24 levels; negative betas and log_snr1 <= 0 are refused by row 0
steps = fractions(st.integers(1, 6), st.integers(1, 24))
gauss_starts = fractions(st.integers(-24, 72), st.integers(1, 24))
fixed_betas = fractions(st.integers(-24, 72), st.integers(1, 24))
log_snr1s = fractions(st.integers(-40, 400), st.integers(1, 9))
consts = st.one_of(st.just(F(0)), fractions(st.integers(-3, 6), st.integers(1, 5)))


class TestSharedCellsMatchRowByRow:
    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.sampled_from(GAUSS_AXES), gauss_starts, steps, st.integers(0, 30),
           st.sampled_from([0, F(1, 2)]), fixed_betas, log_snr1s, consts, st.booleans())
    @example("beta1", F(0), F(1, 300), 900, 0, F(2, 3), F(17, 2), F(3, 4), True)
    @example("beta2", F(0), F(1, 100), 200, 0, F(99, 100), F(40), F(0), False)
    @example("beta1", F(1, 2), F(1, 10), 5, 0, F(1), F(40), F(-1, 3), False)
    @example("beta1", F(-1, 2), F(1, 4), 4, 0, F(1), F(40), F(-1), False)  # negative first row
    @example("beta2", F(0), F(1, 4), 4, 0, F(-1, 3), F(40), F(0), False)  # negative fixed beta
    @example("beta1", F(0), F(1, 4), 4, 0, F(1), F(0), F(0), True)  # log_snr1 = 0
    # the end of a run, (c lb D - la A) // (la B) + 1, at its edge cases:
    # L v an integer on every row, so every run ends at a ceil tie
    @example("beta1", F(0), F(1, 40), 100, 0, F(1), F(40), F(0), False)
    @example("beta2", F(0), F(1, 40), 100, F(1, 2), F(1, 2), F(40), F(0), True)
    # L step > 1: runs of one row
    @example("beta2", F(0), F(1, 10), 30, F(1, 2), F(1, 2), F(40), F(0), False)
    @example("beta1", F(1, 2), F(1, 3), 6, 0, F(1), F(13, 3), F(0), True)
    # one run over the whole grid: ceil(L v) = 1 for v in [1/2, 4/5]
    @example("beta1", F(1, 2), F(1, 100), 30, 0, F(1), F(1), F(0), False)
    @example("beta2", F(1, 2), F(1, 100), 30, F(1, 2), F(2), F(1), F(0), True)
    # a start that is not a multiple of the step
    @example("beta1", F(2, 7), F(3, 10), 9, F(1, 2), F(3, 2), F(17, 2), F(1, 2), False)
    @example("beta2", F(1, 7), F(1, 300), 400, 0, F(3, 4), F(40), F(0), True)
    # a huge log_snr1 with beta1 >= 1, so no finite row sums its levels
    @example("beta1", F(1), F(1, 7), 12, 0, F(1, 2), F(10**400, 3), F(0), False)
    @example("beta2", F(0), F(1, 3), 9, F(1, 2), F(3, 2), F(10**400, 3), F(1, 4), True)
    def test_gaussian_sweeps(self, axis, start, step, steps_on, overshoot, other, log_snr1,
                             const_c, asymptotic):
        stop = start + (steps_on + overshoot) * step
        fixed = {({"beta1", "beta2"} - {axis}).pop(): other}
        spec = SweepSpec(axis, start, stop, step, fixed, log_snr1=log_snr1,
                         const_c=const_c, asymptotic=asymptotic)
        got, want = outcome(spec)
        assert got == want
        if const_c < 0 or log_snr1 <= 0 or min(start, other) < 0:
            assert got[0] is ParameterError

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.sampled_from(DET_AXES), st.integers(0, 40), st.sampled_from([1, 2, 3, F(1, 2)]),
           st.integers(0, 30), st.integers(0, 40), st.integers(0, 40))
    def test_deterministic_sweeps(self, axis, start, step, steps_on, a, b):
        others = [name for name in DET_AXES if name != axis]
        spec = SweepSpec(axis, F(start), F(start + steps_on * step), F(step),
                         {others[0]: F(a), others[1]: F(b)})
        got, want = outcome(spec)
        assert got == want


class TestSpecTypes:
    """``asymptotic`` is a bool and ``fixed`` a mapping, checked before any
    axis rule, so no other value stands in for them."""

    BETA = SweepSpec("beta1", F(7, 10), F(7, 10), F(1), {"beta2": F(13, 10)}, log_snr1="13/3")
    GAIN = SweepSpec("n11", F(1), F(2), F(1), {"n21": F(2), "n2": F(3)})

    def test_bools_keep_their_rows(self):
        assert run_sweep(self.BETA)[0].r_ach == F(13, 5)
        assert run_sweep(self.BETA._replace(asymptotic=True))[0].r_ach == 3
        assert len(run_sweep(self.GAIN._replace(asymptotic=False))) == 2

    @pytest.mark.parametrize("spec", [BETA, GAIN], ids=["beta-axis", "gain-axis"])
    @pytest.mark.parametrize("value", ["no", 0, None, "", [], 1.0, 1],
                             ids=["no", "0", "None", "empty-str", "empty-list", "1.0", "1"])
    def test_asymptotic_must_be_a_bool(self, spec, value):
        with pytest.raises(ParameterError,
                           match=f"^asymptotic must be a bool, got {re.escape(repr(value))}$"):
            run_sweep(spec._replace(asymptotic=value))

    @pytest.mark.parametrize("value", [None, 5, [("n21", F(2)), ("n2", F(3))], "n21"],
                             ids=["None", "5", "pairs", "str"])
    def test_fixed_must_be_a_mapping(self, value):
        with pytest.raises(ParameterError, match="^fixed must be a mapping of axis names to "
                                                 f"values, got {re.escape(repr(value))}$"):
            run_sweep(self.GAIN._replace(fixed=value))

    @pytest.mark.parametrize("fixed,name", [({"n21": 2, 5: 3}, 5), ({1: 2}, 1)],
                             ids=["str-and-int", "int"])
    def test_a_key_that_is_no_str_is_refused(self, fixed, name):
        # the keys are sorted by their text, so a mix of types sorts too
        with pytest.raises(ParameterError, match=f"^sweep over n11 takes no fixed {name}$"):
            run_sweep(SweepSpec("n11", 1, 2, 1, fixed))

    def test_unknown_axis_is_refused(self):
        # the CLI's ``choices`` hide this rule, so only the library reaches it
        with pytest.raises(ParameterError, match="^unknown sweep axis 'n3'$"):
            run_sweep(SweepSpec("n3", 0, 1, 1))


FIGURE = SweepSpec("beta1", F("0.05"), F("2.5"), F("0.001"), {"beta2": F(1)}, log_snr1=F(40))


def counted(monkeypatch, name):
    """Record the first argument of every call of ``sweep.<name>``."""
    seen, f = [], getattr(sweep, name)

    def wrapper(*args):
        seen.append(args[0])
        return f(*args)

    monkeypatch.setattr(sweep, name, wrapper)
    return seen


class TestCellsPerTriple:
    """The 2,451-row figure sweep visits 99 gain triples (40, n21, 40)."""

    @pytest.mark.parametrize("asymptotic", [False, True], ids=["finite-snr", "asymptotic"])
    def test_figure_sweep(self, monkeypatch, asymptotic):
        calls = {name: counted(monkeypatch, name)
                 for name in ("correspondence", "gaussian_upper_bounds", "r_achievable",
                              "gaussian_rate")}
        rows = run_sweep(FIGURE._replace(asymptotic=asymptotic))
        assert len(rows) == 2451
        triples = calls["gaussian_upper_bounds"]
        assert len(triples) == len(set(triples)) == 99
        assert [correspondence(g) for g in calls["correspondence"]] == triples  # one per triple
        if asymptotic:
            assert calls["r_achievable"] == triples
            assert calls["gaussian_rate"] == []
        else:
            assert calls["r_achievable"] == []
            assert len(calls["gaussian_rate"]) == 2451  # one per row

    @pytest.mark.parametrize("spec", [FIGURE, FIGURE._replace(asymptotic=True),
                                      SweepSpec("beta2", 0, 2, F(1, 100), {"beta1": F(3, 4)})],
                             ids=["finite-snr", "asymptotic", "beta2"])
    def test_gaussian_params_are_checked_once(self, monkeypatch, spec):
        seen, new = [], GaussianParams.__new__

        def counting(cls, *args, **kwargs):
            seen.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(GaussianParams, "__new__", counting)
        rows = run_sweep(spec)
        assert len(seen) == 1  # row 0's, for the whole sweep
        monkeypatch.undo()
        assert rows == row_by_row_sweep(spec._replace(log_snr1=F(40), const_c=F(0)))

    def test_deterministic_sweep_has_a_triple_per_row(self, monkeypatch):
        calls = counted(monkeypatch, "upper_bounds")
        spec = SweepSpec("n21", F(0), F(40), F(1), {"n11": F(20), "n2": F(15)})
        assert len(run_sweep(spec)) == len(calls) == len(set(calls)) == 41


class TestRowCap:
    """A count above ``MAX_SWEEP_ROWS`` is refused in one short line, however
    many digits it has (``str`` refuses an int of over 4,300)."""

    @pytest.mark.parametrize("spec,shown", [
        *((SweepSpec("beta1", 0, 1, F(1, 10**e), {"beta2": 1}), "over 10^18")
          for e in (4000, 5000)),  # a tiny step
        *((SweepSpec("n21", 0, 10**e, 1, {"n11": 64, "n2": 1}), "over 10^18")
          for e in (4000, 5000)),  # a huge stop
        (SweepSpec("n21", 0, 10**18, 1, {"n11": 64, "n2": 1}), "over 10^18"),
        (SweepSpec("n21", 1, 10**18, 1, {"n11": 64, "n2": 1}), "1000000000000000000"),
    ], ids=["gaussian-4001-digits", "gaussian-5001-digits", "deterministic-4001-digits",
            "deterministic-5001-digits", "just-over-10^18", "10^18"])
    def test_refused_in_one_short_line(self, spec, shown):
        with pytest.raises(ParameterError) as exc:
            run_sweep(spec)
        assert str(exc.value) == f"sweep has {shown} rows, above the cap of 100000"
        assert len(str(exc.value)) < 200


def finished_sums(monkeypatch):
    """The instances of every ``gaussian.odd_level_sum`` call that returned a sum."""
    done, f = [], gaussian.odd_level_sum

    def wrapper(g):
        total = f(g)
        done.append(g)
        return total

    monkeypatch.setattr(gaussian, "odd_level_sum", wrapper)
    return done


# beta1 start, stop and step, with a cap of 4 levels: beta1 from 4/5 up to 1 is over it
CROSSINGS = {
    "first-row": (F(9, 10), F(3, 2), F(1, 10)),  # 10 levels at row 0
    "middle-row": (F(1, 2), F(9, 10), F(1, 10)),  # 5 levels at 4/5, the 4th of 5 rows
    "last-row": (F(1, 2), F(4, 5), F(1, 10)),
    "then-past-one": (F(1, 2), F(2), F(1, 10)),  # rows up to 2 after the cap row
}


class TestLevelCapRefusal:
    """A finite-SNR beta1 sweep with a row over ``MAX_LEVELS`` is refused before any
    odd-level sum, by the error the row-by-row loop meets first."""

    @pytest.mark.parametrize("crossing", CROSSINGS)
    @pytest.mark.parametrize("log_snr1,const_c", [(F(40), F(0)), (F(10**400), F(0)),
                                                  (F(40), F(-1)), (F(10**400), F(-1))],
                             ids=["plain", "huge-log-snr1", "negative-c", "both"])
    def test_refused_before_any_sum(self, monkeypatch, crossing, log_snr1, const_c):
        monkeypatch.setattr(gaussian, "MAX_LEVELS", 4)
        spec = SweepSpec("beta1", *CROSSINGS[crossing], {"beta2": F(1)}, log_snr1=log_snr1,
                         const_c=const_c)
        done = finished_sums(monkeypatch)
        with pytest.raises(ParameterError) as exc:
            run_sweep(spec)
        assert done == []
        if const_c < 0:
            assert str(exc.value) == "the gap constant c must be nonnegative"
        elif log_snr1 > 10**300 and crossing != "first-row":  # row 0 sums, and overflows
            assert str(exc.value) == "log_snr1 is too large for the per-level float bounds"
        else:
            levels = 10 if crossing == "first-row" else 5
            assert str(exc.value) == (f"the odd-level sum over {levels} power levels exceeds "
                                      "the cap of 4 levels")
        assert outcome(spec)[1] == (ParameterError, str(exc.value))

    def test_a_beta2_sweep_over_the_cap_is_refused_at_row_0(self, monkeypatch):
        monkeypatch.setattr(gaussian, "MAX_LEVELS", 4)
        spec = SweepSpec("beta2", F(0), F(2), F(1, 2), {"beta1": F(4, 5)}, log_snr1=F(40),
                         const_c=F(0))
        done = finished_sums(monkeypatch)
        got, want = outcome(spec)
        assert got == want == (ParameterError, "the odd-level sum over 5 power levels exceeds "
                                               "the cap of 4 levels")
        assert done == []

    @pytest.mark.parametrize("spec", [
        # 3/4 has 4 levels, at the cap; 1, 5/4 and 3/2 have none
        SweepSpec("beta1", F(0), F(3, 2), F(1, 4), {"beta2": F(1)}, log_snr1=F(40),
                  const_c=F(0)),
        # no odd-level sums at all
        SweepSpec("beta1", *CROSSINGS["then-past-one"], {"beta2": F(1)}, log_snr1=F(40),
                  const_c=F(0), asymptotic=True),
    ], ids=["within-the-cap", "asymptotic"])
    def test_other_sweeps_keep_their_rows(self, monkeypatch, spec):
        monkeypatch.setattr(gaussian, "MAX_LEVELS", 4)
        got, want = outcome(spec)
        assert got == want and len(got[0]) > 1

    def test_the_near_one_sweep_is_refused_at_once(self, monkeypatch):
        # the last of 200 rows has 2,000,000 levels; the 199 sums before it take about a minute
        done = finished_sums(monkeypatch)
        spec = SweepSpec("beta1", "0.9999", "0.9999995", "0.0000005", {"beta2": 1})
        with pytest.raises(ParameterError, match="^the odd-level sum over 2000000 power levels "
                                                 "exceeds the cap of 1000000 levels$"):
            run_sweep(spec)
        assert done == []


def csv_writer_csv(rows, fh):
    """Reference: the 0.16.0 ``write_csv``, which formatted every cell of every row."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SweepRow._fields)
    for r in rows:
        writer.writerow([*map(sweep.format_number, r[:-1]), r.case_tag])


def csv_text(write, rows):
    fh = io.StringIO()
    write(rows, fh)
    return fh.getvalue()


LONG = 10 ** sys.get_int_max_str_digits()  # str() refuses ints this long
cell_values = st.one_of(
    st.integers(-10**9, 10**9),
    fractions(st.integers(-10**9, 10**9), st.integers(1, 10**4)),
    st.integers(LONG, 10 * LONG).map(lambda n: -n),
    fractions(st.integers(LONG, 10 * LONG), st.integers(1, 10**4)),
    st.just(F(0)),
)
CASE_TAGS = [tag.value for tag in CaseTag]


@st.composite
def sweep_rows(draw):
    """Rows whose cells are new values, the very object of the row above, or
    an equal but distinct object."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cells = []
        for col in range(len(SweepRow._fields) - 1):
            how = draw(st.sampled_from(["new", "shared", "equal"]) if rows else st.just("new"))
            x = rows[-1][col] if rows else None
            if how == "shared":
                cells.append(x)
            elif how == "equal":
                cells.append(F(x.numerator, x.denominator))
            else:
                cells.append(draw(cell_values))
        rows.append(SweepRow(*cells, draw(st.sampled_from(CASE_TAGS))))
    return rows


class TestCsvWriter:
    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(sweep_rows())
    @example([])
    def test_matches_the_csv_writer_version(self, rows):
        want = csv_text(csv_writer_csv, rows)
        assert csv_text(write_csv, rows) == want
        assert csv_text(write_csv, (r for r in rows)) == want

    # the distinct cells: a new triple's min_ub is one of its ub1-ub3, formatted once
    @pytest.mark.parametrize("asymptotic,calls", [(False, 10_102), (True, 3_243)],
                             ids=["finite-snr", "asymptotic"])
    def test_figure_formats_each_distinct_cell_once(self, monkeypatch, asymptotic, calls):
        rows = run_sweep(FIGURE._replace(asymptotic=asymptotic))
        seen = counted(monkeypatch, "format_number")
        text = csv_text(write_csv, rows)
        assert len(seen) == calls
        seen.clear()
        assert csv_text(csv_writer_csv, rows) == text
        assert len(seen) == 24_510  # ten cells of each of the 2,451 rows


class TestSpecNumbersAreRead:
    """``run_sweep`` reads every number of the spec by ``to_fraction``, as the
    CLI reads its flags: a str, float or int gives the rows of its Fraction."""

    BASE = SweepSpec("beta1", F(1, 2), F(1), F(1, 4), {"beta2": F(1)})

    @pytest.mark.parametrize("field,given,exact", [
        ("log_snr1", "40", F(40)),
        ("const_c", "0.5", F(1, 2)),
        ("start", "0.5", F(1, 2)),
        ("stop", 1.0, F(1)),
        ("step", "1/4", F(1, 4)),
        ("fixed", {"beta2": "1"}, {"beta2": F(1)}),
        ("fixed", {"beta2": 0.75}, {"beta2": F(3, 4)}),
    ])
    def test_gaussian_spec(self, field, given, exact):
        rows = run_sweep(self.BASE._replace(**{field: given}))
        assert rows == run_sweep(self.BASE._replace(**{field: exact}))
        assert len(rows) == 3

    def test_deterministic_spec(self):
        spec = SweepSpec("n21", "0", 4.0, 1, {"n11": "20", "n2": 15})
        assert run_sweep(spec) == run_sweep(
            SweepSpec("n21", F(0), F(4), F(1), {"n11": F(20), "n2": F(15)}))

    @pytest.mark.parametrize("field,given,message", [
        ("const_c", "-0.5", "the gap constant c must be nonnegative"),
        ("log_snr1", "1e100000", "decimal exponent beyond"),
        ("step", "0", "sweep step must be positive"),
    ])
    def test_bad_values_raise_parameter_error(self, field, given, message):
        with pytest.raises(ParameterError, match=message):
            run_sweep(self.BASE._replace(**{field: given}))

    def test_non_integer_gain_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="^n2 must be an integer, got 5/2$"):
            run_sweep(SweepSpec("n21", 0, 4, 1, {"n11": 20, "n2": 2.5}))


def test_svg_of_no_rows_raises_parameter_error():
    fh = io.StringIO()
    with pytest.raises(ParameterError, match="^an SVG plot needs at least one row$"):
        write_svg([], fh, "x")
    assert fh.getvalue() == ""


def test_svg_reads_its_rows_once():
    rows = run_sweep(FIGURE)
    as_list, as_iter = io.StringIO(), io.StringIO()
    write_svg(rows, as_list, "beta1")
    write_svg(iter(rows), as_iter, "beta1")
    assert as_iter.getvalue() == as_list.getvalue()


def test_svg_of_an_empty_iterator_raises_parameter_error():
    with pytest.raises(ParameterError, match="^an SVG plot needs at least one row$"):
        write_svg(iter([]), io.StringIO(), "x")
