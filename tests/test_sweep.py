"""Sweep rows: cells shared by a run of equal gain triples, against the
row-by-row loop they replaced; the CSV writer, against the ``csv.writer``
version it replaced."""

import csv
import io
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from wiretap_helper import ChannelParams, GaussianParams, ParameterError, SweepSpec, sweep
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
# 24 * 24 levels
steps = fractions(st.integers(1, 6), st.integers(1, 24))
gauss_starts = fractions(st.integers(0, 72), st.integers(1, 24))
fixed_betas = fractions(st.integers(0, 72), st.integers(1, 24))
log_snr1s = fractions(st.integers(1, 400), st.integers(1, 9))
consts = st.one_of(st.just(F(0)), fractions(st.integers(-3, 6), st.integers(1, 5)))


class TestSharedCellsMatchRowByRow:
    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.sampled_from(GAUSS_AXES), gauss_starts, steps, st.integers(0, 30),
           st.sampled_from([0, F(1, 2)]), fixed_betas, log_snr1s, consts, st.booleans())
    @example("beta1", F(0), F(1, 300), 900, 0, F(2, 3), F(17, 2), F(3, 4), True)
    @example("beta2", F(0), F(1, 100), 200, 0, F(99, 100), F(40), F(0), False)
    @example("beta1", F(1, 2), F(1, 10), 5, 0, F(1), F(40), F(-1, 3), False)
    def test_gaussian_sweeps(self, axis, start, step, steps_on, overshoot, other, log_snr1,
                             const_c, asymptotic):
        stop = start + (steps_on + overshoot) * step
        fixed = {({"beta1", "beta2"} - {axis}).pop(): other}
        spec = SweepSpec(axis, start, stop, step, fixed, log_snr1=log_snr1,
                         const_c=const_c, asymptotic=asymptotic)
        got, want = outcome(spec)
        assert got == want
        if const_c < 0:
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
                 for name in ("gaussian_upper_bounds", "r_achievable", "gaussian_rate")}
        rows = run_sweep(FIGURE._replace(asymptotic=asymptotic))
        assert len(rows) == 2451
        triples = calls["gaussian_upper_bounds"]
        assert len(triples) == len(set(triples)) == 99
        if asymptotic:
            assert calls["r_achievable"] == triples
            assert calls["gaussian_rate"] == []
        else:
            assert calls["r_achievable"] == []
            assert len(calls["gaussian_rate"]) == 2451  # one per row

    def test_deterministic_sweep_has_a_triple_per_row(self, monkeypatch):
        calls = counted(monkeypatch, "upper_bounds")
        spec = SweepSpec("n21", F(0), F(40), F(1), {"n11": F(20), "n2": F(15)})
        assert len(run_sweep(spec)) == len(calls) == len(set(calls)) == 41


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

    @pytest.mark.parametrize("asymptotic,calls", [(False, 12_750), (True, 3_342)],
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
