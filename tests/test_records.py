"""The public records: named tuples with checked construction, value
semantics, and reprs that name their fields."""

import pickle
from fractions import Fraction as F

import pytest

from wiretap_helper import (
    Allocation,
    ChannelParams,
    GaussianParams,
    GaussianRateBreakdown,
    LinearScheme,
    OracleGap,
    ParameterError,
    RateBreakdown,
    SweepRow,
    SweepSpec,
    UpperBounds,
    VerificationRun,
    build_linear_scheme,
    construct_allocation,
    gaussian_rate,
    r_achievable,
    run_sweep,
    run_verification,
    upper_bounds,
)

P = ChannelParams(10, 8, 10)

# each public record: a fresh sample of equal value per call, and its fields in order
RECORDS = {
    ChannelParams: (lambda: ChannelParams(10, 8, 10), ("n11", "n21", "n2")),
    GaussianParams: (lambda: GaussianParams(40, "0.75", 1), ("log_snr1", "beta1", "beta2")),
    UpperBounds: (lambda: upper_bounds(P), ("ub1", "ub2", "ub3")),
    RateBreakdown: (lambda: r_achievable(P), ("r_private", "r_common", "r_ach", "case_tag")),
    Allocation: (lambda: construct_allocation(P), ("message", "jam")),
    LinearScheme: (lambda: build_linear_scheme(construct_allocation(P), P),
                   ("A", "B", "C", "D", "allocation", "params")),
    GaussianRateBreakdown: (
        lambda: gaussian_rate(GaussianParams(40, "0.75", 1)),
        ("r_private", "r_common", "r_gross", "d", "r_ach", "normalized", "case_tag",
         "r_common_sum")),
    SweepSpec: (lambda: SweepSpec("beta1", F(1, 2), F(1), F(1, 4), {"beta2": F(1)}),
                ("axis", "start", "stop", "step", "fixed", "log_snr1", "const_c",
                 "asymptotic")),
    SweepRow: (lambda: run_sweep(SweepSpec("n11", F(10), F(10), F(1),
                                           {"n21": F(8), "n2": F(10)}))[0],
               ("axis_value", "r_ach", "r_private", "r_common", "ub1", "ub2", "ub3", "min_ub",
                "normalized_ach", "normalized_ub", "case_tag")),
    VerificationRun: (lambda: run_verification(6, with_oracle=True),
                      ("instances", "schemes_checked", "singular_instances", "oracle_checked",
                       "failures", "oracle_gaps")),
    OracleGap: (lambda: run_verification(6, with_oracle=True).oracle_gaps[0],
                ("params", "oracle_rate", "formula_rate")),
}


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    make, fields = RECORDS[request.param]
    return request.param, make, fields


class TestValueSemantics:
    def test_repr_names_fields_in_order(self, record):
        cls, make, fields = record
        x = make()
        assert type(x) is cls and cls._fields == fields
        assert repr(x) == f"{cls.__name__}(" + ", ".join(
            f"{name}={getattr(x, name)!r}" for name in fields) + ")"

    def test_equal_values_compare_and_hash_equal(self, record):
        cls, make, _ = record
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        if cls is SweepSpec:
            with pytest.raises(TypeError):  # hashes by value, and ``fixed`` is a mapping
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_attributes_are_read_only(self, record):
        _, make, fields = record
        x = make()
        with pytest.raises(AttributeError):
            setattr(x, fields[0], getattr(x, fields[0]))
        with pytest.raises(AttributeError):
            x.extra = 1

    def test_records_are_tuples(self):
        # the 0.12.0 break: a record equals the plain tuple of its values
        assert ChannelParams(1, 2, 3) == (1, 2, 3)
        assert tuple(construct_allocation(P)) == (0b11_0011_0011, 0b11_0011_0011)


class TestChecksCannotBeBypassed:
    @pytest.mark.parametrize("build", [
        lambda: ChannelParams(1, 2, 3)._replace(n11=-1),
        lambda: ChannelParams(1, 2, 3)._replace(n2=1.5),
        lambda: ChannelParams._make([1, -2, 3]),
        lambda: GaussianParams(40, 1, 1)._replace(log_snr1=0),
        lambda: GaussianParams(40, 1, 1)._replace(beta2=F(-1, 3)),
        lambda: GaussianParams._make([40, -1, 1]),
    ], ids=["replace-negative", "replace-float", "make-negative", "replace-log-snr1",
            "replace-beta2", "make-beta1"])
    def test_replace_and_make_check(self, build):
        with pytest.raises(ParameterError):
            build()

    def test_replace_normalizes(self):
        g = GaussianParams(40, 1, 1)._replace(beta1=0.05)
        assert g.beta1 == F(1, 20) and type(g.beta1) is F
        assert ChannelParams(1, 2, 3)._replace(n21=7) == ChannelParams(1, 7, 3)

    @pytest.mark.parametrize("x", [ChannelParams(3, 1, 2), GaussianParams("0.5", 2, 1)],
                             ids=["ChannelParams", "GaussianParams"])
    def test_pickle_roundtrip(self, x):
        y = pickle.loads(pickle.dumps(x))
        assert y == x and type(y) is type(x)

    def test_sweep_spec_default_fixed_is_read_only(self):
        a, b = SweepSpec("n11", F(1), F(2), F(1)), SweepSpec("n21", F(1), F(2), F(1))
        with pytest.raises(TypeError):
            a.fixed["n21"] = F(2)
        assert dict(a.fixed) == dict(b.fixed) == {}
