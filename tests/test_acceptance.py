"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Sweep-based criteria exclude rows tagged singular: those
instances have no alignment scheme by construction and are reported
distinctly everywhere else in the package.
"""

import math
import random
from collections import Counter
from functools import reduce
from operator import xor
from fractions import Fraction as F

import pytest

from wiretap_helper import (
    Allocation,
    CaseTag,
    ChannelParams,
    GaussianParams,
    LinearScheme,
    SweepSpec,
    build_linear_scheme,
    construct_allocation,
    correspondence,
    decodable,
    gaussian_rate,
    leakage,
    oracle_best_rate,
    phi2,
    r_achievable,
    run_sweep,
    upper_bounds,
)
from wiretap_helper.verify import iter_instances


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


@pytest.fixture(scope="module")
def beta1_sweep():
    spec = SweepSpec(axis="beta1", start=F("0.05"), stop=F("1.95"), step=F("0.01"),
                     fixed={"beta2": F(1)}, log_snr1=F(40))
    return run_sweep(spec)


@pytest.fixture(scope="module")
def beta1_sweep_asymptotic():
    spec = SweepSpec(axis="beta1", start=F("0.05"), stop=F("1.95"), step=F("0.01"),
                     fixed={"beta2": F(1)}, log_snr1=F(40), asymptotic=True)
    return run_sweep(spec)


def test_criterion_1_tight_instance():
    p = ChannelParams(10, 8, 10)
    br = r_achievable(p)
    ub = upper_bounds(p)
    assert br.r_ach == 6
    assert ub.min_ub == 6
    # cross-checks: partition formula and construction bit count
    assert phi2(10, 2) == 6
    assert construct_allocation(p).message.bit_count() == 6
    report(1, "tight instance (10,8,10)")


def test_criterion_2_exact_secrecy_and_decodability_q24():
    checked = 0
    for p in iter_instances(24):
        br = r_achievable(p)
        if br.case_tag is CaseTag.SINGULAR:
            continue
        alloc = construct_allocation(p)
        s = build_linear_scheme(alloc, p)
        assert alloc.message.bit_count() == br.r_ach, p
        assert leakage(s) == 0, p
        assert decodable(s), p
        checked += 1
    assert checked == 25**3 - 25**2  # every non-singular triple in the cube
    report(2, f"zero leakage + decodability on {checked} schemes, q <= 24")


def test_criterion_3_converse_consistency_q30():
    for p in iter_instances(30):
        assert r_achievable(p).r_ach <= upper_bounds(p).min_ub, p
    report(3, "achievable never exceeds converse, q <= 30")


def test_criterion_4_oracle_dominance_q40():
    gaps = gaps_q24 = 0
    for p in iter_instances(40):
        br = r_achievable(p)
        ub = upper_bounds(p)
        rate, witness = oracle_best_rate(p)
        assert rate >= br.r_ach, p
        assert rate <= ub.min_ub, p
        s = build_linear_scheme(witness, p)
        assert leakage(s) == 0 and decodable(s) and len(s.A) == rate, p
        if rate > br.r_ach:
            gaps += 1
            gaps_q24 += p.q <= 24
    assert gaps_q24 == 144
    assert gaps == 766
    report(4, f"oracle dominance on q <= 40 ({gaps} strict gaps reported as findings)")


def test_criterion_5_rank_identity_vs_enumeration():
    rng = random.Random(2024)
    for _ in range(200):
        q = rng.randint(1, 8)
        k = rng.randint(0, 6)
        m = rng.randint(0, min(6, 10 - k))
        A = tuple(rng.getrandbits(q) for _ in range(k))
        B = tuple(rng.getrandbits(q) for _ in range(m))
        s = LinearScheme(A=A, B=B, C=A, D=B, allocation=Allocation(0, 0),
                         params=ChannelParams(q, q, q))
        joint = Counter()
        marginal = Counter()
        for w in range(2**k):
            for u in range(2**m):
                # y2 = A w + B u: w picks columns of A, u those of B
                y = reduce(xor, (c for j, c in enumerate(A + B) if ((u << k | w) >> j) & 1), 0)
                joint[(w, y)] += 1
                marginal[y] += 1
        total = 2 ** (k + m)
        h_y = -sum(c / total * math.log2(c / total) for c in marginal.values())
        h_y_w = -sum(c / total * math.log2(c / 2**m) for c in joint.values())
        assert abs(leakage(s) - (h_y - h_y_w)) < 1e-9
    report(5, "rank-based leakage equals enumerated mutual information, 200 schemes")


def test_criterion_6_sdof_one_half(beta1_sweep, beta1_sweep_asymptotic):
    finite = [r.normalized_ach for r in beta1_sweep if r.case_tag != "singular"]
    assert F("0.45") <= min(finite) <= F("0.55")
    asym = [r.normalized_ach for r in beta1_sweep_asymptotic if r.case_tag != "singular"]
    assert F("0.49") <= min(asym) <= F("0.51")
    for r in beta1_sweep:  # normalized columns stay within boundary rounding
        assert 0 <= r.normalized_ach <= F("1.01")
        assert 0 <= r.normalized_ub <= F("1.01")
    report(6, f"sweep minimum {float(min(finite))} (asymptotic {float(min(asym))})")


@pytest.mark.parametrize("beta1,regime,rate,min_ub", [
    ("0", "weak-helper", "1", "1"),
    ("1/6", "weak-helper", "5/6", "5/6"),
    ("1/3", "weak-helper", "2/3", "2/3"),
    ("1/2", "weak-helper", "1/2", "1/2"),
    ("3/5", "weak-helper", "3/5", "3/5"),
    ("2/3", "aligned", "2/3", "2/3"),
    ("7/10", "aligned", "3/5", "13/20"),
    ("3/4", "aligned", "1/2", "5/8"),
    ("5/6", "aligned", "1/2", "7/12"),
    ("9/10", "aligned", "1/2", "11/20"),
    ("99/100", "aligned", "1/2", "101/200"),
    ("1", "singular", "0", "1/2"),
    ("11/10", "aligned", "1/2", "11/20"),
    ("3/2", "aligned", "1/2", "3/4"),
    ("2", "strong-helper", "1", "1"),
    ("5/2", "strong-helper", "1", "1"),
])
def test_the_beta2_one_line(beta1, regime, rate, min_ub):
    """The abstract's 1/2 on the beta2 = 1 line, at n11 = n2 = 1,200 and
    n21 = beta1 n11, each rate divided by n11.  Where the helper aligns, the
    formula (which the oracle equals) falls to 1/2, and the least upper bound
    meets it there only as beta1 -> 1; at beta1 = 1 itself the rate is 0."""
    p = ChannelParams(1200, int(F(beta1) * 1200), 1200)
    br = r_achievable(p)
    assert br.case_tag.value == regime
    assert F(br.r_ach, p.n11) == F(rate)
    assert oracle_best_rate(p)[0] == br.r_ach
    assert F(upper_bounds(p).min_ub) / p.n11 == F(min_ub)


def test_criterion_7_fluctuation_regime(beta1_sweep):
    region = [r for r in beta1_sweep
              if F(2, 3) <= r.axis_value < 2 and r.case_tag != "singular"]
    assert len(region) > 100
    for r in region:
        assert r.normalized_ach >= F("0.45"), r
        assert r.normalized_ach <= r.normalized_ub + F("0.01"), r
    assert any(abs(r.normalized_ach - r.normalized_ub) <= F("0.02") for r in region)
    assert any(r.normalized_ach < r.normalized_ub - F("0.05") for r in region)
    report(7, "achievable fluctuates between 1/2 and the upper bound on [2/3, 2)")


def test_criterion_8_strong_helper_plateau():
    for b1 in (F(2), F("2.3"), F(5)):
        gb = gaussian_rate(GaussianParams(F(40), b1, F(1)))
        assert gb.normalized == 1
    rows = run_sweep(SweepSpec(axis="beta1", start=F(2), stop=F("2.5"), step=F("0.05"),
                               fixed={"beta2": F(1)}, log_snr1=F(40)))
    assert all(r.normalized_ach == 1 for r in rows)
    for n11, n2 in ((5, 5), (12, 7), (9, 20)):
        p = ChannelParams(n11, 2 * n11, n2)
        assert r_achievable(p).r_ach == n11
    report(8, "normalized rate is exactly 1 for helper gain ratio >= 2")


def _det_uses_phi1(p: ChannelParams) -> bool:
    return p.n11 > p.n2 and p.n11 > p.n21


def _gap_point(L, b1, b2):
    """Gap between Gaussian and deterministic rates, or None when the point
    sits on a case or branch boundary under the integer correspondence."""
    g = GaussianParams(F(L), b1, b2)
    gb = gaussian_rate(g)
    cp = correspondence(g)
    det = r_achievable(cp)
    if CaseTag.SINGULAR in (det.case_tag, gb.case_tag):
        return None
    if det.case_tag is not gb.case_tag:
        return None
    if gb.case_tag is CaseTag.ALIGNED and _det_uses_phi1(cp) != (b1 < 1 and b2 < 1):
        return None
    return abs(gb.r_ach - det.r_ach)


def test_criterion_9_constant_gap_transfer():
    betas1 = [F(k, 20) for k in range(1, 50) if F(k, 20) not in (F(1), F(2))]
    betas2 = [F(k, 20) for k in range(0, 31)]
    gaps40 = {}
    gaps60 = {}
    kept = 0
    for b1 in betas1:
        bound = math.floor(1 / abs(1 - b1)) + 3
        for b2 in betas2:
            for L in (10, 20, 40, 60):
                gap = _gap_point(L, b1, b2)
                if gap is None:
                    continue
                kept += 1
                assert gap <= bound, (L, b1, b2, gap, bound)
                if L == 40:
                    gaps40[(b1, b2)] = gap
                elif L == 60:
                    gaps60[(b1, b2)] = gap
    for key, g40 in gaps40.items():
        if key in gaps60:
            assert gaps60[key] <= g40, (key, g40, gaps60[key])
    assert kept > 4000
    report(9, f"constant-gap transfer on {kept} grid points, non-increasing at high SNR")
