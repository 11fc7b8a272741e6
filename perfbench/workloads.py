"""Seeded op streams for the four workloads, and the check of each op's output.

An op is one ``wth`` invocation, given as the argv list that
``wiretap_helper.cli.main`` receives.  Each workload is an endless stream of
``Op`` records built from the workload seed alone; the program under test
sees only the argv.  Streams are made of whole cycles (see ``CYCLE``) whose
cost does not depend on the seed, so that a closed loop stopped at a cycle
boundary measures the same mix of work for every seed.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator

WORKLOADS = ("verify-grid", "oracle-search", "sweep-figure", "query-mix")

# Ops per cycle.  A run only stops at a cycle boundary.
CYCLE = {"verify-grid": 1, "oracle-search": 1, "sweep-figure": 3, "query-mix": 20}

# Ops of a traced run: whole cycles, about ten seconds of traced work each on
# a 2-vCPU Intel Xeon.  A fixed amount of work makes the per-layer counts
# repeat from run to run, and a lower count or self time mean less work.
TRACED_OPS = {"verify-grid": 8, "oracle-search": 60, "sweep-figure": 27, "query-mix": 1400}

# Output of ``wth sweep --axis beta1 --start 0.05 --stop 2.5 --step 0.001
# --beta2 1 --log-snr1 40`` in each of the three figure formats, recorded at
# the commit that introduced this benchmark.
SWEEP_BASE = ["sweep", "--axis", "beta1", "--start", "0.05", "--stop", "2.5",
              "--step", "0.001", "--beta2", "1", "--log-snr1", "40", "--out", "-"]
SWEEP_ROWS = 2451
SWEEP_JOBS = (
    (["--format", "csv"],
     "99dd8df51fabb87bcafea6b97d2c03cb6fa3f01ecefb09284adb5d78b7e7ccb0"),
    (["--format", "svg"],
     "fefbffe3865f5711f9e382eaf204cbc34e468aff913390def379cde79d215ecc"),
    (["--format", "csv", "--asymptotic"],
     "49a3d131b44a897fc37dd9ad74044cc681e0c805aff3daf14b8610b0e0481850"),
)

# Largest gain of ``rates`` queries, and the beta grid of ``gaussian`` queries.
MAX_GAIN = 64
BETA_DENOMINATOR = 1000  # three decimals
BETA_GRID_TOP = 2500
LOG_SNR1_CHOICES = (20, 30, 40, 50, 60)
# 1 op in 20 is a near-one gaussian query; 10 in 20 are rates queries.
RATES_PER_CYCLE = 10
NEAR_ONE_K = (3, 4)

# The rounding bound of a printed non-integer rate: six decimals, half-even.
PRINT_TOLERANCE = Fraction(1, 2 * 10**6)


class CheckFailed(Exception):
    """An op returned, but its output is not what this commit must print."""


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[str], int]  # raises CheckFailed; returns the items completed
    kind: str


def ops(workload: str, seed: int) -> Iterator[Op]:
    """Endless op stream of a workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-grid":
        return (_verify_op(24, False, rng.randrange(2**31)) for _ in count())
    if workload == "oracle-search":
        return (_verify_op(10, True, rng.randrange(2**31)) for _ in count())
    if workload == "sweep-figure":
        start = rng.randrange(len(SWEEP_JOBS))
        return (_sweep_op(*SWEEP_JOBS[(start + i) % len(SWEEP_JOBS)])
                for i in count())
    if workload == "query-mix":
        return _query_mix(rng)
    raise ValueError(f"unknown workload {workload!r}")


# --- verify-grid and oracle-search ------------------------------------------

_VERIFY_EXPECT = {
    # max_q: (instances, schemes built and verified)
    24: (15625, 15000),
    10: (1331, 1210),
}
_ORACLE_GAPS_AT_Q10 = 7
_INT_LINE = re.compile(r"^(instances checked|schemes built and verified|oracle searches): (\d+)",
                       re.MULTILINE)
_GAPS = re.compile(r"^finding: (\d+) instances where the exhaustive oracle beats",
                   re.MULTILINE)


def _verify_op(max_q: int, oracle: bool, op_seed: int) -> Op:
    argv = ["verify", "--max-q", str(max_q), "--seed", str(op_seed)]
    if oracle:
        argv.insert(3, "--oracle")
    instances, schemes = _VERIFY_EXPECT[max_q]

    def check(out: str) -> int:
        counts = {name: int(v) for name, v in _INT_LINE.findall(out)}
        # A run that built no scheme has checked nothing, whatever it prints.
        if counts.get("schemes built and verified", 0) == 0:
            raise CheckFailed("verify reported zero schemes checked")
        want = {"instances checked": instances, "schemes built and verified": schemes}
        if oracle:
            want["oracle searches"] = instances
        if counts != want:
            raise CheckFailed(f"verify counts {counts}, expected {want}")
        if oracle:
            gaps = [int(g) for g in _GAPS.findall(out)]
            if gaps != [_ORACLE_GAPS_AT_Q10]:
                raise CheckFailed(f"oracle gap findings {gaps}, expected [{_ORACLE_GAPS_AT_Q10}]")
        if not out.endswith("result: ok\n"):
            raise CheckFailed("verify did not end with 'result: ok'")
        return instances

    return Op(argv, check, "oracle" if oracle else "verify")


# --- sweep-figure -------------------------------------------------------------

def _sweep_op(extra: list[str], digest: str) -> Op:
    def check(out: str) -> int:
        got = hashlib.sha256(out.encode()).hexdigest()
        if got != digest:
            raise CheckFailed(f"sweep {' '.join(extra)} output sha256 {got}, expected {digest}")
        return SWEEP_ROWS

    return Op(SWEEP_BASE + extra, check, "sweep-" + "-".join(a.lstrip("-") for a in extra))


# --- query-mix ----------------------------------------------------------------

def _query_mix(rng: random.Random) -> Iterator[Op]:
    """Cycles of 20 queries in seeded order: 10 rates, 9 gaussian on the beta
    grid, and 1 gaussian with beta1 = 1 - 10^-k, k alternating over 3 and 4."""
    k_phase = rng.randrange(len(NEAR_ONE_K))
    cycle = 0
    while True:
        kinds = ["rates"] * RATES_PER_CYCLE + ["gaussian"] * (CYCLE["query-mix"] - RATES_PER_CYCLE - 1)
        kinds.append("near-one")
        rng.shuffle(kinds)
        k = NEAR_ONE_K[(k_phase + cycle) % len(NEAR_ONE_K)]
        for kind in kinds:
            if kind == "rates":
                gains = [str(rng.randint(0, MAX_GAIN)) for _ in range(3)]
                yield Op(["rates", "--n11", gains[0], "--n21", gains[1], "--n2", gains[2]],
                         _check_rates, kind)
            else:
                if kind == "near-one":
                    beta1 = "0." + "9" * k
                else:
                    beta1 = _grid_beta(rng)
                yield Op(["gaussian", "--log-snr1", str(rng.choice(LOG_SNR1_CHOICES)),
                          "--beta1", beta1, "--beta2", _grid_beta(rng),
                          "--const-c", "0"], _check_gaussian, kind)
        cycle += 1


def _grid_beta(rng: random.Random) -> str:
    i = rng.randint(0, BETA_GRID_TOP)
    return f"{i // BETA_DENOMINATOR}.{i % BETA_DENOMINATOR:03d}"


def _fields(out: str) -> dict[str, Fraction]:
    values = {}
    for line in out.splitlines():
        name, sep, value = line.partition(": ")
        if sep and name in ("r_private", "r_common", "r_ach", "r_gross", "min_ub"):
            values[name] = Fraction(value)
    return values


def _check_rates(out: str) -> int:
    v = _fields(out)
    if not out.startswith("family: deterministic\n") or len(v) != 4:
        raise CheckFailed("rates report is missing fields")
    if v["r_private"] + v["r_common"] != v["r_ach"]:
        raise CheckFailed(f"r_private + r_common != r_ach in {v}")
    if v["r_ach"] > v["min_ub"]:
        raise CheckFailed(f"r_ach exceeds min_ub in {v}")
    return 1


def _check_gaussian(out: str) -> int:
    v = _fields(out)
    if not out.startswith("family: gaussian\n") or len(v) != 5:
        raise CheckFailed("gaussian report is missing fields")
    # Each printed non-integer carries at most PRINT_TOLERANCE rounding error.
    if abs(v["r_private"] + v["r_common"] - v["r_gross"]) > 3 * PRINT_TOLERANCE:
        raise CheckFailed(f"r_private + r_common != r_gross in {v}")
    return 1
