"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Ops per workload in the traced-versus-untraced runs: one cycle, or two
# cheap verify ops.
OPS = {"verify-grid": 1, "oracle-search": 2, "sweep-figure": 3, "query-mix": 40}
EXACT_COUNTS = ("scheme.build_linear_scheme.calls", "verify.oracle_best_rate.jam_subsets",
                "gaussian.level_rate.calls", "sweep.rows")


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced and two traced workers on seed 7."""
    out = {}
    for w, n in OPS.items():
        out[w] = [run.run_worker(w, 7, mode, ops=n)
                  for mode in ("plain", "traced", "traced")]
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_stdout_is_byte_identical(runs, workload):
    plain, traced, _ = runs[workload]
    assert plain["failed"] == traced["failed"] == 0
    assert len(plain["digests"]) == OPS[workload]
    assert traced["digests"] == plain["digests"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat(runs, workload):
    _, first, second = runs[workload]
    for name in EXACT_COUNTS:
        assert first["counters"][name] == second["counters"][name], name


def test_exact_counts_match_the_work(runs):
    verify = runs["verify-grid"][1]["counters"]
    assert verify["scheme.build_linear_scheme.calls"] == 15000
    assert verify["verify.oracle_best_rate.calls"] == 0
    oracle = runs["oracle-search"][1]["counters"]
    # 121 (n11, n21) pairs times 2^0 + ... + 2^10 jam subsets, per op.
    assert oracle["verify.oracle_best_rate.jam_subsets"] == 2 * 121 * 2047
    sweep = runs["sweep-figure"][1]["counters"]
    assert sweep["sweep.rows"] == 3 * workloads.SWEEP_ROWS
    assert sweep["gaussian.odd_level_sum.unused_ratio"] == 1
    assert sweep["sweep.run_sweep.peak_bytes"] > 0
    assert sweep["scheme.build_linear_scheme.calls"] == 0
    assert runs["query-mix"][1]["counters"]["gaussian.level_rate.calls"] > 0


def test_wrappers_sit_at_every_import_site(runs):
    sites = runs["verify-grid"][1]["sites"]
    assert "verify.build_linear_scheme" in sites["scheme.build_linear_scheme"]
    assert "cli.run_verification" in sites["verify.run_verification"]
    assert "sweep.gaussian_rate" in sites["gaussian.gaussian_rate"]
    assert "gaussian.odd_level_sum" in sites["gaussian.odd_level_sum"]
    assert "cli.format_number" in sites["sweep.format_number"]
    assert set(sites) == set(tracing.NAMES) | {"gaussian.level_rate"}


def test_worker_environment_drops_wth_settings(monkeypatch):
    monkeypatch.setenv("WTH_MAX_Q", "3")
    monkeypatch.setenv("WTH_DEFAULT_LOG_SNR1", "not-a-number")
    env = run.worker_env()
    assert not any(k.startswith("WTH_") for k in env)


def test_ops_follow_the_seed():
    def argvs(w, seed, n=60):
        stream = workloads.ops(w, seed)
        return [next(stream).argv for _ in range(n)]

    for w in workloads.WORKLOADS:
        assert argvs(w, 3) == argvs(w, 3)
    assert argvs("query-mix", 3) != argvs("query-mix", 4)


def test_traced_runs_are_whole_cycles():
    for w in workloads.WORKLOADS:
        assert workloads.TRACED_OPS[w] % workloads.CYCLE[w] == 0, w


def test_query_mix_cycle_composition():
    stream = workloads.ops("query-mix", 5)
    kinds = [next(stream).kind for _ in range(2 * workloads.CYCLE["query-mix"])]
    for cycle in (kinds[:20], kinds[20:]):
        assert cycle.count("rates") == 10
        assert cycle.count("near-one") == 1


def test_verify_check_rejects_zero_schemes():
    op = workloads._verify_op(24, False, 1)
    with pytest.raises(workloads.CheckFailed):
        op.check("instances checked: 0 (q <= 24)\nschemes built and verified: 0\nresult: ok\n")
    with pytest.raises(workloads.CheckFailed):
        op.check("instances checked: 15625 (q <= 24)\nschemes built and verified: 15000\n"
                 "result: FAILED\n")


def test_sweep_check_rejects_other_bytes():
    op = workloads._sweep_op(*workloads.SWEEP_JOBS[0])
    with pytest.raises(workloads.CheckFailed):
        op.check("axis_value\n")


def test_query_checks_apply_the_invariants():
    good = ("family: deterministic\nr_private: 5\nr_common: 2\nr_ach: 7\n"
            "ub1: 7.500000\nmin_ub: 7\n")
    assert workloads._check_rates(good) == 1
    with pytest.raises(workloads.CheckFailed):
        workloads._check_rates(good.replace("r_ach: 7", "r_ach: 8"))
    with pytest.raises(workloads.CheckFailed):
        workloads._check_rates(good.replace("min_ub: 7", "min_ub: 6"))
    gauss = ("family: gaussian\nr_private: 0.333333\nr_common: 0.333333\n"
             "r_gross: 0.666667\nr_ach: 0\nmin_ub: 1\n")
    assert workloads._check_gaussian(gauss) == 1
    with pytest.raises(workloads.CheckFailed):
        workloads._check_gaussian(gauss.replace("r_gross: 0.666667", "r_gross: 0.6667"))


def test_tail_keeps_ten_beyond():
    lat = [float(i) for i in range(100)]
    value, pct = run.tail(lat)
    assert value == 89.0 and sum(x > value for x in lat) == 10
    assert pct == 90.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_names_what_the_runner_reports():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    e2e = run.end_to_end([{"setup_s": 1.0, "setup_wall_s": 1.0}],
                         {"items": 1, "latencies_s": [1.0], "normalized_s": [1.0],
                          "peak_rss_kib": 1024})
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    per_layer = set(tracing.Tracer(1).counters())
    per_layer |= {"sweep.run_sweep.peak_bytes", "trace.overhead_ratio"}
    assert {m["name"] for m in bench["per_layer"]} == per_layer


def test_verdicts():
    a = {s: 100.0 + s % 3 for s in range(10)}
    assert run.verdict(a, a, "higher", 0.1) == "within bound"
    assert run.verdict(a, {s: v * 0.8 for s, v in a.items()}, "higher", 0.1) == "regressed"
    assert run.verdict(a, {s: v * 1.2 for s, v in a.items()}, "higher", 0.1) == "improved"
    assert run.verdict(a, {s: v * 0.8 for s, v in a.items()}, "lower", 0.1) == "improved"
    wide = {s: 100.0 * (1 + s) for s in range(10)}
    assert run.verdict(a, wide, "higher", 0.1) == "unresolved"


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
