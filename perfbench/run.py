"""Benchmark of the ``wth`` command line over four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds T [--trace 1]
    python3 perfbench/run.py --compare DIR_A DIR_B

Run it from the root of a checkout; the package is imported from ``src/``.
Every workload runs in fresh single-threaded processes (``worker.py``), one
after another, with every ``WTH_`` variable removed from their environment
so that all configuration comes from the explicit flags of each op.  An op
is one ``wiretap_helper.cli.main(argv)`` call; one client sends the next op
when the previous one returns.

Workloads (see ``workloads.py``), and why each is here:

* verify-grid: ``verify --max-q 24``.  Scheme compilation, the GF(2) rank
  checks and the ``Fraction`` bounds do the work; no oracle, no Gaussian code.
* oracle-search: ``verify --max-q 10 --oracle``.  The only workload that runs
  the 2^n2 allocation oracle.
* sweep-figure: a 2,451-row beta1 sweep as CSV, SVG and asymptotic CSV.  Bulk
  use of the Gaussian closed form and the sweep writers.
* query-mix: single-instance ``rates`` and ``gaussian`` queries; 1 op in 20 is
  a ``gaussian`` query with beta1 = 1 - 10^-k whose odd-level sum costs
  O(1/(1 - beta1)).  The median op measures the ``cli`` layer, the tail
  measures that sum.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced processes: set-up time (median of several fresh processes), items
per second over the time spent in ops, the median op latency, the latency at
the highest percentile with at least ten ops beyond it, and the workload
process's peak RSS.  Times are normalized to the speed of a reference kernel
timed during the run (see ``worker.py``), because wall time on a shared
machine varies by up to twice from one second to the next; the wall-time
values are printed beside them and saved.  The number of failed ops over
the ops attempted (``failed_ops_ratio``) is printed and saved but is not a
metric of ``BENCHMARK.json``: it is 0 whenever the benchmark is valid, and
the result line carries it as ``failed`` and ``attempted``.  ``--trace 1``
runs the workload untraced for half the time, and then traced for a fixed
number of whole cycles (``workloads.TRACED_OPS``), and reports the per-layer
metrics: calls and self time of each wrapped public function, exact work
counts, the sweep's tracemalloc peak, and the traced-to-untraced throughput
ratio.  As the traced work is fixed, its counts repeat from run to run and a
lower count or self time means less work.  The traced ops must print byte
for byte what the untraced ops print.

The system has no queues and no I/O waits (one thread, stdout captured in
memory), so there are no wait-time metrics.

Each run prints a readable report, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``, and saves the full result, with
run metadata and every sample, under ``perfbench/results/`` (one file per
workload, seed and trace setting; traced runs also write their spans there).
``--compare`` reads two such directories, say the results of two commits
copied aside, and prints per workload and metric both medians and quartiles
and a verdict against the bounds of ``BENCHMARK.json``.

The exit status is 0 when every op succeeded and passed its check, and the
traced output matched the untraced output; otherwise 1, after the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 20
TAIL_BEYOND = 10
# Seconds a worker may run past its measured time: start-up, the op in
# flight and the checks.  The slowest op takes about two seconds of wall time.
WORKER_GRACE_S = 60
NOTE_NO_WAITS = ("no wait-time metrics: each workload is one thread in a closed loop "
                 "with stdout captured in memory, so there are no queues or I/O waits")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(bench, Path(args.compare[0]), Path(args.compare[1]))
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "wiretap_helper" / "cli.py").is_file():
        print(f"run.py: no package to measure at {SRC / 'wiretap_helper'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" and args.trace else (args.trace,)
    results = []
    for name in names:
        for trace in traces:
            result = run_one(bench, name, args.seed, seconds, trace)
            report(result)
            results.append(result)
    if len(results) == 1:
        r = results[0]
        metrics = r["metrics"]
    else:
        r = {"correct": all(x["correct"] for x in results),
             "attempted": sum(x["attempted"] for x in results),
             "failed": sum(x["failed"] for x in results)}
        metrics = {f"{x['workload']}.{k}": v for x in results for k, v in x["metrics"].items()}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0 if r["correct"] else 1


# --- running -------------------------------------------------------------------

def worker_env() -> dict[str, str]:
    """The caller's environment without WTH_ settings or an outside PYTHONPATH."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WTH_") and k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, mode: str, seconds: float | None = None,
               ops: int | None = None, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = (seconds or 0) + WORKER_GRACE_S
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload}/{mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least TAIL_BEYOND ops beyond
    it, and that percentile.  With too few ops, the maximum and 100."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setups: list[dict], plain: dict, normalized: bool = True) -> dict[str, float]:
    """End-to-end metrics from normalized times, or else from wall times."""
    lat = plain["normalized_s" if normalized else "latencies_s"]
    setup_key = "setup_s" if normalized else "setup_wall_s"
    return {
        "setup_s": statistics.median(w[setup_key] for w in setups),
        "items_per_s": plain["items"] / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail(lat)[0],
        "peak_rss_mib": plain["peak_rss_kib"] / 1024,
    }


def items_per_s(worker: dict) -> float:
    return worker["items"] / sum(worker["normalized_s"])


def run_one(bench: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "meta": metadata(), "notes": [NOTE_NO_WAITS]}
    RESULTS.mkdir(exist_ok=True)
    if trace == 0:
        # Half the set-up probes run before the workload and half after, so
        # that their median spans the run's changes in machine load.
        run_worker(workload, seed, "setup")  # writes bytecode caches; not counted
        setups = [run_worker(workload, seed, "setup") for _ in range(SETUP_PROBES // 2)]
        plain = run_worker(workload, seed, "plain", seconds=seconds)
        setups += [run_worker(workload, seed, "setup") for _ in range(SETUP_PROBES // 2)]
        setups.append(plain)
        workers = [plain]
        values = end_to_end(setups, plain)
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        result["wall"] = end_to_end(setups, plain, normalized=False)
        result["setup_samples_s"] = [w["setup_s"] for w in setups]
        result["setup_wall_samples_s"] = [w["setup_wall_s"] for w in setups]
        result["ranking"] = []
    else:
        plain = run_worker(workload, seed, "plain", seconds=seconds / 2)
        traced = run_worker(workload, seed, "traced", ops=workloads.TRACED_OPS[workload],
                            spans=RESULTS / f"spans-{workload}-seed{seed}.tsv")
        workers = [plain, traced]
        values = dict(traced["counters"])
        values["trace.overhead_ratio"] = items_per_s(traced) / items_per_s(plain)
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        common = min(len(plain["digests"]), len(traced["digests"]))
        result["identical_outputs"] = plain["digests"][:common] == traced["digests"][:common]
        result["compared_ops"] = common
        result["ranking"] = ranking_checks(workload, traced)
        result["import_sites"] = traced["sites"]
        result["spans_kept"] = traced["spans_kept"]
        result["spans_dropped"] = traced["spans_dropped"]
        result["traced_latencies_s"] = traced["latencies_s"]
        result["meta"]["traced_ops"] = traced["ops"]
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result["metrics"] = {n: {"value": values[n], "unit": units[n]} for n in names}

    attempted = sum(w["ops"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    pct = tail(plain["latencies_s"])[1]
    result["meta"].update(ops=plain["ops"], latency_tail_percentile=pct,
                          op_kinds=dict(sorted(Counter(plain["kinds"]).items())))
    result.update(
        attempted=attempted, failed=failed, failed_ops_ratio=failed / attempted,
        correct=failed == 0 and result.get("identical_outputs", True),
        failures=[f for w in workers for f in w["failures"]],
        latencies_s=plain["latencies_s"], normalized_s=plain["normalized_s"],
        kernel_samples_s=plain["kernel_samples_s"],
    )
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["path"] = str(path.relative_to(ROOT))
    return result


def ranking_checks(workload: str, traced: dict) -> list[dict]:
    """The profile each workload is expected to show, checked on the traced run."""
    c = traced["counters"]
    self_s = {k[:-len(".self_s")]: v for k, v in c.items() if k.endswith(".self_s")}
    by_self = sorted(self_s, key=self_s.get, reverse=True)
    checks = []

    def check(what: str, ok: bool, detail: str) -> None:
        checks.append({"check": what, "ok": bool(ok), "detail": detail})

    top = ", ".join(f"{n} {self_s[n]:.3f}s" for n in by_self[:5])
    if workload == "verify-grid":
        # leakage and decodable are one layer here: the GF(2) rank kernel.
        layers = dict(self_s)
        layers["verify.leakage+decodable"] = layers.pop("verify.leakage") + layers.pop(
            "verify.decodable")
        by_layer = sorted(layers, key=layers.get, reverse=True)
        check("largest three self times are build_linear_scheme, leakage+decodable and "
              "upper_bounds",
              set(by_layer[:3]) == {"scheme.build_linear_scheme", "verify.leakage+decodable",
                                    "bounds.upper_bounds"},
              ", ".join(f"{n} {layers[n]:.3f}s" for n in by_layer[:5]))
    elif workload == "oracle-search":
        check("verify.oracle_best_rate has the largest self time",
              by_self[0] == "verify.oracle_best_rate", top)
    elif workload == "sweep-figure":
        check("gaussian.odd_level_sum has the largest self time",
              by_self[0] == "gaussian.odd_level_sum", top)
        ratio = c["gaussian.odd_level_sum.unused_ratio"]
        check("every odd_level_sum result is discarded by run_sweep", ratio == 1,
              f"unused_ratio {ratio}")
    elif workload == "query-mix":
        total = sum(traced["latencies_s"])
        share = self_s["gaussian.odd_level_sum"] / total
        check("gaussian.odd_level_sum covers most of the op time", share > 0.5,
              f"{share:.1%} of {total:.2f}s")
        lat = traced["latencies_s"]
        p50 = statistics.median(lat)
        shares = [cs / t for cs, t in zip(traced["cli_self_s"], lat) if t <= p50]
        cli_share = statistics.median(shares)
        check("cli self time is most of an op at or below the median latency",
              cli_share > 0.5, f"median cli share {cli_share:.1%} of ops <= p50")
    return checks


def metadata() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _tree_digest(SRC),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report(r: dict) -> None:
    m = r["meta"]
    print(f"== {r['workload']} seed {r['seed']} trace {r['trace']}: "
          f"{r['attempted']} ops attempted, {r['failed']} failed")
    print(f"   commit {m['commit']}  src {m['src_sha256'][:12]}  python {m['python']}  "
          f"nproc {m['nproc']}  cpu {m['cpu_model']}")
    for name, v in r["metrics"].items():
        wall = r.get("wall", {}).get(name)
        print(f"   {name:<44} {v['value']:>16.6g} {v['unit']:<6}"
              + (f" (wall {wall:.6g})" if wall is not None else ""))
    print(f"   {'failed_ops_ratio':<44} {r['failed_ops_ratio']:>16.6g} ratio")
    if r["trace"] == 0:
        print(f"   latency_tail_ms is p{m['latency_tail_percentile']:.2f} of {m['ops']} ops")
    if "identical_outputs" in r:
        print(f"   traced output identical to untraced over {r['compared_ops']} ops: "
              f"{'yes' if r['identical_outputs'] else 'NO'}")
    for c in r["ranking"]:
        print(f"   profile {'ok' if c['ok'] else 'MISMATCH'}: {c['check']} ({c['detail']})")
    for f in r["failures"]:
        print(f"   failed op: {f}")
    for note in r["notes"]:
        print(f"   note: {note}")
    print(f"   saved {r['path']}")


# --- comparing -------------------------------------------------------------------

def _load(directory: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over the result files in a directory."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        r = json.loads(path.read_text())
        for name, v in r["metrics"].items():
            values.setdefault((r["workload"], name), {})[r["seed"]] = v["value"]
    return values


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a: dict[int, float], b: dict[int, float], better: str, bound: float) -> str:
    """Regression and gain rules of the benchmark, from the sides' medians,
    quartiles and seed-matched pairs."""
    sign = 1 if better == "higher" else -1
    (a1, am, a3), (b1, bm, b3) = _quartiles(list(a.values())), _quartiles(list(b.values()))
    if am == 0:
        return "no base"
    worse = sign * (am - bm) / abs(am)
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm) if bm else 0.0)
    if spread > bound:
        all_better = min(sign * x for x in b.values()) > max(sign * x for x in a.values())
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regressed"
    pairs = [s for s in a if s in b and a[s] != b[s]]
    wins = sum(1 for s in pairs if sign * (b[s] - a[s]) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (bm - am) > a3 - a1:
        return "improved"
    return "within bound"


def compare(bench: dict, dir_a: Path, dir_b: Path) -> int:
    a, b = _load(dir_a), _load(dir_b)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'workload':<14} {'metric':<44} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'B/A':>7}  verdict")
    regressed = False
    for key in sorted(set(a) & set(b)):
        workload, name = key
        m = spec.get(name, {})
        if "bound" in m:
            v = verdict(a[key], b[key], m["better"], m["bound"])
            regressed |= v == "regressed"
        else:
            v = "-"
        qa, qb = _quartiles(list(a[key].values())), _quartiles(list(b[key].values()))
        ratio = f"{qb[1] / qa[1]:.3f}" if qa[1] else "-"
        cols = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (qa, qb)]
        print(f"{workload:<14} {name:<44} {cols[0]:<36} {cols[1]:<36} {ratio:>7}  {v}")
    only = sorted(set(a) ^ set(b))
    if only:
        print(f"{len(only)} workload/metric pairs appear on one side only")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
