"""One workload process: import and set up ``wth``, then a closed loop of ops.

    python3 perfbench/worker.py --workload W --seed N --mode MODE
                                [--seconds T] [--ops N] [--spans PATH]

MODE is ``setup`` (measure set-up and exit), ``plain`` (untraced ops) or
``traced`` (ops through the timing wrappers of ``tracing.py``).  One client
runs the ops one after another: the next op starts when the previous one
returns.  Each op is one ``wiretap_helper.cli.main(argv)`` call with stdout
and stderr captured in memory.  The loop stops at the first cycle boundary
after T seconds, or after N ops.  The process prints one JSON object, with
the sha256 of every op's stdout.  The package is imported from the ``src/``
directory beside this script's directory.

Set-up is timed before anything else is imported, so that the modules the
package shares with this script are paid for by the package, as they are
by every ``wth`` invocation.

Times are reported twice: as wall time, and normalized to the speed of a
fixed pure-Python reference kernel.  On a machine shared with other tenants
the same op can take twice as long from one second to the next, and the
kernel slows down with it.  A SIGALRM handler runs the kernel every
REF_INTERVAL_S; the time spent in the handler is taken out of every op
and span, and an op time multiplied by ``REF_NOMINAL_S / kernel time during
the op`` reads what the op would take on an uncontended core.  It varies far
less from run to run than wall time does.  The kernel runs with the garbage
collector paused, so that a collection the program's own allocations have
made due runs, and is timed, inside the op rather than inside the kernel.
"""

import gc
import os
import signal
import sys
import time
from bisect import bisect_left, bisect_right

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SPAN_CAP = 100_000
# Time of one reference_kernel() on an uncontended core of the machine this
# benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11).
REF_NOMINAL_S = 0.96e-3
REF_INTERVAL_S = 0.025


def reference_kernel() -> int:
    """About 1 ms of the kind of work the package does: small Fraction
    arithmetic, int bit operations, dict updates and string formatting."""
    from fractions import Fraction

    acc = 0
    seen: dict[int, int] = {}
    for i in range(1, 121):
        x = Fraction(i, 7) + Fraction(3, i)
        y = (x * x - x) / (x + 1)
        acc ^= (y.numerator * 2654435761) & 0xFFFFFFFF
        seen[i % 17] = max(seen.get(i % 17, 0), y.denominator.bit_count())
        acc += len(f"{i}:{y.numerator % 1000}")
    return acc + sum(seen.values())


def kernel_s() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the reference kernel every REF_INTERVAL_S from a SIGALRM handler.

    ``clock()`` is ``perf_counter`` minus the time spent in the handler, so
    intervals measured on it exclude the sampling.
    """

    def __init__(self) -> None:
        self.times: list[float] = []  # clock() at each sample
        self.kernel_s: list[float] = []
        self.paused_s = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused_s

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.kernel_s.append(kernel_s())
        self.times.append(t0 - self.paused_s)
        self.paused_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def normalize(self, start: float, dt: float) -> float:
        """``dt`` at nominal speed, from the samples taken during the op or,
        for an op shorter than the interval, the ones on either side."""
        lo = bisect_left(self.times, start - REF_INTERVAL_S)
        hi = bisect_right(self.times, start + dt + REF_INTERVAL_S)
        near = self.kernel_s[lo:hi] or self.kernel_s
        return dt * REF_NOMINAL_S * len(near) / sum(near)


def _args(argv: list[str]) -> dict[str, str]:
    # argparse is not imported here: the package under test imports it, and
    # its import cost belongs to the measured set-up.
    if len(argv) % 2:
        raise SystemExit("worker: expected --name value pairs")
    return {argv[i].lstrip("-"): argv[i + 1] for i in range(0, len(argv), 2)}


def main() -> int:
    args = _args(sys.argv[1:])
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    from wiretap_helper import cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import json
    import statistics

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"worker: imported {cli.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    stray = sorted(k for k in os.environ if k.startswith("WTH_"))
    if stray:
        print(f"worker: environment still sets {stray}", file=sys.stderr)
        return 2
    speed = REF_NOMINAL_S / statistics.mean(kernel_s() for _ in range(3))
    result = {"setup_wall_s": setup_s, "setup_s": setup_s * speed}
    if args["mode"] != "setup":
        result.update(_loop(cli, args))
    print(json.dumps(result))
    return 0


def _loop(cli, args: dict[str, str]) -> dict:
    import contextlib
    import hashlib
    import io
    import resource

    import tracing
    import workloads

    workload, seed, mode = args["workload"], int(args["seed"]), args["mode"]
    seconds = float(args.get("seconds", "inf"))
    max_ops = int(args.get("ops", "0")) or None
    cycle = workloads.CYCLE[workload]
    sampler = Sampler()
    tracer = None
    extra = {}
    if mode == "traced":
        extra["sweep.run_sweep.peak_bytes"] = _sweep_peak_bytes(cli, workload, seed)
        tracer = tracing.Tracer(SPAN_CAP, sampler.clock)
        tracer.install()

    starts, latencies, kinds, digests, failures, cli_self = [], [], [], [], [], []
    items = failed = 0
    stream = workloads.ops(workload, seed)
    with sampler:
        started = sampler.clock()
        while True:
            op = next(stream)
            out, err = io.StringIO(), io.StringIO()
            error = None
            if tracer:
                tracer.op_id = len(latencies)
                cli_before = tracer.cli_self_s()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t = sampler.clock()
                try:
                    rc = cli.main(op.argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    rc, error = None, repr(exc)
                dt = sampler.clock() - t
            starts.append(t)
            latencies.append(dt)
            kinds.append(op.kind)
            if tracer:
                cli_self.append(tracer.cli_self_s() - cli_before)
            text = out.getvalue()
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            if error is None and rc != 0:
                error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
            if error is None:
                try:
                    items += op.check(text)
                except workloads.CheckFailed as exc:
                    error = str(exc)
            if error is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{' '.join(op.argv)}: {error}")
            n = len(latencies)
            if n % cycle == 0 and (n == max_ops if max_ops
                                   else sampler.clock() - started >= seconds):
                break

    result = {
        "ops": len(latencies), "items": items, "failed": failed, "failures": failures,
        "latencies_s": latencies,
        "normalized_s": [sampler.normalize(t, dt) for t, dt in zip(starts, latencies)],
        "kinds": kinds, "digests": digests, "kernel_samples_s": sampler.kernel_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        extra.update(tracer.counters())
        result["counters"] = extra
        result["cli_self_s"] = cli_self
        result["sites"] = tracer.sites
        result["spans_kept"] = min(tracer.span_cap, sum(tracer.calls))
        result["spans_dropped"] = tracer.spans_dropped
        if "spans" in args:
            tracer.write_spans(args["spans"])
    return result


def _sweep_peak_bytes(cli, workload: str, seed: int) -> int:
    """tracemalloc peak of ``run_sweep`` over one cycle of the workload's ops.

    Runs before the timing wrappers are installed, so that neither the
    counters nor the timed ops see it; 0 for workloads that never sweep.
    """
    import contextlib
    import io

    import tracing
    import workloads

    stream = workloads.ops(workload, seed)
    peak = 0
    for _ in range(workloads.CYCLE[workload]):
        op = next(stream)
        if op.argv[0] != "sweep":
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            peak = max(peak, tracing.sweep_peak_bytes(lambda: cli.main(op.argv)))
    return peak


if __name__ == "__main__":
    sys.exit(main())
