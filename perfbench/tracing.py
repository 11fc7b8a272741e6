"""Timing wrappers around the package's public functions, for the traced run.

The package binds names with ``from .x import y``, so a function is reachable
from several module namespaces (``verify.build_linear_scheme``,
``cli.run_verification``, ``sweep.gaussian_rate``, the package root, ...).
``install`` replaces the function object at every one of those import sites,
so each call made by the package goes through exactly one wrapper.

Each wrapped call is a span: name, start, end, parent span and op id.  Spans
stay in memory, up to ``span_cap`` of them, and are written out by
``write_spans`` when the run ends.  Per-function call counts and self times
(span time minus the time of child spans) cover every call, kept spans or
not.  ``gaussian.level_rate`` is only counted, because it runs thousands of
times per op and a span around it would dwarf its cost.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from array import array
from time import perf_counter
from types import ModuleType
from typing import Callable

PACKAGE = "wiretap_helper"

# (module, function) pairs timed as spans, keyed as "<module>.<function>".
TIMED = (
    ("cli", "build_parser"),
    ("cli", "main"),
    ("scheme", "r_achievable"),
    ("scheme", "construct_allocation"),
    ("scheme", "build_linear_scheme"),
    ("verify", "leakage"),
    ("verify", "decodable"),
    ("verify", "simulate_roundtrip"),
    ("verify", "run_verification"),
    ("verify", "oracle_best_rate"),
    ("ldm", "ldm_channel"),
    ("bounds", "upper_bounds"),
    ("bounds", "gaussian_upper_bounds"),
    ("gaussian", "gaussian_rate"),
    ("gaussian", "odd_level_sum"),
    ("gaussian", "correspondence"),
    ("sweep", "run_sweep"),
    ("sweep", "write_csv"),
    ("sweep", "write_svg"),
    ("sweep", "format_number"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TIMED)
_INDEX = {name: i for i, name in enumerate(NAMES)}
_RUN_SWEEP = _INDEX["sweep.run_sweep"]
CLI_SPANS = (_INDEX["cli.main"], _INDEX["cli.build_parser"])


def package_modules() -> dict[str, ModuleType]:
    """Loaded modules of the package, keyed by their short name ('' = root)."""
    prefix = PACKAGE + "."
    return {
        ("" if name == PACKAGE else name[len(prefix):]): mod
        for name, mod in list(sys.modules.items())
        if name == PACKAGE or name.startswith(prefix)
    }


def rebind(modules: dict[str, ModuleType], old: object, new: object) -> list[str]:
    """Replace ``old`` by ``new`` wherever a package module binds it."""
    sites = []
    for short, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                sites.append(f"{short or PACKAGE}.{attr}")
    return sites


class Tracer:
    """Span recorder and per-function counters for one traced process."""

    def __init__(self, span_cap: int, clock: Callable[[], float] = perf_counter) -> None:
        self.span_cap = span_cap
        self.clock = clock
        self.op_id = -1
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.level_rate_calls = 0
        self.jam_subsets = 0
        self.sweep_rows = 0
        self.odd_sum_under_sweep = 0
        self.spans_dropped = 0
        self.sites: dict[str, list[str]] = {}
        # Kept spans, one entry per array; span id = index.
        self._name = array("H")
        self._parent = array("l")
        self._op = array("l")
        self._start = array("d")
        self._end = array("d")
        # Open spans: [name index, span id or -1, child time].
        self._stack: list[list] = []
        self._t0 = clock()

    def install(self) -> None:
        modules = package_modules()
        for i, (mod, fn) in enumerate(TIMED):
            original = getattr(modules[mod], fn)
            self.sites[NAMES[i]] = rebind(modules, original, self._timed(i, original))
        level_rate = modules["gaussian"].level_rate
        self.sites["gaussian.level_rate"] = rebind(
            modules, level_rate, self._counted(level_rate))

    def _counted(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.level_rate_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, i: int, fn: Callable) -> Callable:
        stack = self._stack
        clock = self.clock
        is_oracle = NAMES[i] == "verify.oracle_best_rate"
        is_odd_sum = NAMES[i] == "gaussian.odd_level_sum"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if is_oracle:
                p = args[0] if args else kwargs["p"]
                self.jam_subsets += 1 << p.n2
            elif is_odd_sum:
                if any(frame[0] == _RUN_SWEEP for frame in stack):
                    self.odd_sum_under_sweep += 1
            sid = self._open(i)
            frame = [i, sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[i] += 1
                self.self_s[i] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if sid >= 0:
                    self._start[sid] = t0 - self._t0
                    self._end[sid] = t1 - self._t0
            if i == _RUN_SWEEP:
                self.sweep_rows += len(result)
            return result

        return timed

    def _open(self, i: int) -> int:
        if len(self._name) >= self.span_cap:
            self.spans_dropped += 1
            return -1
        sid = len(self._name)
        self._name.append(i)
        self._parent.append(self._stack[-1][1] if self._stack else -1)
        self._op.append(self.op_id)
        self._start.append(0.0)
        self._end.append(0.0)
        return sid

    def cli_self_s(self) -> float:
        return sum(self.self_s[i] for i in CLI_SPANS)

    def counters(self) -> dict[str, float]:
        """Per-layer values, named as in BENCHMARK.json."""
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        odd = self.calls[_INDEX["gaussian.odd_level_sum"]]
        out["gaussian.odd_level_sum.unused_ratio"] = self.odd_sum_under_sweep / odd if odd else 0.0
        out["gaussian.level_rate.calls"] = self.level_rate_calls
        out["verify.oracle_best_rate.jam_subsets"] = self.jam_subsets
        out["sweep.rows"] = self.sweep_rows
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self._name)):
                fh.write(f"{self._op[sid]}\t{sid}\t{self._parent[sid]}\t"
                         f"{NAMES[self._name[sid]]}\t{self._start[sid]:.9f}\t"
                         f"{self._end[sid]:.9f}\n")


def sweep_peak_bytes(run_op: Callable[[], None]) -> int:
    """tracemalloc peak inside ``sweep.run_sweep`` while ``run_op`` runs.

    The probe wrapper is bound at every import site of ``run_sweep`` for the
    duration of the call and removed afterwards.
    """
    modules = package_modules()
    original = modules["sweep"].run_sweep
    peak = 0

    @functools.wraps(original)
    def probed(*args, **kwargs):
        nonlocal peak
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    rebind(modules, original, probed)
    try:
        run_op()
    finally:
        rebind(modules, probed, original)
    return peak
