"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps caflow's public functions at the module attributes their
callers look up, so nothing under ``src/`` changes. Each call becomes one
span (name, start, end, parent, counters) kept in memory; ``spans()`` hands
them out for writing when the run ends. Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time

import caflow.capacity
import caflow.cli
import caflow.ctmc


# (module, attribute, span name, counters taken from the return value);
# "ctmc.solve_model" is reached through three bindings, told apart by the
# "via" counter, so capacity's evaluator calls and the CLI's rows are counted
_TARGETS = (
    (caflow.cli, "run_sweep", "cli.run_sweep", None),
    (caflow.cli, "solve_model", "ctmc.solve_model",
     lambda res: {"via": "cli", "grew": res[0].diagnostics.grew}),
    (caflow.capacity, "solve_preset", "capacity.query",
     lambda res: {"probes": len(res.probes)}),
    (caflow.capacity, "solve_model", "ctmc.solve_model",
     lambda res: {"via": "capacity", "grew": res[0].diagnostics.grew}),
    (caflow.capacity, "simulate", "sim.simulate",
     lambda rep: {"via": "capacity", "events": rep.events,
                  "completions": rep.total_completions}),
    (caflow.ctmc, "solve_model", "ctmc.solve_model",
     lambda res: {"via": "ctmc", "grew": res[0].diagnostics.grew}),
    (caflow.ctmc, "enumerate_states", "ctmc.enumerate_states",
     lambda space: {"states": len(space)}),
    (caflow.ctmc, "build_generator", "ctmc.build_generator",
     lambda gen: {"nnz": int(gen.Q.nnz)}),
    (caflow.ctmc, "solve_stationary", "ctmc.solve_stationary",
     lambda dist: {"method": dist.method, "iterations": int(dist.iterations)}),
    (caflow.ctmc, "blocking_mass", "ctmc.blocking_mass", None),
    (caflow.ctmc, "throughputs_from_distribution", "ctmc.throughputs", None),
)


class Tracer:
    """Records nested spans while installed; restores the originals on exit."""

    def __init__(self):
        self._spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        #: seconds spent in the recorder itself, outside the wrapped calls
        self.overhead_s = 0.0

    def __enter__(self):
        for module, attr, name, counters in _TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counters))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, original, name, counters):
        spans, stack = self._spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = {"name": name, "start": None, "end": None,
                    "parent": stack[-1] if stack else None, "counters": {}}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span["counters"]["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.overhead_s += span["start"] - entered
            if counters is not None:
                span["counters"].update(counters(result))
            self.overhead_s += time.perf_counter() - span["end"]
            return result

        return traced

    def spans(self) -> list[dict]:
        return self._spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "ctmc.solve.direct.s": ("s", "lower"),
    "ctmc.solve.direct.calls": ("count", "lower"),
    "ctmc.solve.arpack.s": ("s", "lower"),
    "ctmc.solve.arpack.calls": ("count", "lower"),
    "ctmc.solve.power.calls": ("count", "lower"),
    "ctmc.solve_stationary.s": ("s", "lower"),
    "ctmc.solve_stationary.calls": ("count", "lower"),
    "ctmc.solve_stationary.max_s": ("s", "lower"),
    "ctmc.polish_iterations": ("count", "lower"),
    "ctmc.enumerate_states.s": ("s", "lower"),
    "ctmc.build_generator.s": ("s", "lower"),
    "ctmc.states": ("count", "lower"),
    "ctmc.nnz": ("count", "lower"),
    "ctmc.blocking_mass.s": ("s", "lower"),
    "ctmc.throughputs.s": ("s", "lower"),
    "ctmc.solve_model.self_s": ("s", "lower"),
    "ctmc.doublings": ("count", "lower"),
    "ctmc.useful_solve_ratio": ("ratio", "higher"),
    "sim.simulate.s": ("s", "lower"),
    "sim.simulate.calls": ("count", "lower"),
    "sim.events": ("count", "lower"),
    "sim.completions": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "capacity.queries": ("count", "higher"),
    "capacity.probes": ("count", "lower"),
    "capacity.evaluator_calls": ("count", "lower"),
    "capacity.probe_yield": ("ratio", "higher"),
    "capacity.probe_s": ("s", "lower"),
    "capacity.self_s": ("s", "lower"),
    "cli.run_sweep.self_s": ("s", "lower"),
    "cli.rows": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: span counters summed into per-layer metrics
_COUNTERS = {"states": "ctmc.states", "nnz": "ctmc.nnz", "grew": "ctmc.doublings",
             "events": "sim.events", "completions": "sim.completions",
             "probes": "capacity.probes"}


def per_layer_metrics(spans: list[dict], rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one round: sums over ``rounds`` rounds divided by it.

    ``ctmc.solve_stationary.max_s`` is the slowest single solve instead, and
    the ratios are taken over all rounds. Solve times are self times, so a
    solve's blocking-mass pass is not in them.
    """
    sums: dict[str, float] = {}

    def add(key, value=1):
        sums[key] = sums.get(key, 0.0) + value

    max_solve = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        name, c = span["name"], span["counters"]
        dur = span["end"] - span["start"]
        add(name + ".calls")
        add(name + ".s", dur)
        add(name + ".self_s", self_s)
        for counter, metric in _COUNTERS.items():
            if counter in c:
                add(metric, c[counter])
        if "method" in c:
            add(f"ctmc.solve.{c['method']}.s", self_s)
            add(f"ctmc.solve.{c['method']}.calls")
            add("ctmc.polish_iterations", c["iterations"])
            max_solve = max(max_solve, self_s)
        if c.get("via") == "capacity":
            add("capacity.evaluator_calls")
            add("capacity.probe_s", dur)
        if c.get("via") == "cli" and "error" not in c:
            add("cli.rows")
    sums["ctmc.solve_stationary.s"] = sums.get("ctmc.solve_stationary.self_s", 0.0)
    sums["capacity.queries"] = sums.get("capacity.query.calls", 0.0)
    sums["capacity.self_s"] = sums.get("capacity.query.self_s", 0.0)

    def get(key):
        return sums.get(key, 0.0)

    out = {key: get(key) / rounds for key in PER_LAYER}
    out["ctmc.solve_stationary.max_s"] = max_solve
    out["ctmc.useful_solve_ratio"] = _ratio(get("ctmc.solve_model.calls"),
                                            get("ctmc.solve_stationary.calls"))
    out["sim.events_per_s"] = _ratio(get("sim.events"), get("sim.simulate.s"))
    out["capacity.probe_yield"] = _ratio(get("capacity.probes"),
                                         get("capacity.evaluator_calls"))
    out["trace.overhead_s"] = overhead_s
    return out
