"""Span tracing of the `concert` package from outside its source.

`install` replaces public functions and methods of the concert modules with
thin wrappers that record one span per call (name, parent, start, end) plus
counter events (draw values, CSV bytes, pair-steps, failures).  Nothing under
`src/concert` changes: module attributes are rebound, so module-global calls
inside the package reach the wrappers too.  Spans stay in memory in flat
arrays and are written out once, when the benchmark ends.

Span indices are assigned in call order by one thread, so the descendants of a
span occupy the index range right after it; per-pass numbers are summaries of
such a range.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import math
import os
import sys
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

# span name -> metrics reported for it ("calls", "s" = time in outermost spans
# of that name, "self_s" = span time not covered by child spans)
SPAN_METRICS = {
    "certify.samples": ("calls", "s"),
    "certify.certify": ("s",),
    "bounds.bound_eval": ("calls", "s"),
    "simulate.derive_stream": ("calls", "s"),
    "simulate.draw": ("calls", "s"),
    "simulate.step_fn": ("calls", "s"),
    "simulate.run_pair_ensemble": ("s", "self_s"),
    "simulate.check_bound_respect": ("s",),
    "simulate.to_csv": ("s",),
    "cpg.run_cpg_experiment": ("s", "self_s"),
    "cpg.ring_drift": ("calls", "s"),
    "cpg.phase_locking_delta": ("calls", "s"),
    "systems.build": ("s",),
    "systems.bound_report": ("s",),
}
COUNTERS = ("simulate.draw.values", "simulate.to_csv.bytes", "simulate.pair_steps",
            "simulate.failures", "cpg.run_steps")
DRAW_BYTES_PER_VALUE = 8  # float64


def member_steps(kind: str, horizon: float, step_size: float | None,
                 tau: float | None) -> int:
    """State updates one trajectory member makes: map applications for a
    discrete system, integrator steps for a flow, and flow steps plus resets
    (including the one at t = 0) for a hybrid system."""
    if kind == "discrete":
        return int(round(horizon))
    steps = int(round(horizon / step_size))
    if kind == "continuous":
        return steps
    return steps + int(round(horizon / tau)) + 1


class Tracer:
    """In-memory spans and counter events of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counter_span = array("i")
        self.counter_name = array("i")
        self.counter_value = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, value: float, span: int | None = None) -> None:
        self.counter_span.append(self._stack[-1] if span is None else span)
        self.counter_name.append(self.name_id(name))
        self.counter_value.append(float(value))

    def wrap(self, name: str, fn, after=None):
        """Traced version of fn; after(span, result, args, kwargs) may record
        counters and returns what the caller receives."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            return result if after is None else after(index, result, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def draw(self, method, args, kwargs):
        index = self.open(self.name_id("simulate.draw"))
        try:
            out = method(*args, **kwargs)
        finally:
            self.close(index)
        self.count("simulate.draw.values", np.size(out), index)
        return out

    # --- exchange with traced child processes --------------------------------

    def dump(self, path) -> None:
        columns = ("name", "parent", "start", "end",
                   "counter_span", "counter_name", "counter_value")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names,
                       **{column: getattr(self, column).tolist() for column in columns}},
                      handle)

    def absorb(self, dump: dict) -> None:
        """Append another process's spans below the currently open span."""
        offset = len(self.name)
        ids = [self.name_id(n) for n in dump["names"]]
        here = self._stack[-1]
        self.name.extend(ids[n] for n in dump["name"])
        self.parent.extend(here if p < 0 else p + offset for p in dump["parent"])
        self.start.extend(dump["start"])
        self.end.extend(dump["end"])
        self.counter_span.extend(here if s < 0 else s + offset for s in dump["counter_span"])
        self.counter_name.extend(ids[n] for n in dump["counter_name"])
        self.counter_value.extend(dump["counter_value"])

    # --- summaries -------------------------------------------------------------

    def summarize(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans with index in [lo, hi)."""
        name = np.array(self.name[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        has_parent = parent >= 0
        covered = np.zeros(name.size)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        # a span nested in a span of the same name adds no time of its own
        nested = np.zeros(name.size, dtype=bool)
        up = parent.copy()
        while (up >= 0).any():
            live = up >= 0
            nested[live] |= name[up[live]] == name[live]
            up[live] = parent[up[live]]
        out: dict[str, float] = {}
        for span_name, kinds in SPAN_METRICS.items():
            sel = name == self._ids.get(span_name, -1)
            values = {"calls": float(sel.sum()), "s": float(dur[sel & ~nested].sum()),
                      "self_s": float(self_time[sel].sum())}
            for kind in kinds:
                out[f"{span_name}.{kind}"] = values[kind]
        cspan = np.array(self.counter_span, dtype=np.int64)
        cname = np.array(self.counter_name, dtype=np.int64)
        cvalue = np.array(self.counter_value)
        inside = (cspan >= lo) & (cspan < hi)
        for counter in COUNTERS:
            out[counter] = float(cvalue[inside & (cname == self._ids.get(counter, -1))].sum())
        out["simulate.draw.bytes"] = DRAW_BYTES_PER_VALUE * out["simulate.draw.values"]
        return out


def maybe_span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


class _TracedGenerator:
    """Generator proxy that times and counts the draws the package makes."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.draw(self._gen.standard_normal, args, kwargs)

    def uniform(self, *args, **kwargs):
        return self._tracer.draw(self._gen.uniform, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def instrument_system(system, tracer: Tracer):
    """Copy of a system whose callables (map, noise gain, drift, diffusion)
    record `simulate.step_fn` spans."""
    from concert.statespace import DiscreteMapSystem, HybridSystem
    if isinstance(system, HybridSystem):
        return dataclasses.replace(system,
                                   continuous=instrument_system(system.continuous, tracer),
                                   reset=instrument_system(system.reset, tracer))
    fields = ("map", "noise_gain") if isinstance(system, DiscreteMapSystem) \
        else ("drift", "diffusion")
    return dataclasses.replace(system, **{
        field: tracer.wrap("simulate.step_fn", getattr(system, field)) for field in fields})


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer: Tracer) -> None:
    """Rebind the public functions of every loaded concert module to traced
    wrappers.  Irreversible for the life of the process."""
    from concert import bounds, certify, cpg, simulate, systems
    from concert.statespace import DiscreteMapSystem, HybridSystem

    modules = [m for n, m in list(sys.modules.items())
               if n == "concert" or n.startswith("concert.")]

    def patch(owner, attr: str, span: str, after=None) -> None:
        original = getattr(owner, attr)
        traced = tracer.wrap(span, original, after)
        setattr(owner, attr, traced)
        if inspect.ismodule(owner):
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def as_proxy(_span, gen, _args, _kwargs):
        return _TracedGenerator(gen, tracer)

    def ensemble_counts(span, stats, args, kwargs):
        call = _bound(simulate.run_pair_ensemble.__wrapped__, args, kwargs)
        system, config = call["system"], call["config"]
        if isinstance(system, DiscreteMapSystem):
            kind, tau = "discrete", None
        elif isinstance(system, HybridSystem):
            kind, tau = "hybrid", system.dwell_time
        else:
            kind, tau = "continuous", None
        steps = member_steps(kind, config.horizon, config.step_size, tau)
        tracer.count("simulate.pair_steps", config.pair_count * steps, span)
        tracer.count("simulate.failures", stats.failures, span)
        return stats

    def experiment_counts(span, result, args, kwargs):
        call = _bound(cpg.run_cpg_experiment.__wrapped__, args, kwargs)
        tau = call["params"].tau
        h = tau / 100.0 if call["step_size"] is None else call["step_size"]
        steps = member_steps("hybrid", call["horizon"], h, tau)
        tracer.count("cpg.run_steps", call["run_count"] * steps, span)
        return result

    def csv_bytes(span, result, args, kwargs):
        path = _bound(simulate.EnsembleStats.to_csv.__wrapped__, args, kwargs)["path"]
        tracer.count("simulate.to_csv.bytes", os.path.getsize(path), span)
        return result

    patch(simulate, "derive_stream", "simulate.derive_stream", as_proxy)
    patch(simulate, "run_pair_ensemble", "simulate.run_pair_ensemble", ensemble_counts)
    patch(simulate, "check_bound_respect", "simulate.check_bound_respect")
    patch(simulate.EnsembleStats, "to_csv", "simulate.to_csv", csv_bytes)
    patch(certify.SamplingRegion, "samples", "certify.samples")
    for name in ("certify_discrete", "certify_continuous",
                 "estimate_discrete_rate", "estimate_continuous_rate"):
        patch(certify, name, "certify.certify")
    patch(bounds.BoundReport, "bound_at_step", "bounds.bound_eval")
    patch(bounds.BoundReport, "bound_at_time", "bounds.bound_eval")
    patch(bounds, "continuous_bound_at", "bounds.bound_eval")
    patch(cpg, "run_cpg_experiment", "cpg.run_cpg_experiment", experiment_counts)
    patch(cpg, "ring_drift", "cpg.ring_drift")
    patch(cpg, "phase_locking_delta", "cpg.phase_locking_delta")
    patch(cpg, "build_cpg_system", "systems.build")
    for name in ("discrete_ms_bound", "hybrid_bound"):
        patch(bounds, name, "systems.bound_report")
    patch(cpg, "theoretical_delta_bound", "systems.bound_report")

    def traced_recipe(recipe):
        def build(params):
            return instrument_system(recipe.build(params), tracer)
        return dataclasses.replace(
            recipe,
            build=tracer.wrap("systems.build", build),
            bound_report=tracer.wrap("systems.bound_report", recipe.bound_report),
            bound_json=tracer.wrap("systems.bound_report", recipe.bound_json))

    for key, recipe in list(systems.BUILTIN_SYSTEMS.items()):
        systems.BUILTIN_SYSTEMS[key] = traced_recipe(recipe)


# --- import timing from `python -X importtime` ---------------------------------

SCIPY_MODULES = ("scipy.special", "scipy.stats")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Total import time (top-level entries) and the scipy.stats + scipy.special
    cumulative time, in seconds, from `-X importtime` output."""
    entries = []  # (depth, module, cumulative microseconds), in print order
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        module = fields[2].rstrip()
        depth = (len(module) - len(module.lstrip()) - 1) // 2
        entries.append((depth, module.strip(), int(fields[1])))
    total = sum(cum for depth, _, cum in entries if depth == 0)
    # children print before their parent; skip a scipy entry that sits inside
    # the subtree of another counted one
    spans = []
    for i, (depth, module, cum) in enumerate(entries):
        if module in SCIPY_MODULES:
            first = i
            while first > 0 and entries[first - 1][0] > depth:
                first -= 1
            spans.append((first, i, cum))
    scipy_us = sum(cum for first, last, cum in spans
                   if not any(f <= first and last < l for f, l, _ in spans))
    return {"import_s": total / 1e6, "scipy_import_s": scipy_us / 1e6}
