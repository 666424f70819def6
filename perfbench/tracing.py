"""Spans recorded from outside rlnoc, around calls into its public functions.

`Tracer.install` swaps each instrumented function, wherever an rlnoc module
holds a reference to it, for a wrapper that records a span and a few counts
read from the call's arguments and result. `Tracer.uninstall` puts the
originals back. Nothing inside rlnoc changes; spans inside the engine belong
to the program itself.

Timed spans call every function exactly as the workload does. The
fixed-point counts need an `AnalysisRecord` in every `analyze` call, which
makes analysis slower, so `FixedPointCounter` takes them in a separate,
untimed pass.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute). The span name's prefix is the layer.
INSTRUMENTED = (
    ("topology.generate", "rlnoc.topology", "generate_multi_ring"),
    ("traffic.generate_flowset", "rlnoc.traffic", "generate_flowset"),
    ("traffic.interference_table", "rlnoc.traffic", "interference_table"),
    ("analysis.analyze", "rlnoc.analysis", "analyze"),
    ("harness.sweep", "rlnoc.harness", "sweep_schedulability"),
    ("harness.find_schedulable", "rlnoc.harness", "find_schedulable_flowset"),
    ("simulator.simulate", "rlnoc.simulator", "simulate"),
    ("simulator.oracle_check", "rlnoc.simulator", "oracle_check"),
    ("plotting.render", "rlnoc.plotting", "render_plot"),
    ("cli.verify", "rlnoc.cli", "run"),
)

LAYERS = ("topology", "traffic", "analysis", "harness", "simulator", "plotting", "cli")


class Tracer:
    """In-memory span log: (id, name, start, end, parent id, op id) tuples,
    plus per-span counts keyed by span id."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, module, attr in INSTRUMENTED:
            original = getattr(importlib.import_module(module), attr)
            _replace(original, self._wrap(name, original), self._saved)

    def uninstall(self) -> None:
        _restore(self._saved)

    def _wrap(self, name, original):
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            op = self.op
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, op)
            if counter is not None:
                self.counts[span_id] = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                span_id, name, start, end, parent, op = span
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "counts": self.counts.get(span_id, {}),
                }) + "\n")


class FixedPointCounter:
    """While installed, passes an `AnalysisRecord` to every `analyze` call
    that has none and sums its busy-period fixed points and their iterates.
    It records no spans; its pass is not timed."""

    def __init__(self):
        self.fixed_points = 0
        self.iterates = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        from rlnoc import analysis

        original = analysis.analyze

        def wrapper(flowset, config, record=None):
            if record is None:
                record = analysis.AnalysisRecord()
            result = original(flowset, config, record)
            self.fixed_points += len(record.busy_traces)
            self.iterates += sum(len(trace) for trace in record.busy_traces)
            return result

        wrapper.__wrapped__ = original
        _replace(original, wrapper, self._saved)

    def uninstall(self) -> None:
        _restore(self._saved)


def _replace(original, wrapper, saved: list) -> None:
    """Point every rlnoc module attribute that holds `original` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "rlnoc" or mod_name.startswith("rlnoc."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, key, original))
                    setattr(mod, key, wrapper)


def _restore(saved: list) -> None:
    for mod, key, original in reversed(saved):
        setattr(mod, key, original)
    saved.clear()


def _analyze_counts(args, kwargs, result):
    return {
        "unschedulable": int(not result.schedulable),
        "outer_iterations": result.iterations,
    }


def _sweep_counts(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {"verdicts": len(result) * spec.flowsets_per_point}


def _simulate_counts(args, kwargs, result):
    return {"packets": result.released, "flits": result.flits_ejected,
            "deflections": result.deflections}


_COUNTERS = {
    "analysis.analyze": _analyze_counts,
    "harness.sweep": _sweep_counts,
    "harness.find_schedulable": lambda args, kwargs, result: {"attempts": result[2]},
    "simulator.simulate": _simulate_counts,
}


def summarize(spans, counts) -> dict:
    """Per-layer figures for one slice of the span log: total time and calls
    per span name, summed counts, per-call durations, and each layer's self
    time (its spans' durations minus the time their child spans cover)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    summed = defaultdict(int)
    child_time = defaultdict(float)
    for span_id, name, start, end, parent, _ in spans:
        duration = end - start
        total[name] += duration
        calls[name] += 1
        durations[name].append(duration)
        if parent is not None:
            child_time[parent] += duration
        for key, value in counts.get(span_id, {}).items():
            summed[f"{name}.{key}"] += value
    self_time = {layer: 0.0 for layer in LAYERS}
    for span_id, name, start, end, _, _ in spans:
        self_time[name.split(".")[0]] += (end - start) - child_time[span_id]
    return {"total": total, "calls": calls, "durations": durations,
            "counts": summed, "self": self_time}
