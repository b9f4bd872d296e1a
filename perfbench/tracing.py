"""Span tracing around the calls into each wgqed module.

Run as a script, it executes one `wgqed` CLI invocation in this process
with module attributes wrapped, then writes a JSON report of per-span
counts, total time and self time:

    PYTHONPATH=src python3 perfbench/tracing.py REPORT.json run scenario.cfg --out-dir out

Spans record name, start, end and parent.  The parent comes from a
thread-local stack; a span opened on a thread with an empty stack (the
sweep's worker threads) takes the outermost span of the process as its
parent.  A span's self time is its duration minus the part of its
interval that its children cover, so children running in parallel
threads are not subtracted twice.  An attribute that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


class _ThreadSpans:
    def __init__(self):
        self.stack = []
        self.ids = array("q")
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._root = -1

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def wrap(self, fn, name: str, on_return=None):
        """fn timed as span `name`; on_return(args, kwargs, result, seconds) runs after it."""
        with self._lock:  # sweep threads wrap their propagators concurrently
            if name not in self.names:
                self.names.append(name)
            name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            span_id = next(self._ids)
            if spans.stack:
                parent = spans.stack[-1]
            else:
                parent = self._root
                if parent < 0:
                    self._root = span_id
            spans.stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                spans.stack.pop()
                spans.ids.append(span_id)
                spans.names.append(name_id)
                spans.parents.append(parent)
                spans.starts.append(start)
                spans.ends.append(end)
            if on_return is not None:
                on_return(args, kwargs, result, end - start)
            return result

        return traced

    def arrays(self):
        """(ids, name ids, parents, starts, ends) of every closed span."""
        with self._lock:
            threads = list(self._threads)
        return tuple(
            np.concatenate([np.frombuffer(getattr(t, f), dtype=dt) for t in threads])
            if threads else np.empty(0, dtype=dt)
            for f, dt in (("ids", np.int64), ("names", np.int64), ("parents", np.int64),
                          ("starts", float), ("ends", float))
        )

    def summary(self) -> dict:
        """Per span name: call count, total duration and total self time."""
        ids, names, parents, starts, ends = self.arrays()
        own = self_times(ids, parents, starts, ends)
        dur = ends - starts
        return {
            name: {
                "count": int(np.count_nonzero(names == k)),
                "total_s": float(dur[names == k].sum()),
                "self_s": float(own[names == k].sum()),
            }
            for k, name in enumerate(self.names)
        }


def covered_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of the union of intervals [starts[i], ends[i]]."""
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
    return float(np.sum(np.maximum(0.0, np.maximum(e, reach) - np.maximum(s, reach))))


def self_times(ids, parents, starts, ends) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span's own interval."""
    own = ends - starts
    if len(ids) == 0:
        return own
    where = {int(i): k for k, i in enumerate(ids)}
    for parent in np.unique(parents):
        k = where.get(int(parent))
        if k is None:
            continue
        kids = parents == parent
        lo = np.clip(starts[kids], starts[k], ends[k])
        hi = np.clip(ends[kids], starts[k], ends[k])
        own[k] -= covered_length(lo, hi)
    return own


# (module, attribute, span name), patched in this order
WRAPPED = (
    ("cli", "run", "cli.run"),
    ("cli", "sweep", "cli.sweep"),
    ("cli", "load_scenario", "scenario.load"),
    ("cli", "simulate_scenario", "cli.simulate_scenario"),
    ("cli", "integrate", "integrator.integrate"),
    ("cli", "build_trajectory", "observables.build_trajectory"),
    ("integrator", "HierarchyPropagator", "hierarchy.compile"),
    ("integrator", "amplitude", "pulse.amplitude"),
    ("observables", "wootters_concurrence", "entanglement.concurrence"),
    ("observables", "concurrence_fill", "entanglement.fill"),
)


def install(tracer: Tracer, package: str = "wgqed") -> dict:
    """Wrap every attribute in WRAPPED; returns the report the wrappers fill."""
    report = {"absent": [], "integrations": []}

    def wrap_derivative(args, kwargs, prop, seconds):
        if hasattr(prop, "derivative"):
            prop.derivative = tracer.wrap(prop.derivative, "hierarchy.derivative")
        elif "HierarchyPropagator.derivative" not in report["absent"]:
            report["absent"].append("HierarchyPropagator.derivative")

    def record_integration(args, kwargs, states, seconds):
        icfg = args[3] if len(args) > 3 else kwargs.get("icfg")
        try:
            report["integrations"].append({
                "state_len": int(np.prod(states.blocks.shape[1:])),
                "records": int(len(states.times)),
                "steps": int(round(float(states.times[-1]) / icfg.dt)),
                "seconds": seconds,
            })
        except (AttributeError, TypeError, IndexError):
            if "integrate result layout" not in report["absent"]:
                report["absent"].append("integrate result layout")

    hooks = {"hierarchy.compile": wrap_derivative, "integrator.integrate": record_integration}
    for module_name, attr, span in WRAPPED:
        try:
            module = importlib.import_module(f"{package}.{module_name}")
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            report["absent"].append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, span, hooks.get(span)))
    return report


def main(argv) -> int:
    report_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    report = install(tracer)
    from wgqed.cli import main as cli_main

    code = cli_main(cli_args)
    report["spans"] = tracer.summary()
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
