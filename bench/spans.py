"""In-memory span tracer that instruments gridarx from outside the package.

Each traced call is a span: name, start, end, parent span and run id. The
tracer replaces the module attribute a caller looks up (for example
`gridarx.pipeline.rls_update`, which `identify` reads from its own module
globals) with a timing wrapper, and puts the original back on exit. Nothing
inside `src/` changes.

Spans live in flat typed arrays rather than objects: a suite run records
about a million `rls_update` spans, and this keeps that at ~30 bytes each.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

SETUP_RUN = 0  # run id of spans recorded before the measured phase
CHECK_RUN = -1  # run id of spans recorded while checking outputs
# Measured operations have run ids 1, 2, ...


def _ident_observe(tracer, args, kwargs, run):
    tracer.count("pipeline.identify.updates", run.t.size)
    tracer.count("pipeline.identify.bytes_out", sum(
        a.nbytes for a in (run.t, run.index, run.theta, run.y, run.phi,
                           run.innovation, run.calibrated)))


def _simulate_observe(tracer, args, kwargs, sim):
    tracer.count("simulate.simulate.samples", sim.t.size)


def _classify_observe(tracer, args, kwargs, result):
    d = result[0]
    thr = args[2] if len(args) > 2 else kwargs["thresholds"]
    tracer.count("detector.snapshots", d.size)
    tracer.count("detector.band",
                 int(np.count_nonzero((d > thr.d_low) & (d <= thr.d_high))))


def _write_observe(tracer, args, kwargs, result):
    tracer.count("scenario.write.bytes", os.path.getsize(args[0]))


# (module, attribute, span name, observer). A function that callers reach
# through more than one module appears once per module it is looked up in.
TARGETS = [
    ("gridarx.pipeline", "rls_update", "rls.rls_update", None),
    ("gridarx.pipeline", "identify", "pipeline.identify", _ident_observe),
    ("gridarx.scenario", "identify", "pipeline.identify", _ident_observe),
    ("gridarx.scenario", "simulate", "simulate.simulate", _simulate_observe),
    ("gridarx.simulate", "full_circuit_model", "circuit.full_circuit_model",
     None),
    ("gridarx.circuit", "full_circuit_model", "circuit.full_circuit_model",
     None),
    ("gridarx.simulate", "rbs_generate", "signals.rbs_generate", None),
    ("gridarx.detector", "classify_series", "detector.classify_series",
     _classify_observe),
    ("gridarx.scenario", "classify_series", "detector.classify_series",
     _classify_observe),
    ("gridarx.detector", "classify", "detector.classify", None),
    ("gridarx.scenario", "debounce", "detector.debounce", None),
    ("gridarx.scenario", "build_library", "detector.build_library", None),
    ("gridarx.scenario", "write_samples_csv", "scenario.write_samples_csv",
     _write_observe),
    ("gridarx.scenario", "write_distance_csv", "scenario.write_distance_csv",
     _write_observe),
    ("gridarx.scenario", "write_theta_csv", "scenario.write_theta_csv",
     _write_observe),
    ("gridarx.scenario", "load_scenario", "scenario.load_scenario", None),
    ("gridarx.scenario", "run_scenario", "scenario.run_scenario", None),
    ("gridarx.scenario", "run_suite", "scenario.run_suite", None),
    ("gridarx.scenario", "run_calibration", "scenario.run_calibration", None),
    ("gridarx.scenario", "build_library_from_scenarios",
     "scenario.build_library_from_scenarios", None),
]


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = SETUP_RUN
        self.counters: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def count(self, key: str, amount) -> None:
        slot = (self.run_id, key)
        self.counters[slot] = self.counters.get(slot, 0) + amount

    def span(self, fn, name: str, observe=None):
        """Wrap `fn` so that each call records one span named `name`."""
        nid = self._intern(name)
        stack = self._stack
        start, end, names = self.start, self.end, self.name
        parent, run = self.parent, self.run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for mod_name, attr, name, observe in self.targets:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.span(original, name, observe))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def summary(self, setup: bool = False) -> dict:
        """Per span name: calls, busy seconds (sum of durations) and self
        seconds (duration minus the time direct children cover), over the
        set-up spans or over the measured ones."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        name = np.frombuffer(self.name, dtype=np.int32)
        run = np.frombuffer(self.run, dtype=np.int32)
        keep = (run == SETUP_RUN) if setup else (run > SETUP_RUN)
        k = len(self.names)
        calls = np.bincount(name[keep], minlength=k)
        busy = np.bincount(name[keep], weights=dur[keep], minlength=k)
        selfs = np.bincount(name[keep], weights=self_t[keep], minlength=k)
        return {
            nm: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                 "self_s": float(selfs[i])}
            for i, nm in enumerate(self.names)
        }

    def counter(self, key: str, setup: bool = False) -> float:
        def keep(r):
            return r == SETUP_RUN if setup else r > SETUP_RUN

        return sum(v for (r, k), v in self.counters.items()
                   if k == key and keep(r))
