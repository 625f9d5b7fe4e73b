"""Spans recorded from outside the library, around its public calls.

The benchmark never edits the library to time it.  In a traced run it
replaces a list of public functions and methods (``WRAPPED``) with
thin wrappers that record one span per call: name, layer, start, end,
parent span and op id.  Spans stay in memory and are written out when
the run ends, as Chrome-trace JSON (one track per op) and as a table
of layer self times.

A layer's self time is its spans' duration minus the part their child
spans cover; whatever the op's own root span keeps for itself is the
time no layer accounts for (the benchmark's glue plus library code
between wrapped calls).  Self times of all layers plus that remainder
add up to op time by construction.
"""

from __future__ import annotations

import importlib
import json
import threading
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Layers in report order; ``bench`` is the op root (unattributed).
LAYERS = ("program", "transform", "core", "runtime", "machine",
          "speculate", "tuning")


def _first_call_tag(seen):
    """Tag a call ``cold`` when it is the first on its ``self`` object."""

    def tag(args, kwargs, result):
        obj = args[0]
        if obj in seen:
            return None
        seen.add(obj)
        return "cold"

    return tag


def _compile_tag(args, kwargs, result):
    """Tag ``Runtime.compile`` by strategy and cache outcome."""
    strategy = kwargs.get("strategy")
    if strategy is not None:
        return strategy
    return "warm" if getattr(result, "cache_hit", False) else "cold"


#: (module, attribute path, span name, layer, tag factory).  Every
#: entry is a public call of the library; the span name is what the
#: per-layer metrics read.
WRAPPED = (
    ("repro.program.binding", "LoopProgram.dependence_graph",
     "program.extract", "program",
     lambda: _first_call_tag(weakref.WeakSet())),
    ("repro.program.binding", "BoundLoop.rebind",
     "program.rebind", "program", None),
    ("repro.program.transform", "enumerate_variants",
     "program.variants", "transform", None),
    ("repro.program.transform", "TransformedLoop.__call__",
     "transform.call", "transform", None),
    ("repro.core.inspector", "compute_wavefronts",
     "core.wavefronts", "core", None),
    ("repro.core.schedule", "local_schedule",
     "core.schedule", "core", None),
    ("repro.core.schedule", "global_schedule",
     "core.schedule", "core", None),
    ("repro.core.inspector", "Inspector.inspect",
     "core.inspect", "core", None),
    ("repro.core.inspector", "Inspector.price_inspection",
     "core.price", "core", None),
    ("repro.core.self_executing", "toposort_plan",
     "core.order", "core", None),
    ("repro.core.self_executing", "SelfExecutingExecutor.run",
     "core.replay", "core", None),
    ("repro.core.prescheduled", "PreScheduledExecutor.run",
     "core.replay", "core", None),
    ("repro.runtime.session", "Runtime.compile",
     "runtime.compile", "runtime", lambda: _compile_tag),
    ("repro.runtime.session", "CompiledLoop.__call__",
     "runtime.call", "runtime", None),
    ("repro.runtime.cache", "ScheduleCache.key_for",
     "runtime.key", "runtime", None),
    ("repro.runtime.cache", "ScheduleCache.get",
     "runtime.cache_get", "runtime", None),
    ("repro.core.self_executing", "SelfExecutingExecutor.simulate",
     "machine.sim", "machine", None),
    ("repro.core.prescheduled", "PreScheduledExecutor.simulate",
     "machine.sim", "machine", None),
    ("repro.speculate.executor", "SpeculativeExecutor.simulate",
     "machine.sim", "machine", None),
    ("repro.core.self_executing", "SelfExecutingExecutor.run_threaded",
     "machine.threads", "machine", None),
    ("repro.core.prescheduled", "PreScheduledExecutor.run_threaded",
     "machine.threads", "machine", None),
    ("repro.machine.processes", "ProcessSelfExecutingSolver.__init__",
     "machine.processes_setup", "machine", None),
    ("repro.machine.processes", "ProcessSelfExecutingSolver.solve",
     "machine.processes_solve", "machine", None),
    ("repro.machine.processes", "ProcessPrescheduledSolver.solve",
     "machine.processes_solve", "machine", None),
    ("repro.speculate.loop", "compile_speculative",
     "speculate.compile", "speculate", None),
    ("repro.speculate.executor", "SpeculativeExecutor.run",
     "speculate.run", "speculate", None),
    ("repro.tuning.tuner", "Tuner.tune",
     "tuning.tune", "tuning", None),
    ("repro.tuning.tuner", "Tuner.tune_program",
     "tuning.tune_program", "tuning", None),
)


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op",
                 "tag")

    def __init__(self, sid, name, layer, parent, op):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.tag = None
        self.start = 0.0
        self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; wraps the library while installed.

    Only the thread that built the tracer records: calls made from the
    ``threads`` backend's worker threads run unwrapped, so spans nest
    strictly and self times never double count.  A call in
    :data:`WRAPPED` that the library no longer has is listed in
    ``missing`` and left out; the metrics that read its spans report it
    unmeasured.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: dict[int, str] = {}
        self._stack: list[Span] = []
        self._op = None
        self._thread = threading.get_ident()
        self.missing: list[str] = []
        #: (owner, attribute, original, wrapped) per wrapped call.
        self._patches = []
        for module, path, name, layer, tag_factory in WRAPPED:
            owner_name, _, attr = path.rpartition(".")
            try:
                mod = importlib.import_module(module)
                owner = getattr(mod, owner_name) if owner_name else mod
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            static = isinstance(raw, staticmethod)
            tag = tag_factory() if tag_factory is not None else None
            new = self._wrapper(raw.__func__ if static else raw, name,
                                layer, tag)
            self._patches.append(
                (owner, attr, raw, staticmethod(new) if static else new))

    # ------------------------------------------------------------------
    def _open(self, name, layer) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """One op: the root span of its own track."""
        self._op = len(self.ops) + 1
        self.ops[self._op] = kind
        span = self._open(kind, "bench")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def _wrapper(self, fn, name, layer, tag):
        tracer = self

        def wrapped(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if tag is not None:
                span.tag = tag(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        wrapped.__doc__ = getattr(fn, "__doc__", None)
        return wrapped

    @contextmanager
    def installed(self):
        """Wrap every call in :data:`WRAPPED`; restore them on exit."""
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, raw, _ in self._patches:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def durations(self, name: str, tag=None, skip_kinds=()) -> list[float]:
        """Durations (s) of every span called ``name`` (and ``tag``),
        leaving out spans inside ops of the kinds in ``skip_kinds``."""
        return [s.dur for s in self.spans
                if s.name == name and (tag is None or s.tag == tag)
                and self.ops.get(s.op) not in skip_kinds]

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op: layer → self seconds; ``bench`` is unattributed."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        out: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for s in self.spans:
            if s.op is not None:
                out[s.op][s.layer] += s.dur - child[s.sid]
        return out

    def op_durations(self) -> dict[int, float]:
        return {s.op: s.dur for s in self.spans
                if s.layer == "bench" and s.op is not None}

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Mean per-op self ms by layer, per op kind."""
        per_op = self.self_times()
        total = self.op_durations()
        by_kind: dict[str, list[int]] = defaultdict(list)
        for op, kind in self.ops.items():
            by_kind[kind].append(op)
        table = {}
        for kind, ops in by_kind.items():
            row = {"ops": float(len(ops)),
                   "op_ms": 1e3 * sum(total[o] for o in ops) / len(ops)}
            for layer in LAYERS + ("bench",):
                row[layer] = 1e3 * sum(per_op[o].get(layer, 0.0)
                                       for o in ops) / len(ops)
            table[kind] = row
        return table

    # ------------------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """Chrome-trace JSON (Perfetto loads it): one track per op."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [{"ph": "M", "name": "process_name", "pid": 1,
                   "args": {"name": "perfbench"}}]
        for op, kind in self.ops.items():
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": op, "args": {"name": f"op {op} {kind}"}})
        for s in self.spans:
            args = {"layer": s.layer, "span": s.sid, "parent": s.parent,
                    "op": s.op}
            if s.tag is not None:
                args["tag"] = s.tag
            events.append({
                "ph": "X", "name": s.name, "cat": s.layer, "pid": 1,
                "tid": s.op if s.op is not None else 0,
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.dur * 1e6, 3),
                "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
