"""Session integration — compile without inspecting, guard, remember.

:func:`compile_speculative` is the body of
``Runtime.compile(deps, strategy="speculative")``: it builds an
:class:`~repro.speculate.shadow.AccessLog` straight from the
dependence source (a program's declared accesses, or an
inspector-normalized graph — never a wavefront sweep, never a sort),
wraps a :class:`~repro.speculate.executor.SpeculativeExecutor`, and
returns a plain :class:`~repro.runtime.session.CompiledLoop` (with the
program attached for programs, so ``rebind`` keeps working — a value
rebind reuses the cached speculation plan for free).

The **adaptive guard** (:func:`adaptive_guard`) runs after every
execution of a loop whose executor speculates.  It attaches the
:class:`~repro.speculate.executor.ConflictReport` to the
:class:`~repro.runtime.session.RunReport`, and when the measured
conflict rate reaches the structure's break-even rate
(:meth:`~repro.speculate.executor.SpeculativeExecutor.break_even_rate`,
priced from the machine model and the session's
``expected_executions`` horizon) it demotes the loop: the classic
inspector/executor pipeline serves all future calls and rebinds (the
triggering run is already correct — speculation repairs before it
reports).  The verdict is persisted in the session's
:class:`~repro.tuning.TuningStore` under :func:`speculation_key`, so
the *next* session skips speculation for that structure without ever
re-measuring it; a low-conflict success is recorded the same way,
purely as a diagnostic breadcrumb.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from ..errors import ValidationError
from ..runtime.backends import ExecutionBackend
from ..runtime.registry import register_backend
from ..util.timing import Stopwatch
from .executor import SpeculativeExecutor
from .shadow import AccessLog

__all__ = [
    "adaptive_guard",
    "compile_classic",
    "compile_speculative",
    "speculation_key",
]


def speculation_key(log: AccessLog, nproc: int, costs) -> str:
    """TuningStore key of one speculation decision.

    Hashes the access events (the exact structure speculation sees),
    the machine shape and the cost model — the same ingredients as the
    classic tuning key, minus the strategy space: the fallback verdict
    is about the *workload*, not about which schedulers are registered.
    """
    h = hashlib.blake2b(digest_size=20)
    for arr in (log.read_it, log.read_el, log.write_it, log.write_el):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(repr((log.n, log.n_elements, int(nproc),
                   dataclasses.astuple(costs), "speculate-v1")).encode())
    return h.hexdigest()


class _SpeculativeInspection:
    """Stand-in for :class:`~repro.core.inspector.InspectionResult`.

    Satisfies everything a compiled loop reads from its inspection —
    with ``pipeline_cost`` 0 (nothing was inspected) and the
    dependence graph materialized lazily, only if a caller actually
    asks for ``loop.dep`` (diagnostics); execution never does.  It
    also carries the adaptive guard's per-structure state.
    """

    strategy = "speculative"

    def __init__(self, source, log: AccessLog, schedule, *, store_key: str,
                 fallback_threshold: float, host_seconds: float = 0.0):
        #: The dependence source the loop was compiled from.
        self.source = source
        self.log = log
        self.schedule = schedule
        self.host_seconds = host_seconds
        #: TuningStore key of this structure's speculation verdict.
        self.store_key = store_key
        #: Conflict rate at which the guard abandons speculation.
        self.fallback_threshold = fallback_threshold
        #: Whether a verdict for this structure was stored already.
        self.verdict_recorded = False
        self._dep = None

    @property
    def pipeline_cost(self) -> float:
        return 0.0

    @property
    def num_wavefronts(self) -> int:
        return 0

    @property
    def wavefronts(self):
        return None

    @property
    def dep(self):
        if self._dep is None:
            from ..core.inspector import Inspector  # deferred: cycle

            self._dep = Inspector.dependences_of(self.source)
        return self._dep


def adaptive_guard(loop, report) -> None:
    """The adaptive guard, run after every speculative execution.

    Puts the run's :class:`~repro.speculate.executor.ConflictReport` on
    ``report.speculation``.  When the measured conflict rate reaches the
    structure's break-even threshold, it records the fallback verdict in
    the session's :class:`~repro.tuning.TuningStore` and demotes
    ``loop``: its classic replacement serves every later call and rebind
    (the triggering run is already correct — speculation repairs before
    it reports).  A low-conflict success is recorded once per
    structure, purely as a diagnostic breadcrumb.
    """
    conflicts = loop.executor.last_conflicts
    if conflicts is None:  # timing-only backends never ran
        return
    loop.executor.last_conflicts = None
    report.speculation = conflicts
    spec = loop.inspection
    if conflicts.conflict_rate >= spec.fallback_threshold:
        conflicts.fell_back = True
        _record_verdict(loop, conflicts, fallback=True)
        loop._fallback_loop = compile_classic(loop)
    elif not spec.verdict_recorded:
        _record_verdict(loop, conflicts, fallback=False)
    observer = loop.runtime.observer
    if observer is not None:
        observer.record_speculation(conflicts)


def compile_classic(loop):
    """``loop``'s source through the classic self/local pipeline."""
    source = loop.program
    if source is None:
        source = loop.inspection.source
    return loop.runtime.compile(
        source, executor="self", scheduler="local",
        assignment="wrapped", balance="wrapped",
    )


def _record_verdict(loop, conflicts, *, fallback: bool) -> None:
    spec = loop.inspection
    spec.verdict_recorded = True
    store = loop.runtime.tuning_store
    if store is None:
        return
    from ..tuning.store import TuningVerdict  # deferred: cycle

    sim = loop.simulate()
    executor, scheduler = (("self", "local") if fallback
                           else ("speculative", "identity"))
    store.put(spec.store_key, TuningVerdict(
        executor=executor, scheduler=scheduler,
        assignment="wrapped", balance="wrapped",
        sim_makespan=float(sim.total_time),
        seq_time=float(sim.seq_time),
        candidates=1, sims=1,
        seed=conflicts.seed,
        signature=(f"speculation:rate={conflicts.conflict_rate:.4f},"
                   f"reexec={conflicts.re_executed},"
                   f"fallback={fallback}"),
    ))


def compile_speculative(runtime, deps, *, verdict=None):
    """Build a speculative loop — the ``strategy="speculative"`` body.

    Consults the session's :class:`~repro.tuning.TuningStore` first: a
    remembered fallback verdict for this structure compiles the classic
    pipeline immediately (no speculation, no re-measuring).
    """
    from ..runtime.session import CompiledLoop  # deferred: cycle

    sw = Stopwatch().start()
    program = deps if getattr(deps, "__loop_program__", False) else None
    log = AccessLog.from_source(deps)
    key = "spec:" + speculation_key(log, runtime.nproc, runtime.costs)
    store = runtime.tuning_store
    if store is not None:
        remembered = store.get(key)
        if remembered is not None and remembered.executor != "speculative":
            return runtime.compile(deps, **remembered.compile_kwargs())
    executor = SpeculativeExecutor(log, runtime.nproc, runtime.costs,
                                   seed=runtime.tune_seed,
                                   observer=runtime.observer)
    sw.stop()
    # The guard threshold is priced per structure from the machine
    # model, amortising the avoided inspection over the session's
    # expected execution horizon (the ceiling is FALLBACK_THRESHOLD).
    inspection = _SpeculativeInspection(
        deps, log, executor.schedule, store_key=key,
        fallback_threshold=executor.break_even_rate(
            runtime.expected_executions),
        host_seconds=sw.elapsed)
    return CompiledLoop(
        runtime, inspection, executor_name="speculative",
        scheduler_name="identity", assignment="wrapped", balance="wrapped",
        executor=executor, cache_hit=False,
        compile_count=runtime._count_compile(key), verdict=verdict,
        program=program,
    )


@register_backend("speculative")
class SpeculativeBackend(ExecutionBackend):
    """Explicit speculative execution — rejects non-speculative loops.

    The default ``serial`` backend already runs a speculative loop
    speculatively (the executor owns the protocol); this backend
    exists so a caller can *assert* the no-inspection path, the same
    way ``threads`` asserts the synchronization protocol.
    """

    name = "speculative"

    def execute(self, compiled, kernel, *, unit_work=None, timeout=30.0):
        self.check_kernel(kernel)
        executor = compiled.executor
        if getattr(executor, "mode", None) != "speculative":
            raise ValidationError(
                "the 'speculative' backend requires a loop compiled with "
                "strategy='speculative' (this loop uses the "
                f"{compiled.executor_name!r} executor); use the 'serial' "
                "backend instead"
            )
        return executor.run(kernel), None
