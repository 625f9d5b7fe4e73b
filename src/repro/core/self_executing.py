"""The self-executing executor (Figure 4 of the paper).

A self-executing loop is "a doacross loop that executes loop iterations
in a modified order": every iteration busy-waits on a shared ``ready``
array until the iterations it depends on have completed, computes, then
marks itself ready.  There are no global barriers, so iterations of
consecutive wavefronts overlap in a pipeline whenever the dependences
allow — the effect behind the robustness results of Section 5.1.4.

Three engines (numeric / simulated timing / real threads), mirroring
:class:`~repro.core.prescheduled.PreScheduledExecutor`; the doacross
baseline (:class:`~repro.core.doacross.DoacrossExecutor`) is this
executor over the identity schedule.
"""

from __future__ import annotations

import numpy as np

from ..machine.costs import MachineCosts, MULTIMAX_320
from ..machine.simulator import (
    SimResult,
    simulate_self_executing,
    toposort_plan,
)
from ..machine.threads import ThreadedMachine
from ..runtime.registry import register_executor
from .dependence import DependenceGraph
from .executor import LoopKernel
from .schedule import Schedule

__all__ = ["SelfExecutingExecutor"]


@register_executor("self")
def _build_self_executing(inspection, nproc, costs):
    """Registry factory: Figure 1's recommended executor."""
    return SelfExecutingExecutor(inspection.schedule, inspection.dep, costs)


class SelfExecutingExecutor:
    """Busy-wait coordinated execution of a (reordered) schedule."""

    mode = "self"

    def __init__(self, schedule: Schedule, dep: DependenceGraph,
                 costs: MachineCosts = MULTIMAX_320):
        self.schedule = schedule
        self.dep = dep
        self.costs = costs
        # A topological order of (program-order ∪ dependence) edges both
        # proves the schedule deadlock-free and gives the numeric engine
        # a legal execution order.  Computed lazily and cached.
        self._order: np.ndarray | None = None

    # ------------------------------------------------------------------
    def execution_order(self) -> np.ndarray:
        """A deadlock-free total order consistent with this schedule."""
        if self._order is None:
            self._order = toposort_plan(self.schedule, self.dep)
        return self._order

    def run(self, kernel: LoopKernel) -> np.ndarray:
        """Numerically execute the kernel in a legal order.

        Iterations are replayed in the cached topological order, which
        yields exactly the values a concurrent run would produce (the
        dependence graph fixes the dataflow; any legal order computes
        the same fixed point).
        """
        order = self.execution_order()
        kernel.start()
        for i in order:
            kernel.execute_index(int(i))
        return kernel.result()

    def simulate(self, *, unit_work: np.ndarray | None = None,
                 keep_finish_times: bool = False) -> SimResult:
        """Machine-model timing of this schedule."""
        return simulate_self_executing(
            self.schedule, self.dep, self.costs,
            mode=self.mode, unit_work=unit_work,
            keep_finish_times=keep_finish_times,
        )

    def run_threaded(self, kernel: LoopKernel, *, timeout: float = 30.0,
                     timeline=None, faults=None) -> np.ndarray:
        """Execute on real threads with busy-wait coordination.

        ``timeline`` is an optional
        :class:`~repro.observe.TimelineRecorder` stamping every
        iteration's interval on its processor's lane; ``faults`` an
        optional :class:`~repro.resilience.FaultPlan` the machine's
        watchdog consults.
        """
        kernel.start()
        machine = ThreadedMachine(self.schedule.nproc, timeout=timeout,
                                  faults=faults)
        machine.run_self_executing(kernel, self.schedule, self.dep,
                                   timeline=timeline)
        return kernel.result()
