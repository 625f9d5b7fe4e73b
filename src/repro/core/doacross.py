"""The plain doacross baseline (Section 5.1.2).

"Recall that the self-executing loop is a doacross loop with a
reordered index set."  The doacross executor therefore *is* the
self-executing executor run over the identity schedule, with one cost
difference the paper highlights: because the index set is not
reordered, there is no schedule-array access overhead — the Multimax
measurements showed doacross has lower overhead but far less
concurrency, and ends up slower than both alternatives.
"""

from __future__ import annotations

import numpy as np

from ..machine.costs import MachineCosts, MULTIMAX_320
from ..runtime.registry import register_executor
from .dependence import DependenceGraph
from .schedule import identity_schedule
from .self_executing import SelfExecutingExecutor

__all__ = ["DoacrossExecutor"]


@register_executor("doacross", scheduler_override="identity")
def _build_doacross(inspection, nproc, costs):
    """Registry factory: the no-reordering baseline.

    ``scheduler_override="identity"`` tells the runtime that whatever
    scheduler was requested, a doacross loop runs the identity
    schedule — the defining property of the baseline.
    """
    return DoacrossExecutor(
        inspection.dep, nproc, costs, wavefronts=inspection.wavefronts,
    )


class DoacrossExecutor(SelfExecutingExecutor):
    """Busy-wait execution in original index order (wrapped ownership)."""

    mode = "doacross"

    def __init__(self, dep: DependenceGraph, nproc: int,
                 costs: MachineCosts = MULTIMAX_320,
                 wavefronts: np.ndarray | None = None):
        from .wavefront import compute_wavefronts  # deferred: module order

        wf = wavefronts if wavefronts is not None else compute_wavefronts(dep)
        super().__init__(identity_schedule(wf, nproc), dep, costs)

    def execution_order(self) -> np.ndarray:
        """Original order — legal because every dependence is backward."""
        if self._order is None:
            self._order = np.arange(self.dep.n, dtype=np.int64)
        return self._order
