"""Loop kernels and the serial reference executor.

A *kernel* encapsulates the numeric body of a ``doconsider`` loop —
what one iteration computes — independent of the order iterations are
executed in.  Executors (serial, pre-scheduled, self-executing,
doacross, threaded) decide the order and synchronization; kernels do
the arithmetic.  All executors run the same kernel, and all must
reproduce the serial result bit-for-bit on legal schedules: that is the
library's core correctness contract, enforced by the test-suite.

Kernels
-------
* :class:`GenericLoopKernel` — wraps an arbitrary ``body(i)`` callable;
* :class:`SimpleLoopKernel` — the Figure 3 loop
  ``x[i] = x[i] + b[i] * x[ia[i]]`` with the ``xold`` anti-dependence
  handling of Figure 4;
* :class:`TriangularSolveKernel` — the Figure 8 sparse lower-triangular
  row substitution, with a vectorised batch path for wavefront
  execution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ScheduleError, ValidationError
from ..sparse.csr import CSRMatrix
from ..util.validation import as_int_array, check_vector
from .dependence import DependenceGraph

__all__ = [
    "LoopKernel",
    "GenericLoopKernel",
    "SimpleLoopKernel",
    "TriangularSolveKernel",
    "UpperTriangularSolveKernel",
    "SerialExecutor",
]


class LoopKernel(ABC):
    """Numeric body of a reorderable loop.

    Lifecycle: ``start()`` resets working state; ``execute_index`` /
    ``execute_batch`` perform iterations; ``result()`` returns the
    output.  ``execute_batch`` receives indices known to be mutually
    independent (one wavefront), so implementations may vectorise.
    """

    #: Number of outer-loop iterations.
    n: int

    @abstractmethod
    def start(self) -> None:
        """Reset working state ahead of a (re-)execution."""

    @abstractmethod
    def execute_index(self, i: int) -> None:
        """Perform iteration ``i``."""

    def execute_batch(self, idx: np.ndarray) -> None:
        """Perform a batch of mutually independent iterations."""
        for i in idx:
            self.execute_index(int(i))

    @abstractmethod
    def result(self) -> np.ndarray:
        """The loop's output after execution."""

    def result_slots(self, elements: np.ndarray) -> np.ndarray:
        """Positions in :meth:`result` of the written ``elements``.

        Elements are numbered as the loop's access pattern numbers them
        (what a speculative run restores from its checkpoint); a kernel
        that stores its output in another order maps them here.
        """
        return elements


class GenericLoopKernel(LoopKernel):
    """Wraps an arbitrary per-iteration callable.

    Parameters
    ----------
    n:
        Iteration count.
    body:
        ``body(i)`` performs iteration ``i``, mutating closed-over
        state.
    setup:
        Optional zero-argument callable invoked by :meth:`start`; must
        reset the closed-over state and (optionally) return the object
        that :meth:`result` reports.
    """

    def __init__(self, n: int, body, *, setup=None):
        if n < 0:
            raise ValidationError("n must be non-negative")
        self.n = int(n)
        self._body = body
        self._setup = setup
        self._result = None

    def start(self) -> None:
        self._result = self._setup() if self._setup is not None else None

    def execute_index(self, i: int) -> None:
        self._body(i)

    def result(self):
        return self._result


class SimpleLoopKernel(LoopKernel):
    """The paper's running example (Figure 3)::

        do i = 1, n
            x(i) = x(i) + b(i) * x(ia(i))

    Sequential semantics: a *backward* reference (``ia[i] < i``) reads
    the updated value; a forward reference reads the original value.
    The kernel therefore keeps ``xold`` (the input vector) alongside the
    in-progress ``x``, exactly as the transformed loop of Figure 4 does,
    which is what makes the loop reorderable in the first place.
    """

    def __init__(self, x0: np.ndarray, b: np.ndarray, ia: np.ndarray):
        x0 = np.asarray(x0, dtype=np.float64)
        self.n = x0.shape[0]
        self.x0 = x0
        self.b = check_vector(b, self.n, "b")
        self.ia = as_int_array(ia, "ia")
        if self.ia.shape[0] != self.n:
            raise ValidationError("ia must have the same length as x")
        if self.ia.size and (self.ia.min() < 0 or self.ia.max() >= self.n):
            raise ValidationError("ia entries out of range")
        self.x: np.ndarray | None = None
        self.xold: np.ndarray | None = None

    def dependence_graph(self) -> DependenceGraph:
        """The loop's run-time dependence structure."""
        return DependenceGraph.from_indirection(self.ia, self.n)

    def start(self) -> None:
        self.xold = self.x0.copy()
        self.x = self.x0.copy()

    def execute_index(self, i: int) -> None:
        j = self.ia[i]
        if j >= i:
            self.x[i] = self.xold[i] + self.b[i] * self.xold[j]
        else:
            self.x[i] = self.xold[i] + self.b[i] * self.x[j]

    def execute_batch(self, idx: np.ndarray) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        j = self.ia[idx]
        src = np.where(j >= idx, self.xold[j], self.x[j])
        self.x[idx] = self.xold[idx] + self.b[idx] * src

    def result(self) -> np.ndarray:
        return self.x


class TriangularSolveKernel(LoopKernel):
    """Sparse lower-triangular forward substitution (Figure 8)::

        do i = 1, n
            y(i) = rhs(i)
            do j = ija(i), ija(i+1) - 1
                y(i) = y(i) - a(j) * y(ija(j))

    Iteration ``i`` computes ``x[i] = (b[i] - Σ L[i,j] x[j]) / d[i]``
    over the stored strictly-lower entries.
    """

    def __init__(self, l: CSRMatrix, b: np.ndarray, *, diag=None,
                 unit_diagonal: bool = False):
        self.n = l.nrows
        self.l = l
        self.b = check_vector(b, self.n, "b")
        if unit_diagonal:
            self.diag = np.ones(self.n)
        elif diag is not None:
            self.diag = check_vector(diag, self.n, "diag")
        else:
            self.diag = np.zeros(self.n)
            rows = l.row_of_nnz()
            dm = l.indices == rows
            self.diag[rows[dm]] = l.data[dm]
        if np.any(self.diag == 0.0):
            raise ValidationError("triangular kernel requires a nonzero diagonal")
        self.x: np.ndarray | None = None

    def dependence_graph(self) -> DependenceGraph:
        return DependenceGraph.from_lower_csr(self.l)

    def start(self) -> None:
        self.x = np.zeros(self.n, dtype=np.float64)

    def execute_index(self, i: int) -> None:
        lo, hi = self.l.indptr[i], self.l.indptr[i + 1]
        acc = self.b[i]
        for k in range(lo, hi):
            j = self.l.indices[k]
            if j < i:
                acc -= self.l.data[k] * self.x[j]
        self.x[i] = acc / self.diag[i]

    def execute_batch(self, idx: np.ndarray) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        # Rows in a batch are independent, so every operand x[j] is
        # already final.
        self.x[idx] = _stored_order_rows(
            self.l, idx, self.b[idx], self.x, np.less) / self.diag[idx]

    def result(self) -> np.ndarray:
        return self.x


class UpperTriangularSolveKernel(LoopKernel):
    """Backward substitution ``U x = b`` as a reorderable forward loop.

    The backward solve visits rows ``n-1 .. 0``; renumbering iteration
    ``k`` to row ``n-1-k`` turns it into a forward loop whose
    dependences all point backwards, so every scheduler and executor
    applies unchanged.  :meth:`dependence_graph` returns the matching
    renumbered graph (the same convention
    :meth:`repro.core.dependence.DependenceGraph.from_upper_csr` uses);
    :meth:`result` reports ``x`` in natural row order.
    """

    def __init__(self, u: CSRMatrix, b: np.ndarray, *, diag=None,
                 unit_diagonal: bool = False):
        self.n = u.nrows
        if not u.is_upper_triangular():
            raise ValidationError("matrix must be upper triangular")
        self.u = u
        self.b = check_vector(b, self.n, "b")
        if unit_diagonal:
            self.diag = np.ones(self.n)
        elif diag is not None:
            self.diag = check_vector(diag, self.n, "diag")
        else:
            self.diag = u.diagonal()
        if np.any(self.diag == 0.0):
            raise ValidationError("triangular kernel requires a nonzero diagonal")
        self.x: np.ndarray | None = None

    def dependence_graph(self) -> DependenceGraph:
        return DependenceGraph.from_upper_csr(self.u)

    def start(self) -> None:
        self.x = np.zeros(self.n, dtype=np.float64)

    def _row_of(self, k: int) -> int:
        return self.n - 1 - k

    def execute_index(self, k: int) -> None:
        i = self._row_of(k)
        lo, hi = self.u.indptr[i], self.u.indptr[i + 1]
        acc = self.b[i]
        for p in range(lo, hi):
            j = self.u.indices[p]
            if j > i:
                acc -= self.u.data[p] * self.x[j]
        self.x[i] = acc / self.diag[i]

    def execute_batch(self, idx: np.ndarray) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        rows = self.n - 1 - idx
        self.x[rows] = _stored_order_rows(
            self.u, rows, self.b[rows], self.x, np.greater) / self.diag[rows]

    def result(self) -> np.ndarray:
        return self.x

    def result_slots(self, elements: np.ndarray) -> np.ndarray:
        """Iteration ``k`` writes row ``n-1-k``: map elements to rows."""
        return self.n - 1 - elements


def _stored_order_rows(m: CSRMatrix, rows: np.ndarray, acc: np.ndarray,
                       x: np.ndarray, strict) -> np.ndarray:
    """Subtract ``m[r, j] * x[j]`` from ``acc`` for each row ``r`` of ``rows``.

    Only entries with ``strict(j, r)`` count.  One pass per stored
    slot (the ``t``-th stored entry of every row at once), so each row
    subtracts its terms in stored order — the order of the one-row
    ``execute_index`` loop, and hence bitwise equal to it.  At most
    max-row-length passes.
    """
    starts = m.indptr[rows]
    counts = m.indptr[rows + 1] - starts
    for t in range(int(counts.max(initial=0))):
        live = np.flatnonzero(counts > t)
        p = starts[live] + t
        cols = m.indices[p]
        keep = strict(cols, rows[live])
        live = live[keep]
        acc[live] -= m.data[p[keep]] * x[cols[keep]]
    return acc


class SerialExecutor:
    """Executes a kernel in original index order — the correctness oracle.

    Optionally verifies, against a dependence graph, that original
    order is legal (all dependences backward), which is the paper's
    start-time-schedulable precondition.
    """

    def __init__(self, dep: DependenceGraph | None = None):
        self.dep = dep

    def run(self, kernel: LoopKernel) -> np.ndarray:
        if self.dep is not None and not self.dep.all_backward():
            raise ScheduleError(
                "original order is illegal: a dependence points forward"
            )
        kernel.start()
        for i in range(kernel.n):
            kernel.execute_index(i)
        return kernel.result()
