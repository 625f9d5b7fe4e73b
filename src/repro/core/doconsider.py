"""The ``doconsider`` construct — the paper's user-facing API.

.. note::
   **Legacy entry points.**  ``doconsider`` and :func:`DoconsiderLoop`
   are thin functions over the canonical :class:`repro.runtime.Runtime`
   API: :func:`DoconsiderLoop` returns a plain
   :class:`~repro.runtime.session.CompiledLoop` and ``doconsider`` its
   :class:`~repro.runtime.session.RunReport`.  New code should use
   ``repro.runtime`` directly::

       rt = Runtime(nproc=2)
       loop = rt.compile(ia, executor="self", scheduler="local")
       report = loop(kernel)

A ``doconsider`` loop is one whose iterations *may* be profitably
reordered subject to run-time dependences.  In the paper this is a
language annotation handled by the compiler; here it is a function /
reusable object:

>>> import numpy as np
>>> from repro import doconsider
>>> from repro.core import SimpleLoopKernel
>>> ia = np.array([0, 0, 1, 0, 2])
>>> kernel = SimpleLoopKernel(np.ones(5), np.ones(5), ia)
>>> out = doconsider(kernel, deps=ia, nproc=2)
>>> out.x.shape
(5,)

The heavy lifting — inspection, scheduling, executor choice — follows
the recommendation matrix of the paper's Figure 1: the default is
**self-execution with local scheduling** ("recommended: performance
reasonably robust, low overhead for setup").

:func:`DoconsiderLoop` separates inspection from execution so the
inspector cost can be amortised over many executions, the way PCGPAK
amortises one topological sort over all Krylov iterations.
"""

from __future__ import annotations

from ..errors import ValidationError
from ..machine.costs import MachineCosts, MULTIMAX_320
from .executor import GenericLoopKernel, LoopKernel

__all__ = ["doconsider", "DoconsiderLoop"]


def DoconsiderLoop(
    deps,
    nproc: int,
    *,
    executor: str = "self",
    scheduler: str = "local",
    assignment: str = "wrapped",
    balance: str = "wrapped",
    costs: MachineCosts = MULTIMAX_320,
):
    """A reorderable loop with its inspection amortised across runs.

    Compiles ``deps`` once on a serial :class:`~repro.runtime.Runtime`
    without a schedule cache (one inspection per constructed loop) and
    returns the :class:`~repro.runtime.session.CompiledLoop`:
    ``loop(kernel)`` (or ``loop.run(kernel)``) executes on the serial
    backend, ``loop(kernel, backend="threads")`` on real threads.  All
    strategy names are validated eagerly against the registries, so an
    unknown executor, scheduler or assignment fails here — with the
    valid options enumerated.

    Parameters
    ----------
    deps:
        Run-time dependence information: a
        :class:`~repro.core.dependence.DependenceGraph`, a
        lower-triangular :class:`~repro.sparse.csr.CSRMatrix`, or an
        indirection array (1-D for Figure 3 loops, 2-D for Figure 6
        loops).
    nproc:
        Processor count of the simulated machine.
    executor:
        Any registered executor — ``"self"`` (default, recommended),
        ``"preschedule"`` or ``"doacross"``.
    scheduler:
        Any registered scheduler — ``"local"`` (default, recommended),
        ``"global"`` or ``"identity"``.
    assignment:
        Initial partition for local scheduling — any registered
        partitioner: ``"wrapped"``, ``"blocked"`` or ``"chunked"``.
    balance:
        Repartition rule for global scheduling (``"wrapped"`` or
        ``"greedy"``).
    costs:
        Machine cost model.
    """
    from ..runtime.session import Runtime  # deferred: import cycle

    rt = Runtime(nproc=nproc, backend="serial", costs=costs, cache=None)
    return rt.compile(deps, executor=executor, scheduler=scheduler,
                      assignment=assignment, balance=balance)


def doconsider(
    kernel_or_body,
    *,
    deps,
    nproc: int,
    n: int | None = None,
    executor: str = "self",
    scheduler: str = "local",
    assignment: str = "wrapped",
    balance: str = "wrapped",
    costs: MachineCosts = MULTIMAX_320,
):
    """One-shot ``doconsider``: inspect, schedule, execute, report.

    ``kernel_or_body`` is either a :class:`~repro.core.LoopKernel` or a
    plain callable ``body(i)`` (then ``n`` must be given).  All
    keyword strategies — including ``balance`` — are forwarded to
    :func:`DoconsiderLoop`.  Returns the
    :class:`~repro.runtime.session.RunReport` (``x``, ``sim``,
    ``inspection``, …).
    """
    if isinstance(kernel_or_body, LoopKernel):
        kernel = kernel_or_body
    else:
        if n is None:
            raise ValidationError("n is required when passing a bare body callable")
        kernel = GenericLoopKernel(n, kernel_or_body)
    loop = DoconsiderLoop(
        deps, nproc,
        executor=executor, scheduler=scheduler,
        assignment=assignment, balance=balance, costs=costs,
    )
    return loop(kernel)
