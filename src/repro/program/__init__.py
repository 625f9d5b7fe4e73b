"""repro.program — the declarative loop-program front end.

Access patterns in, bound executable loops out: declare what each
iteration reads and writes (:class:`At` descriptors, the ``from_*``
convenience constructors, or :meth:`LoopProgram.record`'s trace
recorder), and the :class:`LoopProgram` owns dependence extraction and
kernel binding.  Compiling a program through
:class:`~repro.runtime.Runtime` returns a
:class:`~repro.runtime.CompiledLoop` (also exported here as
:data:`BoundLoop`) whose :meth:`~repro.runtime.CompiledLoop.rebind`
swaps data arrays with zero inspector work — the paper's amortisation
argument made first-class.
"""

from .binding import BoundLoop, LoopProgram
from .descriptors import At, ResolvedAccess, Statement
from .extraction import extract_dependences, extract_statement_dependences
from .recording import RecordedKernel, StatementReplayKernel, record_trace
from .transform import (
    IterationMap,
    MappedKernel,
    Stage,
    TransformedLoop,
    Variant,
    enumerate_variants,
    fission,
    fuse,
    skew,
)

__all__ = [
    "At",
    "BoundLoop",
    "IterationMap",
    "LoopProgram",
    "MappedKernel",
    "RecordedKernel",
    "ResolvedAccess",
    "Stage",
    "Statement",
    "StatementReplayKernel",
    "TransformedLoop",
    "Variant",
    "enumerate_variants",
    "extract_dependences",
    "extract_statement_dependences",
    "fission",
    "fuse",
    "record_trace",
    "skew",
]
