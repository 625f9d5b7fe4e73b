"""Automated source-to-source transformation (Section 2.2 of the paper).

The paper's automated system takes an annotated sequential loop and
mechanically produces (1) an *inspector* that extracts the run-time
dependence structure, (2) a *wavefront* procedure (Figure 7), and (3)
transformed *executors* — a self-executing version (Figure 4) and a
pre-scheduled version (Figure 5).  This module does the same for a
restricted but faithful Python loop grammar.

Supported grammar
-----------------
The decorated/parsed function must consist of a single outer loop::

    def f(x, b, ia, n):
        for i in range(n):
            <body>

where ``<body>`` is a sequence of:

* scalar temporary assignments (``temp = <expr>``);
* at most one level of inner ``for j in range(...)`` loops;
* assignments/augmented assignments to exactly one array at the outer
  index (``x[i] = ...`` / ``x[i] += ...``).

Cross-iteration dependences must flow through reads of the written
array at a *non-identity* index (``x[ia[i]]``, ``y[g[i, j]]``,
``y[ija[k]]`` with ``k`` an inner loop variable).  The index
expressions may use parameters, loop variables and ``w``-free
temporaries — if an index expression depends on the written array the
loop is not start-time schedulable (that is the paper's ``dodynamic``
territory) and :class:`~repro.errors.TransformError` is raised.

Everything the transformer emits is real Python source — inspect it via
:attr:`ParallelizedLoop.inspector_source` etc.; those sources are the
artefact.  Execution goes through the one runtime pipeline: the
generated inspector's output is a dependence graph for
:meth:`Runtime.compile <repro.runtime.Runtime.compile>`, and
:meth:`ParallelizedLoop.kernel` wraps the generated executor body as the
kernel every executor and backend runs::

    rt = Runtime(nproc=4)
    loop = rt.compile(pl.dependence_graph(*args), executor="self")
    x = loop(pl.kernel(*args), backend="threads").x

so the transformed loop gets the schedule cache, ``strategy="auto"``,
observation, recovery and the threads backend's watchdog like any other
loop.  :meth:`ParallelizedLoop.run` is that composition on a fresh
session.
"""

from __future__ import annotations

import ast
import inspect as _inspect
import textwrap
from dataclasses import dataclass, field

import numpy as np

from ..errors import TransformError
from .dependence import DependenceGraph
from .executor import LoopKernel

__all__ = ["parallelize", "parallelize_source", "ParallelizedLoop"]

#: Phase-boundary marker in pre-scheduled schedules (Figure 5's NEWPHASE).
NEWPHASE = -1


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------

def _is_name(node, name: str | None = None) -> bool:
    return isinstance(node, ast.Name) and (name is None or node.id == name)


def _names_in(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@dataclass
class _Accessor:
    """One dependence-carrying read ``w[<index expr>]``."""

    index_src: str          # source of the index expression (original names)
    depth: int              # 0 = outer body, 1 = inside the inner loop
    loop_path: tuple[int, ...]  # positions of enclosing inner loops


@dataclass
class _LoopInfo:
    func_name: str
    params: list[str]
    loop_var: str
    range_args: list[str]
    written: str
    body: list[ast.stmt]
    accessors: list[_Accessor] = field(default_factory=list)


def _analyze(tree: ast.Module, func_name: str | None) -> tuple[_LoopInfo, ast.FunctionDef]:
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if not funcs:
        raise TransformError("source contains no function definition")
    if func_name is not None:
        funcs = [f for f in funcs if f.name == func_name]
        if not funcs:
            raise TransformError(f"function {func_name!r} not found in source")
    fn = funcs[0]
    params = [a.arg for a in fn.args.args]
    if fn.args.vararg or fn.args.kwarg or fn.args.kwonlyargs:
        raise TransformError("only plain positional parameters are supported")

    body = [s for s in fn.body if not _is_docstring(s)]
    if len(body) != 1 or not isinstance(body[0], ast.For):
        raise TransformError(
            "function body must be exactly one outer for-loop over range(...)"
        )
    outer = body[0]
    if not isinstance(outer.target, ast.Name):
        raise TransformError("outer loop target must be a simple name")
    rng = _range_args(outer.iter)
    if len(rng) != 1:
        raise TransformError(
            "the outer loop must be 'for i in range(n)' (single-argument "
            "range), so iteration indices coincide with array indices"
        )
    loop_var = outer.target.id

    written = _find_written_array(outer.body, loop_var)
    info = _LoopInfo(
        func_name=fn.name,
        params=params,
        loop_var=loop_var,
        range_args=rng,
        written=written,
        body=outer.body,
    )
    _collect_accessors(info, outer.body, depth=0, loop_vars=(loop_var,))
    _validate_start_time_schedulable(info)
    return info, fn


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _range_args(iter_node: ast.expr) -> list[str]:
    if not (
        isinstance(iter_node, ast.Call)
        and _is_name(iter_node.func, "range")
        and not iter_node.keywords
        and 1 <= len(iter_node.args) <= 3
    ):
        raise TransformError("loops must iterate over range(...) expressions")
    return [ast.unparse(a) for a in iter_node.args]


def _find_written_array(stmts: list[ast.stmt], loop_var: str) -> str:
    written: set[str] = set()

    def scan(ss):
        for s in ss:
            if isinstance(s, (ast.Assign, ast.AugAssign)):
                targets = s.targets if isinstance(s, ast.Assign) else [s.target]
                for t in targets:
                    if isinstance(t, ast.Subscript):
                        if not (_is_name(t.value) and _is_name(t.slice, loop_var)):
                            raise TransformError(
                                "array writes must be of the form "
                                f"arr[{loop_var}] = ... (got {ast.unparse(t)})"
                            )
                        written.add(t.value.id)
                    elif not isinstance(t, ast.Name):
                        raise TransformError(
                            f"unsupported assignment target {ast.unparse(t)}"
                        )
            elif isinstance(s, ast.For):
                if not isinstance(s.target, ast.Name):
                    raise TransformError("inner loop target must be a simple name")
                _range_args(s.iter)  # validates the shape
                scan(s.body)
                if s.orelse:
                    raise TransformError("for/else is not supported")
            else:
                raise TransformError(
                    f"unsupported statement in loop body: {ast.unparse(s)}"
                )

    scan(stmts)
    if len(written) != 1:
        raise TransformError(
            f"loop must write exactly one array at index {loop_var}; "
            f"found {sorted(written) or 'none'}"
        )
    return written.pop()


def _collect_accessors(info: _LoopInfo, stmts, depth: int, loop_vars: tuple[str, ...],
                       loop_path: tuple[int, ...] = ()) -> None:
    if depth > 1:
        raise TransformError("at most one level of inner loops is supported")
    for pos, s in enumerate(stmts):
        if isinstance(s, ast.For):
            _collect_accessors(
                info, s.body, depth + 1,
                loop_vars + (s.target.id,), loop_path + (pos,),
            )
            continue
        for node in ast.walk(s):
            if (
                isinstance(node, ast.Subscript)
                and _is_name(node.value, info.written)
                and isinstance(node.ctx, ast.Load)
                and not _is_name(node.slice, info.loop_var)
            ):
                info.accessors.append(
                    _Accessor(
                        index_src=ast.unparse(node.slice),
                        depth=depth,
                        loop_path=loop_path,
                    )
                )


def _validate_start_time_schedulable(info: _LoopInfo) -> None:
    """Index expressions must not read the written array or tainted temps."""
    tainted: set[str] = {info.written}

    def scan(stmts):
        for s in stmts:
            if isinstance(s, ast.Assign) and all(isinstance(t, ast.Name) for t in s.targets):
                if _names_in(s.value) & tainted:
                    for t in s.targets:
                        tainted.add(t.id)
            elif isinstance(s, ast.For):
                if _names_in(s.iter) & tainted:
                    raise TransformError(
                        "inner loop bounds depend on the written array — the "
                        "loop is not start-time schedulable (dodynamic case)"
                    )
                scan(s.body)

    scan(info.body)
    for acc in info.accessors:
        used = _names_in(ast.parse(acc.index_src, mode="eval"))
        bad = used & tainted
        if bad:
            raise TransformError(
                f"dependence index {acc.index_src!r} depends on {sorted(bad)} — "
                "the loop is not start-time schedulable (dodynamic case)"
            )


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------

class _Renamer(ast.NodeTransformer):
    """Rename the outer loop variable (``i`` → ``isched``)."""

    def __init__(self, old: str, new: str):
        self.old, self.new = old, new

    def visit_Name(self, node: ast.Name):
        if node.id == self.old:
            return ast.copy_location(ast.Name(id=self.new, ctx=node.ctx), node)
        return node


def _rename_src(src: str, old: str, new: str) -> str:
    tree = ast.parse(src, mode="eval")
    return ast.unparse(_Renamer(old, new).visit(tree))


class _ReadRewriter(ast.NodeTransformer):
    """Replace non-identity reads ``w[e]`` with hoisted temporaries.

    Records, for each occurrence, the index-expression source so the
    caller can emit the hoist + wait guard ahead of the statement.
    """

    def __init__(self, written: str, loop_var: str, counter_start: int):
        self.written = written
        self.loop_var = loop_var
        self.hoists: list[tuple[str, str]] = []  # (value temp, index src)
        self._k = counter_start

    def visit_Subscript(self, node: ast.Subscript):
        self.generic_visit(node)
        if (
            _is_name(node.value, self.written)
            and isinstance(node.ctx, ast.Load)
            and not _is_name(node.slice, self.loop_var)
        ):
            vname = f"__v{self._k}__"
            self._k += 1
            self.hoists.append((vname, ast.unparse(node.slice)))
            return ast.copy_location(ast.Name(id=vname, ctx=ast.Load()), node)
        return node


def _emit_body(info: _LoopInfo, *, self_executing: bool, indent: str) -> list[str]:
    """Transformed executor body for one scheduled iteration.

    ``isched`` is in scope; reads/writes at the outer index use the
    working array directly (initialised to the input, so pre-write reads
    see original values); forward references read ``__old__``.
    """
    lines: list[str] = []
    counter = 0

    def emit_stmts(stmts, ind):
        nonlocal counter
        for s in stmts:
            if isinstance(s, ast.For):
                rng = ", ".join(
                    _rename_src(ast.unparse(a), info.loop_var, "isched")
                    for a in s.iter.args
                )
                lines.append(f"{ind}for {s.target.id} in range({rng}):")
                emit_stmts(s.body, ind + "    ")
                continue
            renamed = _Renamer(info.loop_var, "isched").visit(
                ast.parse(ast.unparse(s)).body[0]
            )
            rewriter = _ReadRewriter(info.written, "isched", counter)
            rewritten = rewriter.visit(renamed)
            counter += len(rewriter.hoists)
            for vname, idx_src in rewriter.hoists:
                need = f"__need{vname.strip('_')}__"
                lines.append(f"{ind}{need} = {idx_src}")
                lines.append(f"{ind}if {need} < isched:")
                if self_executing:
                    lines.append(f"{ind}    __wait__(__ready__, {need})")
                lines.append(f"{ind}    {vname} = {info.written}[{need}]")
                lines.append(f"{ind}elif {need} == isched:")
                lines.append(f"{ind}    {vname} = {info.written}[isched]")
                lines.append(f"{ind}else:")
                lines.append(f"{ind}    {vname} = __old__[{need}]")
            lines.append(f"{ind}{ast.unparse(rewritten)}")

    emit_stmts(info.body, indent)
    return lines


def _emit_inspector(info: _LoopInfo) -> str:
    """The inspector's source: evaluates index expressions, collects deps."""
    p = ", ".join(info.params)
    rng = ", ".join(info.range_args)
    i = info.loop_var
    lines = [
        f"def __inspector__({p}):",
        f"    __deps__ = [[] for __q__ in range({rng})]",
        f"    for {i} in range({rng}):",
    ]

    def emit(stmts, ind):
        for pos, s in enumerate(stmts):
            if isinstance(s, ast.For):
                args = ", ".join(ast.unparse(a) for a in s.iter.args)
                lines.append(f"{ind}for {s.target.id} in range({args}):")
                inner_before = len(lines)
                emit(s.body, ind + "    ")
                if len(lines) == inner_before:
                    lines.append(f"{ind}    pass")
            elif isinstance(s, ast.Assign) and all(
                isinstance(t, ast.Name) for t in s.targets
            ):
                if not (_names_in(s.value) & {info.written}):
                    lines.append(f"{ind}{ast.unparse(s)}")
            # Accessor collection is emitted where the read occurred.
            if not isinstance(s, ast.For):
                for node in ast.walk(s):
                    if (
                        isinstance(node, ast.Subscript)
                        and _is_name(node.value, info.written)
                        and isinstance(node.ctx, ast.Load)
                        and not _is_name(node.slice, i)
                    ):
                        idx = ast.unparse(node.slice)
                        lines.append(f"{ind}__a__ = {idx}")
                        lines.append(f"{ind}if __a__ < {i}:")
                        lines.append(f"{ind}    __deps__[{i}].append(__a__)")

    before = len(lines)
    emit(info.body, "        ")
    if len(lines) == before:
        # Dependence-free loop (a doall): keep the loop syntactically
        # valid; the inspector then reports zero dependences.
        lines.append("        pass")
    lines.append("    return [sorted(set(__d__)) for __d__ in __deps__]")
    return "\n".join(lines)


def _emit_wavefront(info: _LoopInfo) -> str:
    """Figure 7: the wavefront sweep, generated from the same accessors."""
    p = ", ".join(info.params)
    rng = ", ".join(info.range_args)
    i = info.loop_var
    lines = [
        f"def __wavefront__({p}):",
        f"    __n__ = len(range({rng}))",
        "    maxwfy = [0] * __n__",
        f"    for {i} in range({rng}):",
        "        mywf = -1",
    ]

    def emit(stmts, ind):
        for s in stmts:
            if isinstance(s, ast.For):
                args = ", ".join(ast.unparse(a) for a in s.iter.args)
                lines.append(f"{ind}for {s.target.id} in range({args}):")
                inner_before = len(lines)
                emit(s.body, ind + "    ")
                if len(lines) == inner_before:
                    lines.append(f"{ind}    pass")
            elif isinstance(s, ast.Assign) and all(
                isinstance(t, ast.Name) for t in s.targets
            ):
                if not (_names_in(s.value) & {info.written}):
                    lines.append(f"{ind}{ast.unparse(s)}")
            if not isinstance(s, ast.For):
                for node in ast.walk(s):
                    if (
                        isinstance(node, ast.Subscript)
                        and _is_name(node.value, info.written)
                        and isinstance(node.ctx, ast.Load)
                        and not _is_name(node.slice, i)
                    ):
                        idx = ast.unparse(node.slice)
                        lines.append(f"{ind}__a__ = {idx}")
                        lines.append(f"{ind}if __a__ < {i}:")
                        lines.append(f"{ind}    mywf = max(maxwfy[__a__], mywf)")

    emit(info.body, "        ")
    # (The trailing assignment keeps the loop body non-empty even for
    # dependence-free doall loops.)
    lines.append(f"        maxwfy[{i}] = mywf + 1")
    lines.append("    return maxwfy")
    return "\n".join(lines)


def _emit_self_executor(info: _LoopInfo) -> str:
    """Figure 4: busy-wait executor over one processor's schedule."""
    p = ", ".join(info.params)
    lines = [
        f"def __self_executor__(__schedule__, __ready__, __old__, {p}):",
        "    for __k__ in range(len(__schedule__)):",
        "        isched = __schedule__[__k__]",
    ]
    lines += _emit_body(info, self_executing=True, indent="        ")
    lines.append("        __ready__[isched] = 1")
    return "\n".join(lines)


def _emit_prescheduled_executor(info: _LoopInfo) -> str:
    """Figure 5: barrier executor; ``NEWPHASE`` markers call ``__sync__``."""
    p = ", ".join(info.params)
    lines = [
        f"def __presched_executor__(__schedule__, __sync__, __old__, {p}):",
        "    for __k__ in range(len(__schedule__)):",
        "        isched = __schedule__[__k__]",
        f"        if isched == {NEWPHASE}:",
        "            __sync__()",
        "            continue",
    ]
    lines += _emit_body(info, self_executing=False, indent="        ")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Lowering onto the runtime
# ----------------------------------------------------------------------

class _GeneratedKernel(LoopKernel):
    """A :class:`~repro.core.executor.LoopKernel` over the generated code.

    One iteration is the generated pre-scheduled executor (Figure 5)
    run over the one-element schedule ``[i]``; a batch of independent
    iterations is the same executor over the batch.  ``__old__`` is the
    Figure 4 copy of the input, so forward references read original
    values in any legal order.
    """

    def __init__(self, executor, args: list, widx: int, n: int):
        self.n = n
        self._executor = executor
        self._args = args
        self._widx = widx
        self._old = np.array(args[widx], dtype=np.float64, copy=True)
        self._work: np.ndarray | None = None
        self._tail: tuple = ()

    def start(self) -> None:
        self._work = self._old.copy()
        self._args[self._widx] = self._work
        self._tail = (None, self._old, *self._args)

    def execute_index(self, i: int) -> None:
        self._executor([i], *self._tail)

    def execute_batch(self, idx: np.ndarray) -> None:
        self._executor(np.asarray(idx).tolist(), *self._tail)

    def result(self) -> np.ndarray:
        return self._work


@dataclass
class ParallelizedLoop:
    """Compiled output of the automated transformation.

    The *generated sources* are the artefact (inspect them!).  Execution
    goes through :class:`~repro.runtime.Runtime`: the generated
    inspector's output is the dependence graph to compile, and
    :meth:`kernel` is the generated executor body to run on it.
    """

    info: _LoopInfo = field(repr=False)
    inspector_source: str
    wavefront_source: str
    self_executor_source: str
    prescheduled_executor_source: str
    original_source: str = field(repr=False)

    def __post_init__(self):
        ns: dict = {}
        for src in (
            self.inspector_source,
            self.wavefront_source,
            self.prescheduled_executor_source,
            self.original_source,
        ):
            exec(compile(src, "<repro-transform>", "exec"), ns)  # noqa: S102
        self._ns = ns
        self.inspector = ns["__inspector__"]
        self.wavefront = ns["__wavefront__"]
        self.prescheduled_executor = ns["__presched_executor__"]
        self.original = ns[self.info.func_name]

    # ------------------------------------------------------------------
    @property
    def written_array(self) -> str:
        return self.info.written

    def dependence_graph(self, *args) -> DependenceGraph:
        """Run the generated inspector and package its output."""
        deps = self.inspector(*args)
        n = len(deps)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(d) for d in deps], out=indptr[1:])
        flat = (
            np.concatenate([np.asarray(d, dtype=np.int64) for d in deps if d])
            if any(deps)
            else np.empty(0, dtype=np.int64)
        )
        return DependenceGraph(indptr, flat, n, check_acyclic=False)

    def kernel(self, *args) -> LoopKernel:
        """The loop body over ``args`` as a kernel for the runtime.

        ``args`` are the original function's arguments, in order.  The
        kernel works on a copy of the written array (the argument is
        never mutated) and its ``n`` is the iteration count.
        """
        params = self.info.params
        if len(args) != len(params):
            raise TransformError(
                f"{self.info.func_name} expects {len(params)} arguments"
            )
        n = eval(  # noqa: S307 - the loop's own range expression
            f"len(range({self.info.range_args[0]}))", self._ns,
            dict(zip(params, args)))
        return _GeneratedKernel(self.prescheduled_executor, list(args),
                                params.index(self.info.written), n)

    def run(
        self,
        *args,
        nproc: int = 4,
        executor: str = "self",
        scheduler: str = "local",
        threaded: bool = False,
    ) -> np.ndarray:
        """Execute the transformed loop; returns the written array.

        Shorthand for compiling :meth:`dependence_graph` on a fresh
        ``Runtime(nproc=nproc)`` and running :meth:`kernel` on it —
        ``threaded=True`` on the ``threads`` backend (one real thread
        per processor), otherwise on ``serial``.  Compose the two calls
        on your own :class:`~repro.runtime.Runtime` for its cache,
        ``strategy="auto"``, observation or recovery.
        """
        from ..runtime import Runtime  # deferred: the runtime imports core

        kernel = self.kernel(*args)
        loop = Runtime(nproc=nproc).compile(
            self.dependence_graph(*args), executor=executor,
            scheduler=scheduler)
        backend = "threads" if threaded else "serial"
        return loop(kernel, backend=backend, with_sim=False).x

    def run_original(self, *args) -> np.ndarray:
        """Execute the untransformed loop (oracle)."""
        params = self.info.params
        args = list(args)
        widx = params.index(self.info.written)
        work = np.array(args[widx], dtype=np.float64, copy=True)
        args[widx] = work
        self.original(*args)
        return work


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def parallelize_source(source: str, func_name: str | None = None) -> ParallelizedLoop:
    """Transform loop source code into a :class:`ParallelizedLoop`."""
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    info, fn = _analyze(tree, func_name)
    return ParallelizedLoop(
        info=info,
        inspector_source=_emit_inspector(info),
        wavefront_source=_emit_wavefront(info),
        self_executor_source=_emit_self_executor(info),
        prescheduled_executor_source=_emit_prescheduled_executor(info),
        original_source=ast.unparse(ast.Module(body=[fn], type_ignores=[])),
    )


def parallelize(func) -> ParallelizedLoop:
    """Decorator form: transform a live Python function.

    >>> @parallelize
    ... def simple(x, b, ia, n):
    ...     for i in range(n):
    ...         x[i] = x[i] + b[i] * x[ia[i]]
    """
    try:
        source = _inspect.getsource(func)
    except (OSError, TypeError) as exc:
        raise TransformError(
            "cannot retrieve source for function; pass source text to "
            "parallelize_source instead"
        ) from exc
    # Drop decorator lines so re-parsing doesn't recurse.
    lines = textwrap.dedent(source).splitlines()
    while lines and lines[0].lstrip().startswith("@"):
        lines.pop(0)
    return parallelize_source("\n".join(lines), func.__name__)
