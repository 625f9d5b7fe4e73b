"""The benchmark's workloads: seeded inputs, independent oracles, ops.

Every input is generated here from the run's seed; the library only
ever receives the generated arrays.  Every op's result is compared,
bit for bit and outside the timed region, against an oracle computed
here in plain Python: the Figure 3 loop run in program order, and
stored-order forward / backward substitution.  A mismatch or an
exception counts as a failed op.

Load shape: one caller, a closed loop, one op at a time; every
session is ``Runtime(nproc=2)``.  An op kind maps to one end-to-end
metric (see ``run.py``):

==============  ====================================================
``setup``       declare -> compile -> first verified result, cold
``spec_setup``  the same under ``strategy="speculative"``
``serial``      one steady op on the default backend
``threads``     the same op on the ``threads`` backend
``processes``   a lower solve on the ``processes`` backend
``spec``        one steady op of a speculative loop
``warm_compile`` a recompile of an already-compiled structure
==============  ====================================================
"""

from __future__ import annotations

import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

from repro import LoopProgram, Runtime
from repro.sparse.csr import CSRMatrix

NPROC = 2


# ----------------------------------------------------------------------
# Recording ops
# ----------------------------------------------------------------------
class Recorder:
    """Times ops, checks their results, counts failures.

    With a tracer, each op runs inside its own root span, so the spans
    of the library calls it makes share the op's id.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.notes: dict[str, list] = defaultdict(list)
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.errors: list[str] = []

    def op(self, kind: str, fn, check):
        """Run ``fn()`` as one op; ``check(result)`` runs untimed."""
        self.attempted[kind] += 1
        try:
            if self.tracer is None:
                t0 = perf_counter()
                out = fn()
                dt = perf_counter() - t0
            else:
                with self.tracer.op(kind):
                    t0 = perf_counter()
                    out = fn()
                    dt = perf_counter() - t0
        except Exception:  # an op that raises is a failed op; go on
            self.failed[kind] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {traceback.format_exc()}")
            return None
        self.samples[kind].append(dt)
        if not check(out):
            self.failed[kind] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: result differs from the oracle")
        return out

    def note(self, key: str, value) -> None:
        self.notes[key].append(value)


def bitwise_equal(got, want) -> bool:
    got = np.asarray(got, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


# ----------------------------------------------------------------------
# Oracles (plain Python, program / stored order)
# ----------------------------------------------------------------------
def figure3_oracle(x0, b, ia) -> np.ndarray:
    """``x[i] = x[i] + b[i] * x[ia[i]]`` for i = 0..n-1, in order."""
    x = x0.tolist()
    bl = b.tolist()
    il = ia.tolist()
    for i in range(len(x)):
        x[i] = x[i] + bl[i] * x[il[i]]
    return np.array(x)


def forward_oracle(l_strict: CSRMatrix, r) -> np.ndarray:
    """Unit-lower forward substitution over stored entries, in order."""
    ip = l_strict.indptr.tolist()
    ix = l_strict.indices.tolist()
    dv = l_strict.data.tolist()
    rl = r.tolist()
    x = [0.0] * len(rl)
    for i in range(len(rl)):
        acc = rl[i]
        for k in range(ip[i], ip[i + 1]):
            j = ix[k]
            if j < i:
                acc -= dv[k] * x[j]
        x[i] = acc / 1.0
    return np.array(x)


def backward_oracle(u: CSRMatrix, diag, r) -> np.ndarray:
    """Backward substitution over stored strictly-upper entries."""
    ip = u.indptr.tolist()
    ix = u.indices.tolist()
    dv = u.data.tolist()
    dl = diag.tolist()
    rl = r.tolist()
    n = len(rl)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = rl[i]
        for k in range(ip[i], ip[i + 1]):
            j = ix[k]
            if j > i:
                acc -= dv[k] * x[j]
        x[i] = acc / dl[i]
    return np.array(x)


def sweep_oracle(x, c) -> tuple[np.ndarray, np.ndarray]:
    """``s[i] = s[i-1] + x[i]; y[i] = s[i] * c[i]`` in order."""
    xl, cl = x.tolist(), c.tolist()
    s = [0.0] * len(xl)
    y = [0.0] * len(xl)
    for i in range(len(xl)):
        s[i] = s[i - 1] + xl[i] if i else xl[i]
        y[i] = s[i] * cl[i]
    return np.array(s), np.array(y)


def stencil_oracle(h, cols: int) -> np.ndarray:
    """``g[i] = h[i] + g[north] + g[west]`` over a row-major grid."""
    hl = h.tolist()
    g = [0.0] * len(hl)
    for i in range(len(hl)):
        acc = hl[i]
        if i >= cols:
            acc = acc + g[i - cols]
        if i % cols:
            acc = acc + g[i - 1]
        g[i] = acc
    return np.array(g)


# ----------------------------------------------------------------------
# Input generators
# ----------------------------------------------------------------------
def figure3_as_lower(ia, b) -> CSRMatrix:
    """The Figure 3 loop as the unit-lower solve it is.

    Row ``i`` holds ``-b[i]`` at column ``ia[i]`` when the reference is
    backward; with right-hand side :func:`figure3_rhs` the forward
    substitution computes the loop's result bit for bit
    (``r - (-b) * x == r + b * x`` exactly in IEEE arithmetic).  This is
    the only form the ``processes`` backend accepts.
    """
    n = ia.shape[0]
    back = ia < np.arange(n)
    indptr = np.concatenate(([0], np.cumsum(back))).astype(np.int64)
    return CSRMatrix(indptr, ia[back].astype(np.int64), -b[back], (n, n))


def figure3_rhs(x0, b, ia) -> np.ndarray:
    n = ia.shape[0]
    fwd = ia >= np.arange(n)
    r = x0.copy()
    r[fwd] = x0[fwd] + b[fwd] * x0[ia[fwd]]
    return r


def sparse_update(rng, n: int, backward_frac: float = 0.005) -> np.ndarray:
    """Forward references everywhere but a seeded few backward ones."""
    i = np.arange(n)
    ia = i + (rng.random(n) * (n - i)).astype(np.int64)
    m = max(1, int(backward_frac * n))
    pos = rng.choice(np.arange(1, n), size=m, replace=False)
    ia[pos] = (rng.random(m) * pos).astype(np.int64)
    return ia


def five_point_ilu0(seed: int, nx: int = 63):
    """ILU(0) of a seeded variable-coefficient 5-point operator.

    Returns ``(l_strict, u, u_diag)``: the strictly lower unit-L
    multipliers, ``U`` with its diagonal, and that diagonal.  Natural
    ordering on an ``nx`` x ``nx`` grid gives ``2 nx - 1`` wavefronts.
    """
    rng = np.random.default_rng([seed, 11])
    n = nx * nx
    cx = 0.5 + rng.random((nx, nx - 1))   # (r, c) -- (r, c+1)
    cy = 0.5 + rng.random((nx - 1, nx))   # (r, c) -- (r+1, c)
    indptr, indices, data = [0], [], []
    for r in range(nx):
        for c in range(nx):
            i = r * nx + c
            row = []
            if r > 0:
                row.append((i - nx, -cy[r - 1, c]))
            if c > 0:
                row.append((i - 1, -cx[r, c - 1]))
            right = -cx[r, c] if c < nx - 1 else None
            down = -cy[r, c] if r < nx - 1 else None
            off = -sum(v for _, v in row) - (right or 0.0) - (down or 0.0)
            row.append((i, off + 0.05 + 0.1 * rng.random()))
            if right is not None:
                row.append((i + 1, right))
            if down is not None:
                row.append((i + nx, down))
            indices.extend(j for j, _ in row)
            data.extend(float(v) for _, v in row)
            indptr.append(len(indices))
    # IKJ incomplete factorization on the matrix's own pattern.
    a = list(data)
    pos = [{indices[k]: k for k in range(indptr[i], indptr[i + 1])}
           for i in range(n)]
    dpos = [pos[i][i] for i in range(n)]
    for i in range(n):
        pi = pos[i]
        for kk in range(indptr[i], dpos[i]):
            k = indices[kk]
            a[kk] = a[kk] / a[dpos[k]]
            lik = a[kk]
            for jj in range(dpos[k] + 1, indptr[k + 1]):
                p = pi.get(indices[jj])
                if p is not None:
                    a[p] -= lik * a[jj]
    indptr_a = np.asarray(indptr, dtype=np.int64)
    cols = np.asarray(indices, dtype=np.int64)
    vals = np.asarray(a)
    rows = np.repeat(np.arange(n), np.diff(indptr_a))

    def take(mask):
        ip = np.concatenate(([0], np.cumsum(np.bincount(rows[mask],
                                                       minlength=n))))
        return CSRMatrix(ip, cols[mask], vals[mask], (n, n))

    u_diag = vals[cols == rows]
    return take(cols < rows), take(cols >= rows), u_diag


def transform_programs(seed: int, n_sweep: int = 4000,
                       grid: tuple = (48, 48)) -> dict:
    """The fissionable sweep and the skewable stencil, with oracles.

    Returns ``{name: (declare, check)}``: ``declare()`` builds a fresh
    program from inputs drawn from ``seed``, and ``check(report)``
    compares a run of it bit for bit against the plain recurrence.
    """
    from repro.workload import stencil_program, sweep_program

    rng = np.random.default_rng([seed, 17])
    x = rng.standard_normal(n_sweep)
    c = rng.standard_normal(n_sweep)
    h = rng.standard_normal(grid[0] * grid[1])
    s, y = sweep_oracle(x, c)
    g = stencil_oracle(h, grid[1])
    return {
        "sweep": (lambda: sweep_program(x, c),
                  lambda rep: (bitwise_equal(rep.x["s"], s)
                               and bitwise_equal(rep.x["y"], y))),
        "stencil": (lambda: stencil_program(h, grid),
                    lambda rep: bitwise_equal(rep.x, g)),
    }


def tuning_label(loop) -> str:
    """The tuner's choice for a ``strategy="auto"`` loop, as a label."""
    variant = getattr(loop.verdict, "variant_name", None)
    return (f"{loop.executor_name}/{loop.scheduler_name}"
            + (f" variant={variant}" if variant else ""))


def _median_ms(seconds) -> float:
    return 1e3 * float(np.median(seconds))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Shared shape: long-lived loops, then rounds of ops.

    Every round mixes every op kind, fresh set-ups included, so each
    metric samples the whole run: the host's speed drifts over seconds,
    and a metric measured in one burst would carry that drift.
    """

    name = "abstract"
    #: Op kind the traced run decomposes into layer self times.
    primary = "serial"

    def __init__(self, seed: int):
        self.seed = seed
        self.rec: Recorder | None = None
        self.baselines: dict[str, float] = {}
        self.labels: dict[str, str] = {}

    def prepare(self) -> None:
        """Build and warm (untimed) the loops the rounds reuse."""

    def baselines_after_run(self) -> None:
        """Baselines computed once the run's peak memory has been read,
        so that they do not count toward ``peak_rss_mb``."""

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def probe_program(self):
        """A freshly declared program of this workload, for probes."""
        raise NotImplementedError


class Figure3Steady(Workload):
    """Figure 3 loop, random ``ia``, default strategy, compiled once."""

    name = "fig3-steady"
    why = ("per-iteration replay is nearly all of an op; inspection "
           "amortised away; half the iterations conflict")

    def __init__(self, seed: int, n: int = 50_000, pool: int = 6):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 3])
        self.n = n
        self.ia = rng.integers(0, n, size=n)
        self.b = 0.5 * rng.standard_normal(n)
        self.xs = [rng.standard_normal(n) for _ in range(pool)]
        runs = [timed(figure3_oracle, x, self.b, self.ia) for x in self.xs]
        self.oracles = [out for out, _ in runs]
        self.baselines["baseline.python_ms"] = _median_ms(
            [dt for _, dt in runs])
        self.lower = figure3_as_lower(self.ia, self.b)
        self.rhs = [figure3_rhs(x, self.b, self.ia) for x in self.xs]
        self.k = 0

    def _next(self) -> int:
        self.k = (self.k + 1) % len(self.xs)
        return self.k

    def _check(self, k):
        return lambda rep: bitwise_equal(rep.x, self.oracles[k])

    def _declare(self, k: int):
        return LoopProgram.from_indirection(self.ia, x=self.xs[k], b=self.b)

    def probe_program(self):
        return self._declare(0)

    # -- set-ups ----------------------------------------------------------
    def _fresh(self, k: int):
        rt = Runtime(nproc=NPROC)
        return rt.compile(self._declare(k))()

    def _fresh_spec(self, k: int):
        rt = Runtime(nproc=NPROC)
        return rt.compile(self._declare(k), strategy="speculative")()

    def _setup_ops(self, rec):
        k = self._next()
        rec.op("setup", lambda: self._fresh(k), self._check(k))
        rep = rec.op("spec_setup", lambda: self._fresh_spec(k),
                     self._check(k))
        if rep is not None:
            rec.note("speculation", (rep.speculation, self.n))

    # -- steady ops -------------------------------------------------------
    def prepare(self):
        self._fresh(0)
        self._fresh_spec(0)
        self.rt = Runtime(nproc=NPROC)
        self.prog = self._declare(0)
        self.loop = self.rt.compile(self.prog)
        self.tri = self.rt.compile(LoopProgram.from_csr(
            self.lower, self.rhs[0], unit_diagonal=True))
        self.tri.simulate()
        self.spec = Runtime(nproc=NPROC).compile(self._declare(0),
                                                 strategy="speculative")
        for _ in range(3):
            k = self._next()
            self._serial(k)
            self._threads(k)
            self._spec(k)
        self._processes(self._next())

    def _serial(self, k):
        self.loop = self.loop.rebind(x=self.xs[k])
        t0 = perf_counter()
        rep = self.loop()
        self.rec.note("call_overhead", perf_counter() - t0 - rep.host_seconds)
        return rep

    def _threads(self, k):
        self.loop = self.loop.rebind(x=self.xs[k])
        return self.loop(backend="threads")

    def _processes(self, k):
        self.tri = self.tri.rebind(b=self.rhs[k])
        return self.tri(backend="processes")

    def _spec(self, k):
        self.spec = self.spec.rebind(x=self.xs[k])
        return self.spec()

    def round(self, rec):
        self._setup_ops(rec)
        for _ in range(3):
            k = self._next()
            rec.op("serial", lambda: self._serial(k), self._check(k))
        k = self._next()
        rec.op("threads", lambda: self._threads(k), self._check(k))
        k = self._next()
        rec.op("processes", lambda: self._processes(k), self._check(k))
        k = self._next()
        rec.op("spec", lambda: self._spec(k), self._check(k))
        rec.op("warm_compile", lambda: self.rt.compile(self.prog),
               lambda loop: loop.cache_hit)


class IluKrylov(Workload):
    """ILU(0) preconditioner applications: lower then upper solve.

    The ``processes`` and speculative ops run the lower solve alone:
    the ``processes`` backend accepts no other kernel, and speculation
    returns wrong values on the upper solve at this commit (the
    ``auto-mixed`` workload counts that defect).
    """

    name = "ilu-krylov"
    why = ("small ops over 125 narrow wavefronts: per-call, rebind and "
           "per-wavefront overheads weigh most; processes and scipy run")

    def __init__(self, seed: int, nx: int = 63, pool: int = 8):
        super().__init__(seed)
        self.l_strict, self.u, self.u_diag = five_point_ilu0(seed, nx)
        self.n = self.l_strict.nrows
        rng = np.random.default_rng([seed, 5])
        self.rs = [rng.standard_normal(self.n) for _ in range(pool)]
        self.ys, self.zs, times = [], [], []
        for r in self.rs:
            t0 = perf_counter()
            y = forward_oracle(self.l_strict, r)
            z = backward_oracle(self.u, self.u_diag, y)
            times.append(perf_counter() - t0)
            self.ys.append(y)
            self.zs.append(z)
        self.baselines["baseline.python_ms"] = _median_ms(times)
        self.k = 0

    def baselines_after_run(self) -> None:
        try:
            import scipy.sparse as sp
            from scipy.sparse.linalg import spsolve_triangular
        except ImportError:
            return
        n = self.n
        lo = sp.csr_matrix((self.l_strict.data, self.l_strict.indices,
                            self.l_strict.indptr), shape=(n, n))
        up = sp.csr_matrix((self.u.data, self.u.indices, self.u.indptr),
                           shape=(n, n))
        times = []
        for r in self.rs * 3:
            t0 = perf_counter()
            y = spsolve_triangular(lo, r, lower=True, unit_diagonal=True)
            spsolve_triangular(up, y, lower=False)
            times.append(perf_counter() - t0)
        self.baselines["baseline.scipy_ms"] = _median_ms(times)

    def _next(self) -> int:
        self.k = (self.k + 1) % len(self.rs)
        return self.k

    def _check(self, k):
        return lambda rep: bitwise_equal(rep.x, self.zs[k])

    def _check_lower(self, k):
        return lambda rep: bitwise_equal(rep.x, self.ys[k])

    def _declare(self, k: int):
        lower = LoopProgram.from_csr(self.l_strict, self.rs[k],
                                     unit_diagonal=True)
        upper = LoopProgram.from_csr(self.u, np.zeros(self.n), lower=False,
                                     diag=self.u_diag)
        return lower, upper

    def probe_program(self):
        return self._declare(0)[0]

    @staticmethod
    def _apply(lower, upper, **kw):
        upper = upper.rebind(b=lower(**kw).x)
        return upper, upper(**kw)

    # -- set-ups ----------------------------------------------------------
    def _fresh(self, k: int):
        rt = Runtime(nproc=NPROC)
        lower, upper = self._declare(k)
        return self._apply(rt.compile(lower), rt.compile(upper))[1]

    def _fresh_spec(self, k: int):
        lower = self._declare(k)[0]
        return Runtime(nproc=NPROC).compile(lower, strategy="speculative")()

    def _setup_ops(self, rec):
        k = self._next()
        rec.op("setup", lambda: self._fresh(k), self._check(k))
        rep = rec.op("spec_setup", lambda: self._fresh_spec(k),
                     self._check_lower(k))
        if rep is not None:
            rec.note("speculation", (rep.speculation, self.n))

    # -- steady ops -------------------------------------------------------
    def prepare(self):
        self._fresh(0)
        self._fresh_spec(0)
        self.rt = Runtime(nproc=NPROC)
        self.progs = self._declare(0)
        self.lower = self.rt.compile(self.progs[0])
        self.upper = self.rt.compile(self.progs[1])
        self.spec_lower = Runtime(nproc=NPROC).compile(
            self._declare(0)[0], strategy="speculative")
        for _ in range(3):
            k = self._next()
            self._serial(k)
            self._threads(k)
            self._spec(k)
            self._processes(k)

    def _serial(self, k):
        self.lower = self.lower.rebind(b=self.rs[k])
        t0 = perf_counter()
        rep = self.lower()
        self.rec.note("call_overhead",
                      perf_counter() - t0 - rep.host_seconds)
        self.upper = self.upper.rebind(b=rep.x)
        return self.upper()

    def _threads(self, k):
        self.lower = self.lower.rebind(b=self.rs[k])
        self.upper, rep = self._apply(self.lower, self.upper,
                                      backend="threads")
        return rep

    def _processes(self, k):
        self.lower = self.lower.rebind(b=self.rs[k])
        return self.lower(backend="processes")

    def _spec(self, k):
        self.spec_lower = self.spec_lower.rebind(b=self.rs[k])
        return self.spec_lower()

    def _warm(self):
        return (self.rt.compile(self.progs[0]),
                self.rt.compile(self.progs[1]))

    def round(self, rec):
        self._setup_ops(rec)
        for _ in range(3):
            k = self._next()
            rec.op("serial", lambda: self._serial(k), self._check(k))
        k = self._next()
        rec.op("threads", lambda: self._threads(k), self._check(k))
        k = self._next()
        rec.op("processes", lambda: self._processes(k),
               lambda rep: bitwise_equal(rep.x, self.ys[k]))
        k = self._next()
        rec.op("spec", lambda: self._spec(k), self._check_lower(k))
        rec.op("warm_compile", self._warm,
               lambda loops: all(lp.cache_hit for lp in loops))


class ColdChurn(Workload):
    """A stream of never-seen Figure 3 structures, each compiled cold."""

    name = "cold-churn"
    why = ("first-call cost dominates: extraction, inspection, Table 5 "
           "pricing, toposort and the default model run; speculation commits")
    primary = "setup"
    #: Executions per structure (the first one closes its set-up).
    executions = 4

    def __init__(self, seed: int, n: int = 20_000):
        super().__init__(seed)
        self.n = n
        self.rng = np.random.default_rng([seed, 7])
        self.b = 0.5 * self.rng.standard_normal(n)
        self.xs = [self.rng.standard_normal(n)
                   for _ in range(self.executions)]
        self.python_seconds: list[float] = []

    def _structure(self):
        ia = sparse_update(self.rng, self.n)
        runs = [timed(figure3_oracle, x, self.b, ia) for x in self.xs]
        self.python_seconds.extend(dt for _, dt in runs)
        self.baselines["baseline.python_ms"] = _median_ms(
            self.python_seconds)
        return ia, [out for out, _ in runs]

    def probe_program(self):
        ia = sparse_update(np.random.default_rng([self.seed, 8]), self.n)
        return LoopProgram.from_indirection(ia, x=self.xs[0], b=self.b)

    def prepare(self):
        self.rt = Runtime(nproc=NPROC)
        self._structure_ops(Recorder())

    def round(self, rec):
        self._structure_ops(rec)

    def _structure_ops(self, rec):
        ia, oracles = self._structure()
        xs, b, rt = self.xs, self.b, self.rt

        def check(k):
            return lambda rep: bitwise_equal(rep.x, oracles[k])

        prog = loop = spec = None

        def setup():
            nonlocal prog, loop
            prog = LoopProgram.from_indirection(ia, x=xs[0], b=b)
            loop = rt.compile(prog)
            return loop()

        if rec.op("setup", setup, check(0)) is None:
            return
        rec.op("warm_compile", lambda: rt.compile(prog),
               lambda lp: lp.cache_hit)

        def serial(k):
            nonlocal loop
            loop = loop.rebind(x=xs[k])
            t0 = perf_counter()
            rep = loop()
            rec.note("call_overhead", perf_counter() - t0 - rep.host_seconds)
            return rep

        for k in range(1, self.executions):
            rec.op("serial", lambda: serial(k), check(k))

        def threads():
            nonlocal loop
            loop = loop.rebind(x=xs[1])
            return loop(backend="threads")

        rec.op("threads", threads, check(1))
        tri = rt.compile(LoopProgram.from_csr(
            figure3_as_lower(ia, b), figure3_rhs(xs[0], b, ia),
            unit_diagonal=True))
        tri.simulate()
        rhs = figure3_rhs(xs[2], b, ia)
        rec.op("processes",
               lambda: tri.rebind(b=rhs)(backend="processes"), check(2))

        def spec_setup():
            nonlocal spec
            spec = Runtime(nproc=NPROC).compile(
                LoopProgram.from_indirection(ia, x=xs[0], b=b),
                strategy="speculative")
            return spec()

        rep = rec.op("spec_setup", spec_setup, check(0))
        if rep is None:
            return
        rec.note("speculation", (rep.speculation, self.n))

        def spec_op(k):
            nonlocal spec
            spec = spec.rebind(x=xs[k])
            return spec()

        for k in range(1, self.executions):
            rec.op("spec", lambda: spec_op(k), check(k))


class AutoMixed(Workload):
    """Three fresh programs under ``strategy="auto"``, then rebinds.

    The ILU lower solve is tuned to ``preschedule``, whose batched sums
    differ from the stored-order oracle in the last bits, and the
    speculative ops apply the whole ILU preconditioner, whose upper
    solve speculation gets wrong on its first call.  Those ops count as
    failed, as they are.
    """

    name = "auto-mixed"
    why = ("the only workload running repro.tuning and "
           "repro.program.transform; the variant search is most of set-up")
    primary = "setup"
    expected_executions = 8

    def __init__(self, seed: int, n_sweep: int = 4000,
                 grid: tuple = (48, 48), pool: int = 4):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 13])
        self.grid = grid
        self.c = rng.standard_normal(n_sweep)
        self.sweep_x = [rng.standard_normal(n_sweep) for _ in range(pool)]
        self.stencil_h = [rng.standard_normal(grid[0] * grid[1])
                          for _ in range(pool)]
        self.l_strict, self.u, self.u_diag = five_point_ilu0(seed)
        self.n = self.l_strict.nrows
        self.ilu_r = [rng.standard_normal(self.n) for _ in range(pool)]
        times = []
        self.sweep_ref, self.stencil_ref, self.ilu_ref = [], [], []
        self.ilu_z = []
        for k in range(pool):
            t0 = perf_counter()
            self.sweep_ref.append(sweep_oracle(self.sweep_x[k], self.c))
            self.stencil_ref.append(stencil_oracle(self.stencil_h[k],
                                                   grid[1]))
            self.ilu_ref.append(forward_oracle(self.l_strict, self.ilu_r[k]))
            times.append(perf_counter() - t0)
            self.ilu_z.append(backward_oracle(self.u, self.u_diag,
                                              self.ilu_ref[k]))
        self.baselines["baseline.python_ms"] = _median_ms(times)
        self.k = 0
        self.turn = 0

    def _next(self) -> int:
        self.k = (self.k + 1) % len(self.sweep_x)
        return self.k

    # Per program: declare(k), rebind kwargs(k), check(k).
    def _programs(self):
        from repro.workload import stencil_program, sweep_program

        def sweep_ok(k):
            s, y = self.sweep_ref[k]
            return lambda rep: (bitwise_equal(rep.x["s"], s)
                                and bitwise_equal(rep.x["y"], y))

        return {
            "sweep": (lambda k: sweep_program(self.sweep_x[k], self.c),
                      lambda k: {"x": self.sweep_x[k]}, sweep_ok),
            "stencil": (
                lambda k: stencil_program(self.stencil_h[k], self.grid),
                lambda k: {"h": self.stencil_h[k]},
                lambda k: lambda rep: bitwise_equal(rep.x,
                                                    self.stencil_ref[k])),
            "ilu-lower": (
                lambda k: LoopProgram.from_csr(self.l_strict, self.ilu_r[k],
                                               unit_diagonal=True),
                lambda k: {"b": self.ilu_r[k]},
                lambda k: lambda rep: bitwise_equal(rep.x,
                                                    self.ilu_ref[k])),
        }

    def probe_program(self):
        return self._programs()["sweep"][0](0)

    def _fresh(self, name, k):
        declare = self._programs()[name][0]
        rt = Runtime(nproc=NPROC,
                     expected_executions=self.expected_executions)
        loop = rt.compile(declare(k), strategy="auto")
        rep = loop()
        self.fresh = rt, loop
        return rep

    def _spec_pair(self, k):
        rt = Runtime(nproc=NPROC)
        lower = LoopProgram.from_csr(self.l_strict, self.ilu_r[k],
                                     unit_diagonal=True)
        upper = LoopProgram.from_csr(self.u, np.zeros(self.n), lower=False,
                                     diag=self.u_diag)
        return [rt.compile(lower, strategy="speculative"),
                rt.compile(upper, strategy="speculative")]

    def _spec_apply(self, pair, k):
        pair[0] = pair[0].rebind(b=self.ilu_r[k])
        self.spec_lower_report = pair[0]()
        pair[1] = pair[1].rebind(b=self.spec_lower_report.x)
        return pair[1]()

    def _check_z(self, k):
        return lambda rep: bitwise_equal(rep.x, self.ilu_z[k])

    def _fresh_spec(self, k):
        return self._spec_apply(self._spec_pair(k), k)

    def _setup_ops(self, rec, k):
        # One program's cold set-up per round, in rotation.
        programs = self._programs()
        name = list(programs)[self.turn % len(programs)]
        self.turn += 1
        rec.op("setup", lambda: self._fresh(name, k), programs[name][2](k))
        rep = rec.op("spec_setup", lambda: self._fresh_spec(k),
                     self._check_z(k))
        if rep is not None:
            rec.note("speculation",
                     (self.spec_lower_report.speculation, self.n))

    def prepare(self):
        self._fresh_spec(0)
        self.loops = {}
        for name in self._programs():
            self._fresh(name, 0)
            rt, loop = self.fresh
            self.loops[name] = [rt, loop, self._programs()[name][0](0)]
            self.labels[f"tuning.choice.{name}"] = tuning_label(loop)
        ilu = self.loops["ilu-lower"][2]
        self.rt = self.loops["ilu-lower"][0]
        self.spec = self._spec_pair(0)
        self.plain = self.rt.compile(ilu)
        for _ in range(2):
            self.round(Recorder())

    def _serial(self, name, k):
        entry = self.loops[name]
        entry[1] = entry[1].rebind(**self._programs()[name][1](k))
        t0 = perf_counter()
        rep = entry[1]()
        self.rec.note("call_overhead", perf_counter() - t0 - rep.host_seconds)
        return rep

    def round(self, rec):
        k = self._next()
        self._setup_ops(rec, k)
        programs = self._programs()
        for name, (_, _, check) in programs.items():
            rec.op("serial", lambda: self._serial(name, k), check(k))
        ilu_check = programs["ilu-lower"][2](k)
        r = self.ilu_r[k]

        def on(backend):
            self.plain = self.plain.rebind(b=r)
            return self.plain(backend=backend)

        rec.op("threads", lambda: on("threads"), ilu_check)
        rec.op("processes", lambda: on("processes"), ilu_check)

        rec.op("spec", lambda: self._spec_apply(self.spec, k),
               self._check_z(k))
        for name, entry in self.loops.items():
            rt, _, prog = entry
            rec.op("warm_compile",
                   lambda: rt.compile(prog, strategy="auto"),
                   lambda lp: lp.cache_hit)


WORKLOADS = {w.name: w for w in (Figure3Steady, IluKrylov, ColdChurn,
                                 AutoMixed)}
