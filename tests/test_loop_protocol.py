"""Loop-protocol conformance: every compile route behaves the same.

One parametrized matrix over

* the compile route — raw dependences (an indirection array, a lower
  CSR matrix, a ``DependenceGraph`` with an explicit kernel), a
  ``LoopProgram`` (``from_indirection``, ``from_csr`` lower and
  upper), ``strategy="speculative"`` on a low-conflict structure (it
  commits) and on high-conflict ones (the guard falls back), and the
  legacy ``doconsider`` / ``DoconsiderLoop`` entry points;
* the executor — ``self``, ``preschedule``, ``doacross``;
* the backend — ``serial``, ``threads``, ``sim``, ``processes``;
* the rebind — new data on the same structure, or a new structure.

Each case compiles a loop, runs it, rebinds it and runs it again.
Every numeric result must equal a plain-Python oracle *bitwise*, and
the report fields every loop shares (``executor``, ``backend``,
``cache_hit``, ``speculation`` set exactly on speculative runs, the
loop's ``rebinds``) must say what happened.  Combinations a backend
refuses (threads under speculation, processes on anything but the
lower triangular solve) must refuse with a typed ``ValidationError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DoconsiderLoop, LoopProgram, Runtime, doconsider
from repro.core.dependence import DependenceGraph
from repro.core.executor import (
    SimpleLoopKernel,
    TriangularSolveKernel,
    UpperTriangularSolveKernel,
)
from repro.errors import ValidationError
from repro.krylov.ilu import ILUFactorization, numeric_ilu
from repro.mesh.problems import get_problem

NPROC = 2
N_FIG3 = 48

EXECUTORS = ("self", "preschedule", "doacross")
BACKENDS = ("serial", "threads", "sim", "processes")
REBINDS = ("data", "structure")


# ----------------------------------------------------------------------
# Plain-Python oracles (no numpy arithmetic, stored-entry order)
# ----------------------------------------------------------------------

def figure3_oracle(x0, b, ia):
    xold = x0.tolist()
    x = list(xold)
    bl, il = b.tolist(), ia.tolist()
    for i in range(len(x)):
        j = il[i]
        x[i] = xold[i] + bl[i] * (xold[j] if j >= i else x[j])
    return np.array(x)


def forward_oracle(l, r):
    ip, ix, dv = l.indptr.tolist(), l.indices.tolist(), l.data.tolist()
    rl = r.tolist()
    x = [0.0] * len(rl)
    for i in range(len(rl)):
        acc = rl[i]
        for k in range(ip[i], ip[i + 1]):
            if ix[k] < i:
                acc -= dv[k] * x[ix[k]]
        x[i] = acc / 1.0
    return np.array(x)


def backward_oracle(u, diag, r):
    ip, ix, dv = u.indptr.tolist(), u.indices.tolist(), u.data.tolist()
    dl, rl = diag.tolist(), r.tolist()
    x = [0.0] * len(rl)
    for i in range(len(rl) - 1, -1, -1):
        acc = rl[i]
        for k in range(ip[i], ip[i + 1]):
            if ix[k] > i:
                acc -= dv[k] * x[ix[k]]
        x[i] = acc / dl[i]
    return np.array(x)


# ----------------------------------------------------------------------
# Problem families: two structures × two data sets each
# ----------------------------------------------------------------------

class Figure3:
    """``x[i] = x[i] + b[i] * x[ia[i]]`` over two ``ia`` structures."""

    processes_ok = False

    def __init__(self, structures, rng):
        self.ia = structures
        self.data = [(rng.standard_normal(N_FIG3), rng.standard_normal(N_FIG3))
                     for _ in range(2)]

    def deps(self, s):
        return self.ia[s]

    def kernel(self, s, d):
        return SimpleLoopKernel(*self.data[d], self.ia[s])

    def program(self, s, d):
        x, b = self.data[d]
        return LoopProgram.from_indirection(self.ia[s], x=x, b=b)

    def oracle(self, s, d):
        return figure3_oracle(*self.data[d], self.ia[s])

    def data_kwargs(self, s, d):
        x, b = self.data[d]
        return {"x": x, "b": b}

    def structure_kwargs(self, s):
        return {"ia": self.ia[s]}


class Triangular:
    """ILU(0) factor solves over two mesh structures (lower or upper)."""

    processes_ok = False

    def __init__(self, factors, rng):
        self.factors = factors
        self.rhs = [[rng.standard_normal(m.nrows) for _ in range(2)]
                    for m, _ in factors]

    def data_kwargs(self, s, d):
        return {"b": self.rhs[s][d]}

    def structure_kwargs(self, s):
        return None  # from_csr bakes the sparsity in: recompile instead


class Lower(Triangular):
    processes_ok = True

    def deps(self, s):
        return self.factors[s][0]

    def kernel(self, s, d):
        return TriangularSolveKernel(self.factors[s][0], self.rhs[s][d],
                                     unit_diagonal=True)

    def program(self, s, d):
        return LoopProgram.from_csr(self.factors[s][0], self.rhs[s][d],
                                    unit_diagonal=True)

    def oracle(self, s, d):
        return forward_oracle(self.factors[s][0], self.rhs[s][d])


class Upper(Triangular):
    def deps(self, s):
        return DependenceGraph.from_upper_csr(self.factors[s][0])

    def kernel(self, s, d):
        u, diag = self.factors[s]
        return UpperTriangularSolveKernel(u, self.rhs[s][d], diag=diag)

    def program(self, s, d):
        u, diag = self.factors[s]
        return LoopProgram.from_csr(u, self.rhs[s][d], lower=False,
                                    diag=diag)

    def oracle(self, s, d):
        u, diag = self.factors[s]
        return backward_oracle(u, diag, self.rhs[s][d])


@pytest.fixture(scope="module")
def families():
    rng = np.random.default_rng(2024)
    ilu = [ILUFactorization.from_lu(numeric_ilu(get_problem(name, scale=sc).a))
           for name, sc in (("5-PT", 0.2), ("9-PT", 0.15))]
    idx = np.arange(N_FIG3)
    return {
        "fig3": Figure3([rng.integers(0, N_FIG3, N_FIG3),
                         rng.integers(0, N_FIG3, N_FIG3)], rng),
        # Self and forward references only: speculation commits.
        "fig3-low": Figure3([idx, np.minimum(idx + 2, N_FIG3 - 1)], rng),
        # Backward chains: nearly every iteration conflicts.
        "fig3-chain": Figure3([np.maximum(idx - 1, 0),
                               np.maximum(idx - 2, 0)], rng),
        "lower": Lower([(f.l_strict, None) for f in ilu], rng),
        "upper": Upper([(f.u, f.u_diag) for f in ilu], rng),
    }


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------

#: name -> (family, form, speculative)
ROUTES = {
    "raw-ia": ("fig3", "raw", False),
    "raw-csr": ("lower", "raw", False),
    "raw-graph": ("upper", "raw", False),
    "prog-ia": ("fig3", "program", False),
    "prog-lower": ("lower", "program", False),
    "prog-upper": ("upper", "program", False),
    "doconsider-loop": ("fig3", "doconsider-loop", False),
    "doconsider": ("fig3", "doconsider", False),
    "spec-low": ("fig3-low", "program", True),
    "spec-low-raw": ("fig3-low", "raw", True),
    "spec-high": ("fig3-chain", "program", True),
    "spec-high-upper": ("upper", "program", True),
}


def _cases():
    for route, (_, form, spec) in ROUTES.items():
        executors = ("-",) if spec else EXECUTORS
        # The doconsider entry points run on their serial default backend.
        backends = ("serial",) if form.startswith("doconsider") else BACKENDS
        for ex in executors:
            for be in backends:
                for rb in REBINDS:
                    yield pytest.param(route, ex, be, rb,
                                       id=f"{route}-{ex}-{be}-{rb}")


class Case:
    """One route × executor × backend, tracking what a call must report."""

    def __init__(self, route, executor, backend, families):
        family, self.form, self.spec = ROUTES[route]
        self.fam = families[family]
        self.executor = executor
        self.backend = backend
        self.rt = Runtime(nproc=NPROC)
        #: Whether the speculation guard has demoted the loop.
        self.demoted = False

    def compile(self, s, d):
        if self.form == "program":
            return self.rt.compile(self.fam.program(s, d), **self.options())
        if self.form == "raw":
            return self.rt.compile(self.fam.deps(s), **self.options())
        assert self.form == "doconsider-loop"
        return DoconsiderLoop(self.fam.deps(s), NPROC,
                              executor=self.executor)

    def options(self):
        if self.spec:
            return {"strategy": "speculative"}
        return {"executor": self.executor}

    def refused(self) -> bool:
        speculating = self.spec and not self.demoted
        if self.backend == "threads":
            return speculating
        if self.backend == "processes":
            return speculating or not self.fam.processes_ok
        return False

    def run(self, loop, s, d, *, cache_hit):
        """Execute once on the case's backend and check everything."""
        if self.form == "doconsider":
            rep = doconsider(self.fam.kernel(s, d), deps=self.fam.deps(s),
                             nproc=NPROC, executor=self.executor)
            assert np.array_equal(rep.x, self.fam.oracle(s, d))
            assert rep.sim is not None and rep.inspection is not None
            return
        if self.form == "doconsider-loop":
            rep = loop.run(self.fam.kernel(s, d))
            assert np.array_equal(rep.x, self.fam.oracle(s, d))
            assert rep.sim is not None and rep.inspection is not None
            return
        kernel = self.fam.kernel(s, d) if self.form == "raw" else None
        if self.refused():
            with pytest.raises(ValidationError):
                loop(kernel, backend=self.backend)
            return
        speculating = self.spec and not self.demoted
        rep = loop(kernel, backend=self.backend)
        if self.backend == "sim":
            assert rep.x is None
        else:
            assert np.array_equal(rep.x, self.fam.oracle(s, d))
        assert rep.sim is not None
        assert rep.backend == self.backend
        assert rep.executor == ("speculative" if speculating
                                else "self" if self.spec else self.executor)
        ran_speculatively = speculating and self.backend == "serial"
        assert (rep.speculation is not None) == ran_speculatively
        if ran_speculatively:
            self.demoted = rep.speculation.fell_back
        if not self.demoted:
            assert rep.cache_hit == cache_hit


@pytest.mark.parametrize("route,executor,backend,rebind", list(_cases()))
def test_loop_protocol(families, route, executor, backend, rebind):
    case = Case(route, executor, backend, families)
    fam = case.fam
    if case.form == "doconsider":
        case.run(None, 0, 0, cache_hit=False)
        s, d = (0, 1) if rebind == "data" else (1, 0)
        case.run(None, s, d, cache_hit=False)
        return

    loop = case.compile(0, 0)
    case.run(loop, 0, 0, cache_hit=False)
    if case.spec and case.backend == "serial":
        # The guard decides on the first speculative execution.
        assert case.demoted == (ROUTES[route][0] != "fig3-low")

    if rebind == "data":
        s, d = 0, 1
        if case.form == "program":
            demoted = case.demoted
            rebound = loop.rebind(**fam.data_kwargs(s, d))
            assert rebound is loop
            if not demoted:
                assert loop.rebinds == 1
            hit = False
        elif case.form == "raw":
            # Same structure, fresh compile: the schedule is reused
            # (speculation never inspects, so never hits).
            loop = case.compile(s, d)
            hit = not case.spec
            assert loop.cache_hit == hit
        else:
            hit = False
        case.run(loop, s, d, cache_hit=hit)
        return

    s, d = 1, 0
    kwargs = fam.structure_kwargs(s)
    if case.form == "program" and kwargs is not None:
        rebound = loop.rebind(**kwargs)
        if case.demoted:
            # A demoted loop forwards the rebind to its classic loop.
            assert rebound is loop
        else:
            assert rebound is not loop
            assert rebound.rebinds == 0
            assert not rebound.cache_hit
        loop = rebound
    else:
        loop = case.compile(s, d)
        case.demoted = False
        assert not getattr(loop, "cache_hit", False)
    case.run(loop, s, d, cache_hit=False)
