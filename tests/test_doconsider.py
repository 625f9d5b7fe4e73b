"""Unit tests for the doconsider public API."""

import numpy as np
import pytest

from repro.core.doconsider import DoconsiderLoop, doconsider
from repro.core.executor import SerialExecutor, SimpleLoopKernel
from repro.errors import ValidationError


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(51)
    n = 100
    x0 = rng.standard_normal(n)
    b = rng.standard_normal(n)
    ia = rng.integers(0, n, size=n)
    oracle = SerialExecutor().run(SimpleLoopKernel(x0, b, ia))
    return x0, b, ia, oracle


class TestOneShot:
    @pytest.mark.parametrize("executor", ["self", "preschedule", "doacross"])
    @pytest.mark.parametrize("scheduler", ["local", "global"])
    def test_all_configs_match_oracle(self, case, executor, scheduler):
        x0, b, ia, oracle = case
        out = doconsider(
            SimpleLoopKernel(x0, b, ia), deps=ia, nproc=4,
            executor=executor, scheduler=scheduler,
        )
        np.testing.assert_allclose(out.x, oracle)
        assert 0.0 < out.sim.efficiency <= 1.0

    def test_body_form_requires_n(self, case):
        x0, b, ia, _ = case
        with pytest.raises(ValidationError):
            doconsider(lambda i: None, deps=ia, nproc=2)

    def test_body_form(self, case):
        x0, b, ia, oracle = case
        x = x0.copy()
        xold = x0.copy()

        def body(i):
            j = ia[i]
            src = xold[j] if j >= i else x[j]
            x[i] = xold[i] + b[i] * src

        out = doconsider(body, deps=ia, nproc=3, n=len(x0))
        np.testing.assert_allclose(x, oracle)
        assert out.sim.nproc == 3

    def test_bad_executor(self, case):
        x0, b, ia, _ = case
        with pytest.raises(ValidationError):
            doconsider(SimpleLoopKernel(x0, b, ia), deps=ia, nproc=2,
                       executor="nope")


class TestReusableLoop:
    def test_amortised_inspection(self, case):
        x0, b, ia, oracle = case
        loop = DoconsiderLoop(ia, nproc=4, executor="self", scheduler="global")
        for _ in range(3):
            res = loop.run(SimpleLoopKernel(x0, b, ia))
            np.testing.assert_allclose(res.x, oracle)
        # Inspection happened once; simulate-only also works.
        sim = loop.simulate()
        assert sim.total_time > 0

    def test_threaded_run(self, case):
        x0, b, ia, oracle = case
        loop = DoconsiderLoop(ia, nproc=3, executor="self")
        np.testing.assert_allclose(
            loop(SimpleLoopKernel(x0, b, ia), backend="threads").x, oracle,
        )

    def test_schedule_and_dep_exposed(self, case):
        _, _, ia, _ = case
        loop = DoconsiderLoop(ia, nproc=4)
        assert loop.schedule.nproc == 4
        assert loop.dep.n == len(ia)

    def test_inspection_costs_reported(self, case):
        _, _, ia, _ = case
        loop = DoconsiderLoop(ia, nproc=4, scheduler="global")
        costs = loop.inspection.costs
        assert costs.total_global >= costs.par_sort

    def test_doacross_ignores_scheduler(self, case):
        x0, b, ia, oracle = case
        loop = DoconsiderLoop(ia, nproc=4, executor="doacross", scheduler="global")
        assert loop.inspection.strategy == "identity"
        res = loop.run(SimpleLoopKernel(x0, b, ia))
        np.testing.assert_allclose(res.x, oracle)

    def test_triangular_solve_via_csr_deps(self, mesh_lower):
        from repro.core.executor import TriangularSolveKernel
        from repro.sparse.triangular import LevelScheduledSolver

        l, d = mesh_lower
        b = np.linspace(0.5, 1.5, l.nrows)
        expected = LevelScheduledSolver(l, lower=True, diag=d).solve(b)
        loop = DoconsiderLoop(l, nproc=4, executor="self", scheduler="global")
        res = loop.run(TriangularSolveKernel(l, b, diag=d))
        np.testing.assert_allclose(res.x, expected, rtol=1e-10)
