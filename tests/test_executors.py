"""Executor correctness: every engine must reproduce the serial oracle."""

import numpy as np
import pytest

from repro.core.doacross import DoacrossExecutor
from repro.core.executor import (
    GenericLoopKernel,
    SerialExecutor,
    SimpleLoopKernel,
    TriangularSolveKernel,
)
from repro.core.inspector import Inspector
from repro.core.prescheduled import PreScheduledExecutor
from repro.core.self_executing import SelfExecutingExecutor
from repro.core.schedule import global_schedule, local_schedule
from repro.core.partition import wrapped_partition
from repro.core.wavefront import compute_wavefronts
from repro.errors import ScheduleError, ValidationError


@pytest.fixture(scope="module")
def simple_case():
    rng = np.random.default_rng(31)
    n = 150
    x0 = rng.standard_normal(n)
    b = rng.standard_normal(n)
    ia = rng.integers(0, n, size=n)
    kernel = SimpleLoopKernel(x0, b, ia)
    dep = kernel.dependence_graph()
    oracle = SerialExecutor(dep).run(SimpleLoopKernel(x0, b, ia))
    return x0, b, ia, dep, oracle


def fresh_kernel(case):
    x0, b, ia, _, _ = case
    return SimpleLoopKernel(x0, b, ia)


class TestSimpleLoopKernel:
    def test_forward_reference_reads_old_value(self):
        # x[0] reads x[2] (forward): must use the ORIGINAL x[2].
        x0 = np.array([1.0, 1.0, 1.0])
        b = np.ones(3)
        ia = np.array([2, 0, 1])
        k = SimpleLoopKernel(x0, b, ia)
        out = SerialExecutor().run(k)
        # i=0: x0=1+1*old(x2)=2; i=1: 1+new(x0)=3; i=2: 1+new(x1)=4
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0])

    def test_matches_naive_python_loop(self, simple_case):
        x0, b, ia, _, oracle = simple_case
        x = x0.copy()
        for i in range(len(x)):
            x[i] = x[i] + b[i] * x[ia[i]]
        np.testing.assert_allclose(oracle, x)

    def test_batch_matches_scalar(self, simple_case):
        x0, b, ia, dep, _ = simple_case
        wf = compute_wavefronts(dep)
        k1 = SimpleLoopKernel(x0, b, ia)
        k1.start()
        k2 = SimpleLoopKernel(x0, b, ia)
        k2.start()
        from repro.core.wavefront import wavefront_members
        for members in wavefront_members(wf):
            k1.execute_batch(members)
            for i in members:
                k2.execute_index(int(i))
        np.testing.assert_allclose(k1.result(), k2.result())

    def test_validation(self):
        with pytest.raises(ValidationError):
            SimpleLoopKernel(np.ones(3), np.ones(2), np.zeros(3, dtype=int))
        with pytest.raises(ValidationError):
            SimpleLoopKernel(np.ones(3), np.ones(3), np.array([0, 1, 9]))


class TestSelfExecuting:
    @pytest.mark.parametrize("nproc", [1, 2, 4, 7])
    def test_global_schedule(self, simple_case, nproc):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        ex = SelfExecutingExecutor(global_schedule(wf, nproc), dep)
        np.testing.assert_allclose(ex.run(fresh_kernel(simple_case)), oracle)

    def test_local_schedule(self, simple_case):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        sched = local_schedule(wf, wrapped_partition(dep.n, 3), 3)
        ex = SelfExecutingExecutor(sched, dep)
        np.testing.assert_allclose(ex.run(fresh_kernel(simple_case)), oracle)

    def test_threaded(self, simple_case):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        ex = SelfExecutingExecutor(global_schedule(wf, 4), dep)
        np.testing.assert_allclose(
            ex.run_threaded(fresh_kernel(simple_case)), oracle,
        )

    def test_simulate_consistent_with_run(self, simple_case):
        _, _, _, dep, _ = simple_case
        wf = compute_wavefronts(dep)
        ex = SelfExecutingExecutor(global_schedule(wf, 4), dep)
        sim = ex.simulate()
        assert sim.mode == "self"
        assert sim.nproc == 4
        assert 0.0 < sim.efficiency <= 1.0


class TestPreScheduled:
    @pytest.mark.parametrize("nproc", [1, 3, 5])
    def test_global_schedule(self, simple_case, nproc):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        ex = PreScheduledExecutor(global_schedule(wf, nproc), dep)
        np.testing.assert_allclose(ex.run(fresh_kernel(simple_case)), oracle)

    def test_threaded(self, simple_case):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        ex = PreScheduledExecutor(global_schedule(wf, 3), dep)
        np.testing.assert_allclose(
            ex.run_threaded(fresh_kernel(simple_case)), oracle,
        )

    def test_rejects_identity_schedule(self, simple_case):
        """Identity order is not wavefront-sorted -> phases() fails."""
        _, _, _, dep, _ = simple_case
        from repro.core.schedule import identity_schedule
        wf = compute_wavefronts(dep)
        sched = identity_schedule(wf, 2)
        if np.any(np.diff(wf[sched.local_order[0]]) < 0):
            with pytest.raises(ScheduleError):
                PreScheduledExecutor(sched, dep)


class TestDoacross:
    def test_matches_oracle(self, simple_case):
        _, _, _, dep, oracle = simple_case
        ex = DoacrossExecutor(dep, 4)
        np.testing.assert_allclose(ex.run(fresh_kernel(simple_case)), oracle)

    def test_threaded(self, simple_case):
        _, _, _, dep, oracle = simple_case
        ex = DoacrossExecutor(dep, 3)
        np.testing.assert_allclose(
            ex.run_threaded(fresh_kernel(simple_case)), oracle,
        )

    def test_no_sched_access_overhead(self, simple_case):
        _, _, _, dep, _ = simple_case
        sim = DoacrossExecutor(dep, 4).simulate()
        assert sim.sched_time == 0.0

    def test_is_self_executing_over_the_identity_schedule(self, simple_case):
        """Doacross keeps only its constructor and original order; the
        engines are the self-executing executor's."""
        _, _, _, dep, _ = simple_case
        ex = DoacrossExecutor(dep, 4)
        assert isinstance(ex, SelfExecutingExecutor)
        assert not {"run", "simulate", "run_threaded"} & set(vars(DoacrossExecutor))
        np.testing.assert_array_equal(ex.execution_order(), np.arange(dep.n))
        assert ex.simulate().mode == "doacross"


class TestTriangularKernel:
    def test_all_executors_match_levelsolver(self, mesh_lower):
        from repro.core.dependence import DependenceGraph
        from repro.sparse.triangular import LevelScheduledSolver

        l, d = mesh_lower
        b = np.linspace(-1.0, 1.0, l.nrows)
        expected = LevelScheduledSolver(l, lower=True, diag=d).solve(b)
        dep = DependenceGraph.from_lower_csr(l)
        wf = compute_wavefronts(dep)
        for make in (
            lambda: SelfExecutingExecutor(global_schedule(wf, 4), dep),
            lambda: PreScheduledExecutor(global_schedule(wf, 4), dep),
            lambda: DoacrossExecutor(dep, 4),
        ):
            kernel = TriangularSolveKernel(l, b, diag=d)
            out = make().run(kernel)
            np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_zero_diag_rejected(self, mesh_lower):
        l, _ = mesh_lower
        with pytest.raises(ValidationError):
            TriangularSolveKernel(l, np.zeros(l.nrows), diag=np.zeros(l.nrows))

    def test_batch_keeps_stored_order_on_ilu_factors(self):
        # Over every wavefront of the 5-PT ILU(0) factors, the batched
        # path must equal the one-row path bitwise (stored-order sums,
        # not a reordered segment sum).
        from repro.core.dependence import DependenceGraph
        from repro.core.executor import UpperTriangularSolveKernel
        from repro.krylov.ilu import ILUFactorization, numeric_ilu
        from repro.mesh.problems import get_problem

        f = ILUFactorization.from_lu(
            numeric_ilu(get_problem("5-PT", scale=0.2).a))
        b = np.random.default_rng(3).standard_normal(f.u.nrows)
        for make, dep in (
            (lambda: TriangularSolveKernel(f.l_strict, b,
                                           unit_diagonal=True),
             DependenceGraph.from_lower_csr(f.l_strict)),
            (lambda: UpperTriangularSolveKernel(f.u, b, diag=f.u_diag),
             DependenceGraph.from_upper_csr(f.u)),
        ):
            batched, single = make(), make()
            batched.start()
            single.start()
            wf = compute_wavefronts(dep)
            for w in range(int(wf.max()) + 1):
                members = np.flatnonzero(wf == w)
                batched.execute_batch(members)
                for i in members:
                    single.execute_index(int(i))
                assert np.array_equal(batched.result(), single.result())


class TestGenericKernel:
    def test_body_and_setup(self):
        acc = []
        k = GenericLoopKernel(5, lambda i: acc.append(i), setup=lambda: acc.clear())
        SerialExecutor().run(k)
        assert acc == [0, 1, 2, 3, 4]

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            GenericLoopKernel(-1, lambda i: None)


class TestSerialExecutor:
    def test_rejects_forward_dependences(self):
        from repro.core.dependence import DependenceGraph
        dep = DependenceGraph.from_edges([(0, 2)], 3)
        k = GenericLoopKernel(3, lambda i: None)
        with pytest.raises(ScheduleError):
            SerialExecutor(dep).run(k)
