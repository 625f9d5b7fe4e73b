"""Unit tests for the automated source-to-source transformer."""

import numpy as np
import pytest

from repro.core.transform import parallelize, parallelize_source
from repro.errors import TransformError

SIMPLE_SRC = """
def simple(x, b, ia, n):
    for i in range(n):
        x[i] = x[i] + b[i] * x[ia[i]]
"""

NESTED_SRC = """
def nested(y, f, g, n, m):
    for i in range(n):
        temp = f[i]
        for j in range(m):
            y[i] = y[i] + temp * y[g[i, j]]
"""

CSR_SRC = """
def trisolve(y, rhs, a, ija, n):
    for i in range(n):
        y[i] = rhs[i]
        for k in range(ija[i], ija[i + 1]):
            y[i] = y[i] - a[k] * y[ija[k]]
"""


@pytest.fixture(scope="module")
def simple_loop():
    return parallelize_source(SIMPLE_SRC)


@pytest.fixture(scope="module")
def simple_args():
    return _simple_args()


class TestAnalysis:
    def test_metadata(self, simple_loop):
        assert simple_loop.written_array == "x"
        assert simple_loop.info.loop_var == "i"
        assert simple_loop.info.params == ["x", "b", "ia", "n"]

    def test_generated_sources_are_valid_python(self, simple_loop):
        import ast
        for src in (
            simple_loop.inspector_source,
            simple_loop.wavefront_source,
            simple_loop.self_executor_source,
            simple_loop.prescheduled_executor_source,
        ):
            ast.parse(src)

    def test_self_executor_has_figure4_shape(self, simple_loop):
        src = simple_loop.self_executor_source
        assert "isched" in src
        assert "__wait__" in src
        assert "__ready__[isched] = 1" in src

    def test_prescheduled_has_newphase(self, simple_loop):
        src = simple_loop.prescheduled_executor_source
        assert "__sync__()" in src
        assert "-1" in src  # NEWPHASE marker


class TestRejections:
    def test_no_loop(self):
        with pytest.raises(TransformError):
            parallelize_source("def f(x):\n    return x\n")

    def test_no_function(self):
        with pytest.raises(TransformError):
            parallelize_source("x = 1\n")

    def test_two_written_arrays(self):
        with pytest.raises(TransformError):
            parallelize_source(
                "def f(x, y, n):\n"
                "    for i in range(n):\n"
                "        x[i] = 1.0\n"
                "        y[i] = 2.0\n"
            )

    def test_write_not_at_loop_index(self):
        with pytest.raises(TransformError):
            parallelize_source(
                "def f(x, ia, n):\n"
                "    for i in range(n):\n"
                "        x[ia[i]] = 1.0\n"
            )

    def test_non_range_loop(self):
        with pytest.raises(TransformError):
            parallelize_source(
                "def f(x, idx):\n"
                "    for i in idx:\n"
                "        x[i] = 1.0\n"
            )

    def test_two_level_nesting(self):
        with pytest.raises(TransformError):
            parallelize_source(
                "def f(x, n):\n"
                "    for i in range(n):\n"
                "        for j in range(2):\n"
                "            for k in range(2):\n"
                "                x[i] = x[i] + 1\n"
            )

    def test_two_arg_outer_range(self):
        with pytest.raises(TransformError):
            parallelize_source(
                "def f(x, n):\n"
                "    for i in range(1, n):\n"
                "        x[i] = x[i] + 1\n"
            )

    def test_dodynamic_detected(self):
        """Index expressions reading the written array are rejected —
        the data dependences would only become manifest mid-run."""
        with pytest.raises(TransformError):
            parallelize_source(
                "def f(x, ia, n):\n"
                "    for i in range(n):\n"
                "        x[i] = x[i] + x[ia[x[i]]]\n"
            )

    def test_tainted_temp_detected(self):
        with pytest.raises(TransformError):
            parallelize_source(
                "def f(x, ia, n):\n"
                "    for i in range(n):\n"
                "        t = x[i]\n"
                "        x[i] = x[i] + x[ia[t]]\n"
            )


class TestExecutionEquivalence:
    @pytest.mark.parametrize("executor", ["self", "preschedule", "doacross"])
    def test_simple(self, simple_loop, simple_args, executor):
        ref = simple_loop.run_original(*simple_args)
        got = simple_loop.run(*simple_args, nproc=3, executor=executor)
        np.testing.assert_allclose(got, ref)

    @pytest.mark.parametrize("executor", ["self", "preschedule"])
    def test_simple_threaded(self, simple_loop, simple_args, executor):
        ref = simple_loop.run_original(*simple_args)
        got = simple_loop.run(
            *simple_args, nproc=3, executor=executor, threaded=True,
        )
        np.testing.assert_allclose(got, ref)

    def test_nested(self):
        pl = parallelize_source(NESTED_SRC)
        args = _nested_args()
        ref = pl.run_original(*args)
        np.testing.assert_allclose(pl.run(*args, nproc=4), ref)

    def test_csr_figure8(self):
        """The Figure 8 triangular-solve loop, ija-format."""
        pl = parallelize_source(CSR_SRC)
        args = _csr_args()
        ref = pl.run_original(*args)
        np.testing.assert_allclose(pl.run(*args, nproc=4), ref)
        np.testing.assert_allclose(
            pl.run(*args, nproc=4, executor="self", threaded=True), ref,
        )

    def test_input_not_mutated(self, simple_loop, simple_args):
        x = simple_args[0].copy()
        simple_loop.run(*simple_args, nproc=2)
        np.testing.assert_array_equal(simple_args[0], x)


def _csr_args(n=40, seed=3):
    """Figure 8 arguments: a random lower factor in ``ija`` format."""
    from repro.sparse.build import random_lower_triangular
    L = random_lower_triangular(n, avg_off_diag=2, seed=seed)
    rows = L.row_of_nnz()
    strict = L.indices < rows
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[strict], minlength=n), out=ptr[1:])
    ija = np.concatenate([ptr + n + 1, L.indices[strict]])
    a = np.concatenate([np.zeros(n + 1), L.data[strict]])
    rhs = np.random.default_rng(seed + 1).standard_normal(n)
    return (np.zeros(n), rhs, a, ija, n)


def _nested_args(n=40, m=3, seed=42):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n), 0.2 * rng.standard_normal(n),
            rng.integers(0, n, size=(n, m)), n, m)


def _simple_args(n=60, seed=41):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n), rng.standard_normal(n),
            rng.integers(0, n, size=n), n)


MATRIX_SOURCES = {
    "figure3": (SIMPLE_SRC, _simple_args),
    "figure6-nested": (NESTED_SRC, _nested_args),
    "figure8-csr": (CSR_SRC, _csr_args),
}


class TestRuntimeEquivalenceMatrix:
    """``run`` goes through ``Runtime``: bitwise equal to the original
    loop for every executor, serial and threaded, on all three loop
    shapes of the paper."""

    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("executor", ["self", "preschedule", "doacross"])
    @pytest.mark.parametrize("source", sorted(MATRIX_SOURCES))
    def test_bitwise_equal_to_original(self, source, executor, threaded):
        src, make_args = MATRIX_SOURCES[source]
        pl = parallelize_source(src)
        args = make_args()
        got = pl.run(*args, nproc=3, executor=executor, threaded=threaded)
        np.testing.assert_array_equal(got, pl.run_original(*args))


class TestRuntimeSeam:
    """The two-call composition on a caller's own ``Runtime``."""

    def test_threaded_failure_reports_its_iteration_promptly(self):
        import time

        from repro.errors import ExecutionError

        pl = parallelize_source(SIMPLE_SRC)
        n = 400
        b = [0.5] * n
        b[5] = None  # the body raises TypeError at iteration 5
        ia = np.maximum(np.arange(n) - 1, 0)
        t0 = time.monotonic()
        with pytest.raises(ExecutionError, match="iteration 5") as info:
            pl.run(np.ones(n), b, ia, n, nproc=2, threaded=True)
        assert info.value.iteration == 5
        assert time.monotonic() - t0 < 5.0  # the watchdog timeout is 30 s

    def test_recompiling_the_generated_graph_hits_the_cache(
            self, simple_loop, simple_args):
        from repro.runtime import Runtime

        rt = Runtime(nproc=3)
        first = rt.compile(simple_loop.dependence_graph(*simple_args))
        again = rt.compile(simple_loop.dependence_graph(*simple_args))
        assert not first.cache_hit
        assert again.cache_hit
        np.testing.assert_array_equal(
            again(simple_loop.kernel(*simple_args)).x,
            simple_loop.run_original(*simple_args))

    def test_observed_session_reports_phases(self, simple_loop, simple_args):
        from repro.runtime import Runtime

        rt = Runtime(nproc=2, observe=True)
        loop = rt.compile(simple_loop.dependence_graph(*simple_args))
        report = loop(simple_loop.kernel(*simple_args), backend="threads")
        assert report.phases is not None
        assert report.phases.wall_seconds > 0.0
        assert report.timeline is not None
        np.testing.assert_array_equal(
            report.x, simple_loop.run_original(*simple_args))

    def test_kernel_n_is_the_iteration_count(self, simple_loop):
        """The written array may be longer than the loop runs."""
        rng = np.random.default_rng(8)
        n = 30
        args = (rng.standard_normal(n + 10), rng.standard_normal(n),
                rng.integers(0, n, size=n), n)
        kernel = simple_loop.kernel(*args)
        assert kernel.n == n
        np.testing.assert_array_equal(
            simple_loop.run(*args, nproc=2), simple_loop.run_original(*args))

    def test_kernel_checks_arity(self, simple_loop):
        with pytest.raises(TransformError, match="expects 4 arguments"):
            simple_loop.kernel(np.zeros(3))


class TestGeneratedInspector:
    def test_dependences_match_library(self, simple_loop, simple_args):
        from repro.core.dependence import DependenceGraph
        x, b, ia, n = simple_args
        dep_gen = simple_loop.dependence_graph(x, b, ia, n)
        dep_lib = DependenceGraph.from_indirection(ia, n)
        assert dep_gen.n == dep_lib.n
        for i in range(n):
            assert sorted(dep_gen.deps(i)) == sorted(dep_lib.deps(i))

    def test_generated_wavefront_matches_library(self, simple_loop, simple_args):
        from repro.core.wavefront import compute_wavefronts
        x, b, ia, n = simple_args
        wf_gen = simple_loop.wavefront(x, b, ia, n)
        dep = simple_loop.dependence_graph(x, b, ia, n)
        wf_lib = compute_wavefronts(dep)
        np.testing.assert_array_equal(np.asarray(wf_gen), wf_lib)


class TestDecoratorForm:
    def test_decorator(self):
        @parallelize
        def loop(x, b, ia, n):
            for i in range(n):
                x[i] = x[i] + b[i] * x[ia[i]]

        rng = np.random.default_rng(7)
        n = 30
        args = (rng.standard_normal(n), rng.standard_normal(n),
                rng.integers(0, n, size=n), n)
        np.testing.assert_allclose(
            loop.run(*args, nproc=2), loop.run_original(*args),
        )
