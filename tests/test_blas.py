"""One OpenBLAS thread inside derivlab's linear algebra, restored outside."""

import sys
import threading

import numpy as np
import pytest

from derivlab import (DerivationTriple, LinearMap, algebra, blas, get_algebra, identity_map,
                      is_amenable, is_contractible, leibniz_residual, regular_bimodule)
from derivlab.algebra import nullspace
from derivlab.blas import blas_threads, single_blas_thread

needs_setter = pytest.mark.skipif(blas_threads() is None,
                                  reason="numpy's OpenBLAS has no thread-count setter")


@pytest.fixture
def two_threads():
    """An OpenBLAS count of 2 outside derivlab, whatever the environment set."""
    previous = blas._set(2)
    yield
    blas._set(previous)


@needs_setter
class TestScopes:
    def test_one_thread_inside_and_the_count_restored(self, two_threads):
        inner = single_blas_thread(blas_threads)
        outer = single_blas_thread(lambda: (inner(), blas_threads()))
        assert outer() == (1, 1)
        assert blas_threads() == 2

    def test_restored_after_an_exception(self, two_threads):
        @single_blas_thread
        def fails():
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            fails()
        assert blas_threads() == 2

    def test_the_last_scope_to_close_restores(self, two_threads):
        # the setter changes the count of the whole process, so a scope that
        # closes while another thread's scope is open must leave one thread
        entered, release = threading.Event(), threading.Event()
        seen = []

        @single_blas_thread
        def held():
            entered.set()
            release.wait(10)
            seen.append(blas_threads())

        worker = threading.Thread(target=held)
        worker.start()
        assert entered.wait(10)
        assert single_blas_thread(blas_threads)() == 1
        assert blas_threads() == 1  # the worker's scope is still open
        release.set()
        worker.join(10)
        assert seen == [1]
        assert blas_threads() == 2

    def test_threads_racing_through_scopes(self, two_threads):
        # without the lock, threads that open and close scopes together lose
        # updates: a scope runs at the restored count, or the last one to
        # close restores the one thread another scope set
        inside, after = [], []
        scoped = single_blas_thread(lambda: inside.append(blas_threads()))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                workers = [threading.Thread(target=lambda: [scoped() for _ in range(500)])
                           for _ in range(4)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(60)
                assert not any(worker.is_alive() for worker in workers)
                after.append(blas_threads())
        finally:
            sys.setswitchinterval(interval)
        assert len(inside) == 10 * 4 * 500 and set(inside) == {1}
        assert after == [2] * 10


@needs_setter
def test_every_linalg_call_of_a_matrix4_verdict_runs_at_one_thread(two_threads, monkeypatch):
    counts = []
    for name in ("svd", "qr", "lstsq", "norm", "matrix_rank", "solve"):
        call = getattr(np.linalg, name)

        def recorded(*args, _call=call, **kwargs):
            counts.append(blas_threads())
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    algebra = get_algebra("matrix:4")
    module, sid = regular_bimodule(algebra), identity_map(algebra)
    assert is_contractible(algebra, module, sid, sid).h1_vanishes
    assert is_amenable(algebra, module, sid, sid).h1_vanishes
    assert len(counts) >= 8  # per verdict the system's and the center's SVDs and two norms
    assert set(counts) == {1}
    assert blas_threads() == 2


@needs_setter
def test_nullspace_runs_at_one_thread(two_threads, monkeypatch):
    counts = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: counts.append(blas_threads()) or svd(*args, **kw))
    mat = np.arange(12.0).reshape(4, 3) + 0j
    assert nullspace(mat, 1e-10).shape == (1, 3)
    assert counts == [1]
    assert blas_threads() == 2


@needs_setter
def test_product_rule_rows_run_at_one_thread(two_threads, monkeypatch):
    # extract_triple samples the product rule outside any scope of its own
    counts, outer_rows = [], algebra.outer_rows
    monkeypatch.setattr(algebra, "outer_rows",
                        lambda *args: counts.append(blas_threads()) or outer_rows(*args))
    a = get_algebra("matrix:3")
    sid = identity_map(a)
    triple = DerivationTriple(LinearMap(np.eye(a.dim), a, regular_bimodule(a)), sid, sid)
    rows = np.ones((5, a.dim), dtype=complex)
    assert leibniz_residual(triple, rows, rows).shape == (5,)
    assert counts == [1, 1, 1]
    assert blas_threads() == 2
