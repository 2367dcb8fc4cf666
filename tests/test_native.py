"""Tests for the native-library settings: one BLAS thread, kept heap pages."""

import resource
import sys
import threading

import numpy as np
import pytest

import projmi as pm
from projmi import native

needs_openblas = pytest.mark.skipif(
    native._set_threads is None, reason="numpy's BLAS has no openblas_set_num_threads_local"
)


def threads():
    """OpenBLAS's current thread count, read through the setter."""
    count = native._set_threads(1)
    native._set_threads(count)
    return count


@needs_openblas
def test_block_runs_on_one_thread_and_restores():
    before = threads()
    with native.single_blas_thread():
        assert threads() == 1
        with native.single_blas_thread():
            assert threads() == 1
        assert threads() == 1
    assert threads() == before


@needs_openblas
def test_restores_after_an_exception():
    before = threads()
    with pytest.raises(RuntimeError):
        with native.single_blas_thread():
            raise RuntimeError
    assert threads() == before


@needs_openblas
def test_overlapping_blocks_on_two_threads_restore_once():
    before = threads()
    inside, leave = threading.Barrier(2), threading.Event()

    def hold():
        with native.single_blas_thread():
            inside.wait()
            leave.wait()

    other = threading.Thread(target=hold)
    other.start()
    with native.single_blas_thread():
        inside.wait()
    # this thread left first; the other block still holds one thread
    assert threads() == 1
    leave.set()
    other.join(timeout=10)
    assert not other.is_alive()
    assert threads() == before


@needs_openblas
def test_many_threads_entering_and_leaving_restore_the_count():
    before = threads()
    inside = []

    def churn():
        for _ in range(200):
            with native.single_blas_thread():
                inside.append(threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert set(inside) == {1}
    assert native._depth == 0
    assert threads() == before


@needs_openblas
def test_estimators_set_up_and_fit_on_one_thread(monkeypatch):
    # Set-up (the eigenfactors) and the control fit call eigh outside the
    # engine's blocks.
    depths, eigh = [], np.linalg.eigh

    def recorded(*args, **kwargs):
        depths.append(native._depth)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    sigma = pm.mixed_random(9, 4, 2)
    pm.mi_estimates(sigma, pm.BipartiteDims(3, 3), pm.SamplerConfig(1, 5000))
    mi_calls = len(depths)
    pm.differential_entropy_mu(sigma, pm.SamplerConfig(1, 100))
    assert 0 < mi_calls < len(depths)
    assert min(depths) >= 1
    assert native._depth == 0


@needs_openblas
def test_engine_evaluates_integrand_on_one_thread():
    before = threads()
    seen = []

    def batch(X):
        seen.append(threads())
        return np.ones(len(X))

    pm.integrate_nu(3, pm.SamplerConfig(seed=0, n_samples=17_000), batch_f=batch)
    assert seen == [1, 1, 1]
    assert threads() == before


def test_kept_heap_pages_are_not_faulted_in_again():
    if not native.keep_freed_memory():
        pytest.skip("the C library has no glibc mallopt")

    def batch():
        # two 2.4 MB arrays alive at once, as in the 6x6 joint kernel
        rows = np.ones((4096, 36), dtype=complex)
        amp = rows * 2.0
        return float(amp[-1, -1].real)

    batch()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        batch()
    # each batch would fault in ~1150 pages if its arrays went back to the kernel
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200
