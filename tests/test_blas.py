import sys
import threading

import numpy as np
import pytest

import cmfsep.blas as blas
import cmfsep.cmf as cmf_mod
from cmfsep.blas import blas_threads, set_blas_threads, solve_threads
from cmfsep.cmf import cmf_factorize
from cmfsep.config import SepConfig
from cmfsep.linalg import FRAME_CHUNK


def segmented_solve(seed=0, frames=2 * FRAME_CHUNK + 50):
    """A fixed-basis solve, by default of three frame chunks. At rank 10
    a chunk's weights have about 2·10·512 entries, more than OpenBLAS's
    dot product takes on one thread alone, so its bits depend on the
    BLAS count it runs at."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((12, frames)) + 1j * rng.standard_normal((12, frames))
    x = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
    cfg = SepConfig(rank=10, iters=30, tol=0.0, seed=seed)
    return cmf_factorize(z, 10, cfg, fixed_x=x, checkpoint_every=10)


def assert_same(a, b):
    assert np.array_equal(a.h, b.h) and np.array_equal(a.x, b.x)
    assert a.objective_history == b.objective_history
    assert a.checkpoints == b.checkpoints


class TestHelper:
    def test_count_is_read(self):
        # numpy's bundled OpenBLAS is found and reports its count
        n = blas_threads()
        assert isinstance(n, int) and n >= 1

    def test_set_and_restore(self):
        entry = blas_threads()
        try:
            set_blas_threads(1)
            assert blas_threads() == 1
        finally:
            set_blas_threads(entry)
        assert blas_threads() == entry

    def test_rejects_a_count_below_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            set_blas_threads(0)

    def test_one_part_moves_the_count(self, two_blas_threads):
        with solve_threads(1) as workers:
            assert workers == 1 and blas_threads() == 1
        assert blas_threads() == 2
        with solve_threads(5) as workers:
            assert workers == 2 and blas_threads() == 1
        assert blas_threads() == 2

    def test_without_the_library_the_solve_is_serial(self, monkeypatch, two_blas_threads):
        pooled = segmented_solve()
        threads = set()
        step = cmf_mod.nmf_step

        def recording(state, problem):
            threads.add(threading.get_ident())
            return step(state, problem)

        monkeypatch.setattr(cmf_mod, "nmf_step", recording)
        # a BLAS that cannot be found is left at its own count, here 1
        set_blas_threads(1)
        monkeypatch.setattr(blas, "_library", lambda: None)
        assert blas_threads() is None
        set_blas_threads(3)  # does nothing
        serial = segmented_solve()
        monkeypatch.undo()
        assert blas_threads() == 1
        assert threads == {threading.get_ident()}
        assert_same(serial, pooled)


class TestOnePart:
    """A solve of one frame chunk runs on the calling thread at one BLAS
    thread, as each part of a longer solve does, so its bits are those
    of the solve at BLAS 1."""

    frames = FRAME_CHUNK - 12

    def test_equals_the_one_thread_solve(self, two_blas_threads):
        at_two = segmented_solve(frames=self.frames)
        set_blas_threads(1)
        assert_same(at_two, segmented_solve(frames=self.frames))

    def test_steps_at_one_blas_thread(self, monkeypatch, two_blas_threads):
        counts = []
        step = cmf_mod.nmf_step

        def recording(state, problem):
            counts.append(blas_threads())
            return step(state, problem)

        monkeypatch.setattr(cmf_mod, "nmf_step", recording)
        segmented_solve(frames=self.frames)
        assert len(counts) == 30 and set(counts) == {1}
        assert blas_threads() == 2


class TestRestored:
    """The BLAS count a solve finds is the one it leaves."""

    def test_after_a_segment_raises(self, monkeypatch, two_blas_threads):
        calls = iter(range(1000))
        step = cmf_mod.nmf_step

        def failing(state, problem):
            # next() on a range iterator is atomic under the GIL
            if next(calls) == 2:
                raise RuntimeError("planted failure")
            return step(state, problem)

        monkeypatch.setattr(cmf_mod, "nmf_step", failing)
        with pytest.raises(RuntimeError, match="planted failure"):
            segmented_solve()
        assert blas_threads() == 2
        # the other segment running at the failure ran to its end (at
        # most 30 more steps), and the third was never handed out
        assert next(calls) <= 3 + 30

    def test_under_overlapping_solves(self, two_blas_threads):
        # more solve threads than cores, switching often. A solve that
        # saved another's 1 as its entry count would leave the process
        # at 1, or run its segments serially while the count goes back
        # to 2 under it, which changes the bits of its dot products
        seeds = range(4)
        want = [segmented_solve(seed) for seed in seeds]
        got, failures = {}, []

        def solve(seed):
            try:
                got[seed] = segmented_solve(seed)
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                threads = [threading.Thread(target=solve, args=(s,)) for s in seeds]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert failures == []
                assert blas_threads() == 2
                for seed in seeds:
                    assert_same(got.pop(seed), want[seed])
        finally:
            sys.setswitchinterval(interval)
