import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmfsep.cmf as cmf_mod
import cmfsep.nmf as nmf_mod
from blocks import assemble_hc, block_product_identity_check, part_state, start_state
from cmfsep.blas import blas_threads, set_blas_threads
from cmfsep.cmf import CmfResult, cmf_factorize, symmetrize_h
from cmfsep.config import SepConfig
from cmfsep.linalg import (
    FRAME_CHUNK,
    SplitQuad,
    assemble_zc,
    frame_chunks,
    frobenius_norm_sq,
    merge_quad,
    split_complex,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSplitMerge:
    def test_split_examples(self):
        q = split_complex([[3 - 4j]])
        assert (q.pr[0, 0], q.nr[0, 0], q.pi[0, 0], q.ni[0, 0]) == (3, 0, 0, 4)
        q = split_complex([[-2 + 5j]])
        assert (q.pr[0, 0], q.nr[0, 0], q.pi[0, 0], q.ni[0, 0]) == (0, 2, 5, 0)
        q = split_complex([[0j]])
        assert (q.pr[0, 0], q.nr[0, 0], q.pi[0, 0], q.ni[0, 0]) == (0, 0, 0, 0)

    def test_merge_examples(self):
        q = SplitQuad(
            pr=np.array([[3.0]]), nr=np.array([[0.0]]),
            pi=np.array([[0.0]]), ni=np.array([[4.0]]),
        )
        assert merge_quad(q)[0, 0] == 3 - 4j
        q = SplitQuad(
            pr=np.array([[1.0]]), nr=np.array([[1.0]]),
            pi=np.array([[0.0]]), ni=np.array([[0.0]]),
        )
        assert merge_quad(q)[0, 0] == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_exact(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 33)), int(rng.integers(1, 33)))
        z = random_complex(rng, shape)
        assert np.array_equal(merge_quad(split_complex(z)), z)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_complementarity(self, seed):
        rng = np.random.default_rng(seed)
        q = split_complex(random_complex(rng, (8, 8)))
        assert np.all(q.pr * q.nr == 0)
        assert np.all(q.pi * q.ni == 0)


class TestBlockAssembly:
    def test_assemble_zc_scalar(self):
        bm = assemble_zc(split_complex([[3 - 4j]]))
        assert np.array_equal(bm.assembled, [[3, 0], [0, 4]])

    def test_assemble_zc_blocks_match_split(self):
        rng = np.random.default_rng(20)
        q = split_complex(random_complex(rng, (2, 3)))
        a = assemble_zc(q).assembled
        assert a.shape == (4, 6)
        assert np.array_equal(a[:2, :3], q.pr)
        assert np.array_equal(a[:2, 3:], q.nr)
        assert np.array_equal(a[2:, :3], q.pi)
        assert np.array_equal(a[2:, 3:], q.ni)

    def test_assemble_hc_layout(self):
        a = assemble_hc(np.array([[1.0]]), np.array([[2.0]])).assembled
        assert np.array_equal(a, [[1, 2], [2, 1]])

    def test_assemble_hc_tie_by_construction(self):
        rng = np.random.default_rng(21)
        bm = assemble_hc(rng.random((3, 4)), rng.random((3, 4)))
        assert np.array_equal(bm.b11, bm.b22)
        assert np.array_equal(bm.b12, bm.b21)

    def test_assemble_hc_rejects_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            assemble_hc(np.ones((2, 2)), np.ones((2, 3)))


class TestBlockProductIdentity:
    def test_zero_inputs(self):
        q = split_complex(np.zeros((2, 2), dtype=complex))
        for part in block_product_identity_check(q, np.zeros((2, 3)), np.zeros((2, 3))):
            assert np.all(part == 0)

    def test_vanishing_terms(self):
        rng = np.random.default_rng(22)
        xpr = rng.random((3, 2))
        xpi = rng.random((3, 2))
        q = SplitQuad(pr=xpr, nr=np.zeros((3, 2)), pi=xpi, ni=np.zeros((3, 2)))
        hp = rng.random((2, 4))
        z1, z2, z3, z4 = block_product_identity_check(q, hp, np.zeros((2, 4)))
        np.testing.assert_allclose(z1, xpr @ hp, atol=1e-15)
        assert np.all(z2 == 0)
        np.testing.assert_allclose(z3, xpi @ hp, atol=1e-15)
        assert np.all(z4 == 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_assembled_block_product(self, seed):
        rng = np.random.default_rng(seed)
        q = split_complex(random_complex(rng, (4, 3)))
        hp, hm = rng.random((3, 5)), rng.random((3, 5))
        xc = assemble_zc(q).assembled
        hc = assemble_hc(hp, hm).assembled
        full = xc @ hc
        z1, z2, z3, z4 = block_product_identity_check(q, hp, hm)
        assert np.max(np.abs(z1 - full[:4, :5])) <= 1e-12
        assert np.max(np.abs(z2 - full[:4, 5:])) <= 1e-12
        assert np.max(np.abs(z3 - full[4:, :5])) <= 1e-12
        assert np.max(np.abs(z4 - full[4:, 5:])) <= 1e-12

    def test_dimension_mismatch(self):
        q = split_complex(np.ones((2, 3), dtype=complex))
        with pytest.raises(ValueError, match="dimension mismatch"):
            block_product_identity_check(q, np.ones((4, 2)), np.ones((4, 2)))


class TestSymmetrize:
    def test_arithmetic_mean(self):
        top, bottom = np.array([[1.0], [2.0]]), np.array([[3.0], [0.0]])
        tied = symmetrize_h(top, bottom)
        assert tied is top
        assert tied[0, 0] == 2.0 and tied[1, 0] == 1.0

    def test_symmetric_input_unchanged(self):
        rng = np.random.default_rng(23)
        a = rng.random((4, 2))
        top = a.copy()
        assert symmetrize_h(top, a.copy()) is top
        assert np.array_equal(top, a)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        top, bottom = rng.random((6, 3)), rng.random((6, 3))
        tied = symmetrize_h(top, bottom).copy()
        again = symmetrize_h(top, top.copy())
        assert again is top
        assert np.max(np.abs(again - tied)) <= 1e-15

    def test_ratio_tie_is_formed_in_place(self):
        rng = np.random.default_rng(24)
        r = rng.random((8, 5))
        want = 0.5 * (r[:4] + r[4:])
        tied = cmf_mod._tie_ratio(r)
        assert np.shares_memory(tied, r)
        assert np.array_equal(tied, want)


def planted_problem(seed, rows=64, rank=20, cols=100, support=8):
    """Z = X H with complex X of sign-consistent rows on sparse column
    supports and strictly positive real H; exactly representable."""
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, rank), dtype=complex)
    sr = rng.choice([-1.0, 1.0], size=rows)
    si = rng.choice([-1.0, 1.0], size=rows)
    for k in range(rank):
        picked = rng.choice(rows, size=support, replace=False)
        mag = rng.uniform(0.3, 1.0, size=(support, 2))
        x[picked, k] = sr[picked] * mag[:, 0] + 1j * si[picked] * mag[:, 1]
    h = rng.uniform(0.3, 1.0, size=(rank, cols))
    return x, h


class TestCmfFactorize:
    def test_zero_input_short_circuits(self):
        res = cmf_factorize(np.zeros((3, 4), dtype=complex), 2)
        assert np.all(res.x == 0) and np.all(res.h == 0)
        assert res.final_error == 0.0
        assert res.objective_history == []

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"fixed_x": np.ones((3, 5), dtype=complex)}, "fixed_x shape"),
            ({"fixed_x": np.full((4, 2), np.nan, dtype=complex)}, "non-finite"),
            ({"h_init": (np.full((2, 6), np.nan), np.ones((2, 6)))}, "non-finite"),
            ({"h_init": (np.ones((9, 9)), np.ones((9, 9)))}, "rank x cols"),
        ],
    )
    def test_zero_input_still_checks_bases_and_start(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            cmf_factorize(np.zeros((4, 6), dtype=complex), 2, **kwargs)

    def test_zero_input_returns_fixed_bases(self):
        x = random_complex(np.random.default_rng(29), (4, 2))
        res = cmf_factorize(np.zeros((4, 6), dtype=complex), 2, fixed_x=x)
        assert np.array_equal(res.x, x) and res.x is not x
        assert np.all(res.h == 0) and res.h.shape == (2, 6)
        assert res.final_error == 0.0
        assert res.objective_history == [] and res.checkpoints == []

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            cmf_factorize(np.zeros((0, 3), dtype=complex), 2)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            cmf_factorize(np.ones((2, 2), dtype=complex), 0)

    def test_rejects_zero_iters(self):
        with pytest.raises(ValueError, match="iters"):
            SepConfig(rank=2, iters=0)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -np.inf])
    def test_rejects_nan_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            SepConfig(rank=2, tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        z = np.ones((3, 3), dtype=complex)
        z[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cmf_factorize(z, 2)
        x = np.ones((3, 2), dtype=complex)
        x[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cmf_factorize(np.ones((3, 3), dtype=complex), 2, fixed_x=x)

    def test_rejects_fixed_x_shape(self):
        with pytest.raises(ValueError, match="fixed_x shape"):
            cmf_factorize(
                np.ones((2, 2), dtype=complex), 2, fixed_x=np.ones((3, 2), dtype=complex)
            )

    def test_shapes_and_types(self):
        rng = np.random.default_rng(24)
        z = random_complex(rng, (10, 7))
        res = cmf_factorize(z, 3, SepConfig(rank=3, iters=20))
        assert res.x.shape == (10, 3) and res.x.dtype == np.complex128
        assert res.h.shape == (3, 7) and res.h.dtype == np.float64

    def test_objective_monotone(self):
        rng = np.random.default_rng(25)
        z = random_complex(rng, (16, 12))
        res = cmf_factorize(z, 4, SepConfig(rank=4, iters=200, tol=0.0))
        hist = res.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_planted_fixed_x_small(self):
        # rows carry consistent real/imaginary signs so the planted
        # solution is compatible with the nonnegative block geometry
        x = np.array(
            [[0.5 + 0.6j, 0.9 + 0.4j], [-0.7 - 0.3j, -0.4 - 0.8j]], dtype=complex
        )
        h = np.array([[0.8, 0.3, 0.5], [0.4, 0.9, 0.6]])
        z = x @ h
        res = cmf_factorize(z, 2, SepConfig(rank=2, iters=2000, tol=1e-15), fixed_x=x)
        assert res.final_error / frobenius_norm_sq(z) <= 1e-4

    def test_planted_fixed_x_large(self):
        x, h = planted_problem(0)
        z = x @ h
        res = cmf_factorize(z, 20, SepConfig(rank=20, iters=500), fixed_x=x)
        assert res.final_error / frobenius_norm_sq(z) <= 1e-3

    def test_determinism(self):
        rng = np.random.default_rng(26)
        z = random_complex(rng, (8, 6))
        cfg = SepConfig(rank=3, iters=50, seed=7)
        a = cmf_factorize(z, 3, cfg)
        b = cmf_factorize(z, 3, cfg)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.h, b.h)

    def test_h_init_used(self):
        x, h = planted_problem(1, rows=16, rank=4, cols=10, support=4)
        z = x @ h
        hp0 = np.maximum(h, 0.0) + 0.01
        hm0 = np.zeros_like(h) + 0.01
        res = cmf_factorize(
            z, 4, SepConfig(rank=4, iters=5, tol=0.0), fixed_x=x, h_init=(hp0, hm0)
        )
        assert res.final_error / frobenius_norm_sq(z) < 0.5

    def test_h_init_validation(self):
        z = np.ones((2, 3), dtype=complex)
        with pytest.raises(ValueError, match="rank x cols"):
            cmf_factorize(z, 1, h_init=(np.ones((2, 3)), np.ones((2, 3))))
        with pytest.raises(ValueError, match="nonnegative"):
            cmf_factorize(z, 1, h_init=(-np.ones((1, 3)), np.ones((1, 3))))

    @pytest.mark.parametrize("half", [0, 1])
    def test_h_init_rejects_complex(self, half):
        # a float64 cast would run on the real parts alone
        z = random_complex(np.random.default_rng(5), (4, 3))
        h_init = [np.ones((2, 3)), np.ones((2, 3))]
        h_init[half] = h_init[half] + 0.5j
        with pytest.raises(ValueError, match="imaginary"):
            cmf_factorize(z, 2, h_init=tuple(h_init))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("half", [0, 1])
    def test_h_init_rejects_non_finite(self, bad, half):
        z = random_complex(np.random.default_rng(5), (4, 3))
        h_init = [np.ones((2, 3)), np.ones((2, 3))]
        h_init[half][1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cmf_factorize(z, 2, h_init=tuple(h_init))

    @pytest.mark.parametrize("fixed", [False, True])
    def test_h_init_of_the_drawn_start_reproduces_it(self, fixed):
        rng = np.random.default_rng(6)
        z = random_complex(rng, (6, 5))
        kwargs = {"fixed_x": random_complex(rng, (6, 2))} if fixed else {}
        captured = []
        start = cmf_mod._start

        def capturing(problem, seed, h_init=None):
            x, hp, hm = start(problem, seed, h_init)
            captured.append((hp.copy(), hm.copy()))
            return x, hp, hm

        cfg = SepConfig(rank=2, iters=40, tol=0.0, seed=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cmf_mod, "_start", capturing)
            drawn = cmf_factorize(z, 2, cfg, checkpoint_every=10, **kwargs)
        given = cmf_factorize(z, 2, cfg, checkpoint_every=10, h_init=captured[0], **kwargs)
        assert np.array_equal(given.x, drawn.x) and np.array_equal(given.h, drawn.h)
        assert given.objective_history == drawn.objective_history
        assert given.checkpoints == drawn.checkpoints

    def test_infinite_tol_runs_one_iteration(self):
        rng = np.random.default_rng(14)
        z = random_complex(rng, (8, 6))
        res = cmf_factorize(z, 2, SepConfig(rank=2, iters=100, tol=np.inf))
        assert len(res.objective_history) == 1
        assert res.checkpoints == [(1, res.objective_history[0], res.final_error)]
        assert res.final_error == frobenius_norm_sq(z - res.x @ res.h)

    def test_coupling_reties_weights_every_iteration(self, monkeypatch):
        starts, steps = [], []
        original_start, original_tie = cmf_mod._make_coupling, cmf_mod._tie_ratio

        def counted(rank, cols):
            inner = original_start(rank, cols)

            def couple(hc):
                starts.append(hc.shape)
                return inner(hc)

            return couple

        def tie(ratio):
            steps.append(ratio.shape)
            return original_tie(ratio)

        monkeypatch.setattr(cmf_mod, "_make_coupling", counted)
        monkeypatch.setattr(cmf_mod, "_tie_ratio", tie)
        rng = np.random.default_rng(16)
        cmf_factorize(random_complex(rng, (4, 4)), 2, SepConfig(rank=2, iters=7, tol=0.0))
        # the drawn 2K x 2T start is tied once; every iteration then ties
        # the stacked 4K x T update ratio into the multiplier of [h+; h-]
        assert starts == [(4, 8)]
        assert steps == [(8, 4)] * 7

    @pytest.mark.parametrize("fixed", [False, True])
    def test_weights_stored_once(self, monkeypatch, fixed):
        shapes = []
        step = cmf_mod.nmf_step

        def recording(state, problem):
            shapes.append(state.h.shape)
            return step(state, problem)

        monkeypatch.setattr(cmf_mod, "nmf_step", recording)
        rng = np.random.default_rng(18)
        z = random_complex(rng, (6, 5))
        kwargs = {"fixed_x": random_complex(rng, (6, 2))} if fixed else {}
        res = cmf_factorize(z, 2, SepConfig(rank=2, iters=3, tol=0.0), **kwargs)
        # W = [h+; h-] is 2K x T, never the 2K x 2T block matrix
        assert shapes == [(4, 5)] * 3
        assert res.h.shape == (2, 5)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_checkpoints_cover_every_frame_chunk(self, fixed):
        # checkpoints sum the complex error chunk by chunk
        rng = np.random.default_rng(31)
        z = random_complex(rng, (4, 2 * FRAME_CHUNK + 3))
        kwargs = {"fixed_x": random_complex(rng, (4, 2))} if fixed else {}
        res = cmf_factorize(z, 2, SepConfig(rank=2, iters=6, tol=0.0), checkpoint_every=3, **kwargs)
        assert [c[0] for c in res.checkpoints] == [3, 6]
        assert res.final_error == pytest.approx(frobenius_norm_sq(z - res.x @ res.h), rel=1e-12)

    def test_final_checkpoint_always_present(self):
        rng = np.random.default_rng(28)
        z = random_complex(rng, (6, 5))
        res = cmf_factorize(z, 2, SepConfig(rank=2, iters=17, tol=0.0))
        assert res.checkpoints[-1][0] == 17
        assert res.checkpoints[-1][2] == res.final_error


class TestCheckedHalves:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("half", [0, 1])
    @pytest.mark.parametrize("at", [(0, 0), (1, 2)])
    def test_rejects_non_finite_in_either_half(self, bad, half, at):
        halves = [np.ones((2, 3)), np.ones((2, 3))]
        halves[half][at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cmf_mod._checked_halves(halves, 2, 3)

    @pytest.mark.parametrize("half", [0, 1])
    def test_rejects_nan_beside_a_negative_entry(self, half):
        # Python's min keeps -1.0 from (nan, -1.0) but nan from
        # (-1.0, nan); numpy's reductions give nan either way, so the NaN
        # is reported wherever the negative entry is
        halves = [np.ones((2, 3)), np.ones((2, 3))]
        halves[half][0, 1] = np.nan
        halves[1 - half][1, 0] = -1.0
        with pytest.raises(ValueError, match="non-finite"):
            cmf_mod._checked_halves(halves, 2, 3)

    def test_rejects_a_negative_entry_in_the_second_half_only(self):
        hp, hm = np.ones((2, 3)), np.ones((2, 3))
        hm[1, 2] = -1e-300
        with pytest.raises(ValueError, match="nonnegative"):
            cmf_mod._checked_halves((hp, hm), 2, 3)

    def test_returns_valid_halves_as_they_are(self):
        hp, hm = np.zeros((2, 3)), np.full((2, 3), 1e300)
        got = cmf_mod._checked_halves((hp, hm), 2, 3)
        assert got[0] is hp and got[1] is hm


class TestGramCheckpointError:
    @pytest.mark.parametrize("frames", [FRAME_CHUNK - 5, 3 * FRAME_CHUNK - 100])
    def test_matches_the_direct_residual(self, frames, monkeypatch):
        # each segment's checkpoint error, in the Gram form, against the
        # residual formed directly from the same iterate
        pairs = []
        gram_form = nmf_mod.complex_error

        def both(problem, state):
            got = gram_form(problem, state)
            pairs.append((got, nmf_mod._residuals(problem, state, modulus=False)[1]))
            return got

        monkeypatch.setattr(cmf_mod, "complex_error", both)
        rng = np.random.default_rng(40)
        x = random_complex(rng, (7, 3))
        z = x @ rng.random((3, frames)) + 0.3 * random_complex(rng, (7, frames))
        res = cmf_factorize(z, 3, SepConfig(rank=3, iters=30, tol=0.0), fixed_x=x, checkpoint_every=7)
        assert [c[0] for c in res.checkpoints] == [7, 14, 21, 28, 30]
        assert len(pairs) == 5 * len(frame_chunks(frames))
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-12)
        assert res.final_error == pytest.approx(frobenius_norm_sq(z - x @ res.h), rel=1e-12)

    def test_forms_no_residual_above_the_guard(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a residual was formed")

        rng = np.random.default_rng(41)
        x = random_complex(rng, (7, 3))
        z = random_complex(rng, (7, 50))
        monkeypatch.setattr(nmf_mod, "_residuals", forbidden)
        res = cmf_factorize(z, 3, SepConfig(rank=3, iters=9, tol=0.0), fixed_x=x, checkpoint_every=3)
        assert len(res.checkpoints) == 3
        assert res.final_error == pytest.approx(frobenius_norm_sq(z - x @ res.h), rel=1e-12)

    def test_planted_fit_below_the_guard_is_the_direct_residual(self):
        rng = np.random.default_rng(42)
        x = random_complex(rng, (7, 3))
        hp, hm = rng.random((2, 3, 60))
        problem = nmf_mod.NmfProblem(z=x @ (hp - hm), rank=3, fixed_x=x)
        state = part_state(problem, problem.xc, (hp, hm))
        got = nmf_mod.complex_error(problem, state)
        assert got < nmf_mod.GRAM_GUARD * problem.z_norm_sq
        assert got == nmf_mod._residuals(problem, state, modulus=False)[1]


def whole_fixed_solve(z, x, cfg, h_init=None):
    """The parent arithmetic of a fixed-basis solve: every frame stepped
    at once as one part of all frames, no stop rule. Returns h, the
    history and the final complex error."""
    rank = x.shape[1]
    problem = nmf_mod.NmfProblem(z=z, rank=rank, fixed_x=x)
    state = start_state(problem, cfg.seed, h_init)
    for _ in range(cfg.iters):
        cmf_mod.nmf_step(state, problem)
    h = state.h[:rank] - state.h[rank:]
    return h, state.objective_history, frobenius_norm_sq(z - x @ h)


def segments_stopping_apart():
    """Three frame chunks that stop at different iterations: z, fixed
    bases x, h_init and a ``tol > 0`` config."""
    rng = np.random.default_rng(34)
    frames = 3 * FRAME_CHUNK - 100
    x = random_complex(rng, (6, 3))
    # the planted first segment stops first; the random ones take longer
    z = random_complex(rng, (6, frames))
    z[:, :FRAME_CHUNK] = x @ rng.uniform(0.3, 1.0, (3, FRAME_CHUNK))
    z[:, 2 * FRAME_CHUNK :] *= 1e3
    h_init = tuple(rng.random((2, 3, frames)))
    return z, x, h_init, SepConfig(rank=3, iters=400, tol=1e-6, seed=6)


class TestSegmentedFixedSolve:
    """With fixed bases the solve runs each frame chunk on its own; with
    ``tol=0`` it equals one solve over all frames to rounding."""

    @pytest.mark.parametrize("given", [False, True])
    @pytest.mark.parametrize(
        "frames", [1, FRAME_CHUNK - 1, FRAME_CHUNK, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 1]
    )
    def test_matches_the_whole_solve(self, frames, given):
        rng = np.random.default_rng(frames)
        z, x = random_complex(rng, (6, frames)), random_complex(rng, (6, 3))
        h_init = tuple(rng.random((2, 3, frames))) if given else None
        cfg = SepConfig(rank=3, iters=25, tol=0.0, seed=4)
        res = cmf_factorize(z, 3, cfg, fixed_x=x, checkpoint_every=10, h_init=h_init)
        h, history, error = whole_fixed_solve(z, x, cfg, h_init)
        assert np.max(np.abs(res.h - h)) <= 1e-12 * np.max(np.abs(h))
        np.testing.assert_allclose(res.objective_history, history, rtol=1e-12, atol=0)
        assert res.final_error == pytest.approx(error, rel=1e-12)
        assert [c[0] for c in res.checkpoints] == [10, 20, 25]
        assert res.checkpoints[-1][1:] == (res.objective_history[-1], res.final_error)

    def test_silent_segment_inside_a_nonzero_mixture(self):
        rng = np.random.default_rng(33)
        frames = 2 * FRAME_CHUNK + 40
        z, x = random_complex(rng, (6, frames)), random_complex(rng, (6, 3))
        silent = slice(FRAME_CHUNK, 2 * FRAME_CHUNK)
        z[:, silent] = 0.0
        cfg = SepConfig(rank=3, iters=20, tol=0.0, seed=5)
        res = cmf_factorize(z, 3, cfg, fixed_x=x)
        h, history, error = whole_fixed_solve(z, x, cfg)
        assert np.all(res.h[:, silent] == 0.0)
        assert np.max(np.abs(res.h - h)) <= 1e-12 * np.max(np.abs(h))
        np.testing.assert_allclose(res.objective_history, history, rtol=1e-12, atol=0)
        assert res.final_error == pytest.approx(error, rel=1e-12)

    def test_each_segment_stops_on_its_own_objective(self):
        z, x, h_init, cfg = segments_stopping_apart()
        frames = z.shape[1]
        res = cmf_factorize(z, 3, cfg, fixed_x=x, checkpoint_every=50, h_init=h_init)
        parts = [
            cmf_factorize(
                z[:, cols], 3, cfg, fixed_x=x, checkpoint_every=50,
                h_init=(h_init[0][:, cols], h_init[1][:, cols]),
            )
            for cols in frame_chunks(frames)
        ]
        lengths = [len(p.objective_history) for p in parts]
        assert len(set(lengths)) > 1 and max(lengths) < cfg.iters
        assert len(res.objective_history) == max(lengths)
        for cols, part in zip(frame_chunks(frames), parts):
            np.testing.assert_allclose(res.h[:, cols], part.h, rtol=1e-12, atol=0)
        # a stopped segment adds its last value to every later iteration
        for it in range(1, max(lengths) + 1):
            want = sum(p.objective_history[min(it, n) - 1] for p, n in zip(parts, lengths))
            assert res.objective_history[it - 1] == pytest.approx(want, rel=1e-12)
        want = sum(p.final_error for p in parts)
        assert res.final_error == pytest.approx(want, rel=1e-12)
        assert [c[0] for c in res.checkpoints] == [
            *range(50, max(lengths), 50), max(lengths)
        ]


class TestPooledFixedSolve:
    """Segments solved on several threads, each on one BLAS thread, give
    the bits of the solve on one thread."""

    def test_equals_the_one_thread_solve(self, monkeypatch, two_blas_threads):
        z, x, h_init, cfg = segments_stopping_apart()
        threads = set()
        step = cmf_mod.nmf_step

        def recording(state, problem):
            threads.add(threading.get_ident())
            return step(state, problem)

        monkeypatch.setattr(cmf_mod, "nmf_step", recording)
        pooled = cmf_factorize(z, 3, cfg, fixed_x=x, checkpoint_every=50, h_init=h_init)
        assert len(threads) == 2 and blas_threads() == 2
        threads.clear()
        set_blas_threads(1)
        serial = cmf_factorize(z, 3, cfg, fixed_x=x, checkpoint_every=50, h_init=h_init)
        assert threads == {threading.get_ident()}
        assert np.array_equal(pooled.h, serial.h)
        assert np.array_equal(pooled.x, serial.x)
        assert pooled.objective_history == serial.objective_history
        assert pooled.checkpoints == serial.checkpoints
        assert pooled.final_error == serial.final_error


def buffers(state):
    """The flat buffers of ``state``: those it views per part, then the
    scratch and, with free bases, the X update's."""
    flat = [a for _, a in state._flat.values()] + [state.scratch]
    return flat + [getattr(state, n) for n in ("xnum", "xratio", "xmask") if hasattr(state, n)]


class TestWorkspace:
    """A solve thread's workspace, its ``nmf.NmfState``."""

    @pytest.mark.parametrize("rows, rank, width", [(257, 80, FRAME_CHUNK), (3, 1, 1), (6, 3, 7)])
    def test_arrays_start_on_a_cache_line(self, rows, rank, width):
        rng = np.random.default_rng(width)
        z, x = random_complex(rng, (rows, width)), random_complex(rng, (rows, rank))
        problem = nmf_mod.NmfProblem(z=z, rank=rank, fixed_x=x)
        state = nmf_mod.NmfState(problem, width)
        arrays = buffers(state)
        assert len(arrays) == 8
        for a in arrays:
            assert a.ctypes.data % 64 == 0
            assert a.ndim == 1 and a.flags.c_contiguous and a.flags.writeable
        mask = state._flat["mask"][1]
        assert mask.dtype == bool and mask.size == 2 * rank * width
        assert state.scratch.size == 2 * rows * width

    def test_free_state_adds_the_x_update_arrays(self):
        # the X update's numerator, ratio and flush mask, shaped like the
        # bases, and a residual scratch of one frame chunk at most
        rng = np.random.default_rng(3)
        rows, rank, cols = 5, 2, FRAME_CHUNK + 9
        problem = nmf_mod.NmfProblem(z=random_complex(rng, (rows, cols)), rank=rank)
        state = nmf_mod.NmfState(problem, cols)
        arrays = buffers(state)
        assert len(arrays) == 11
        assert all(a.ctypes.data % 64 == 0 and a.flags.c_contiguous for a in arrays)
        shape = (2 * rows, 2 * rank)
        assert state.xnum.shape == state.xratio.shape == state.xmask.shape == shape
        assert state.xmask.dtype == bool
        assert state.scratch.size == 2 * rows * FRAME_CHUNK

    @pytest.mark.parametrize("pooled", [False, True])
    def test_each_thread_keeps_its_buffers(self, monkeypatch, two_blas_threads, pooled):
        # each thread is pointed at its parts in turn, in the same arrays:
        # every view a step writes starts where its buffer does
        names = ("h", "xtz", "product", "xtz_sum", "mask", "sd", "vd")
        seen = {}
        step = cmf_mod.nmf_step

        def recording(state, problem):
            views = tuple(getattr(state, n).ctypes.data for n in names)
            flat = tuple(state._flat[n][1].ctypes.data for n in names)
            assert views == flat
            parts = seen.setdefault(threading.get_ident(), {})
            parts.setdefault(id(state.objective_history), set()).add((id(state), views))
            return step(state, problem)

        monkeypatch.setattr(cmf_mod, "nmf_step", recording)
        if not pooled:
            set_blas_threads(1)
        z, x, h_init, cfg = segments_stopping_apart()
        cmf_factorize(z, 3, cfg, fixed_x=x, checkpoint_every=50, h_init=h_init)
        assert len(seen) == (2 if pooled else 1)
        assert sum(map(len, seen.values())) == 3
        for parts in seen.values():
            assert len(set.union(*parts.values())) == 1


class TestFixedSolveMemory:
    def test_steps_allocate_less_than_a_frame_chunk(self, monkeypatch, two_blas_threads):
        # each thread steps its segments in arrays allocated before the
        # threads start: from the first step on, neither the steps nor
        # the segments built and checkpointed between them, on either
        # thread, raise the traced peak by one F × FRAME_CHUNK float64
        # array
        rng = np.random.default_rng(36)
        rows, rank, frames = 257, 80, 3 * FRAME_CHUNK - 100
        z, x = random_complex(rng, (rows, frames)), random_complex(rng, (rows, rank))
        h_init = tuple(rng.random((2, rank, frames)))
        base = []
        step = cmf_mod.nmf_step

        def sampled(state, problem):
            if not base:
                base.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return step(state, problem)

        monkeypatch.setattr(cmf_mod, "nmf_step", sampled)
        tracemalloc.start()
        try:
            cmf_factorize(
                z, rank, SepConfig(rank=rank, iters=4, tol=0.0), fixed_x=x,
                checkpoint_every=2, h_init=h_init,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base[0] < rows * FRAME_CHUNK * 8

    def test_holds_no_block_matrix(self):
        # Zc alone is twice z.nbytes; a fixed solve forms only a frame
        # chunk of [Re Z; Im Z] at a time, and no complex F×T residual
        rng = np.random.default_rng(30)
        z = random_complex(rng, (257, 4100))
        x = random_complex(rng, (257, 4))
        cfg = SepConfig(rank=4, iters=3, tol=0.0)
        tracemalloc.start()
        try:
            cmf_factorize(z, 4, cfg, fixed_x=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < z.nbytes

    def test_given_start_holds_no_block_matrix(self):
        # given halves come back as they are, neither stacked nor put
        # through the 2K x 2T block matrix that a drawn start ties, and
        # fixed bases are not copied
        rng = np.random.default_rng(32)
        rank, cols = 80, 4100
        problem = nmf_mod.NmfProblem(
            z=random_complex(rng, (257, cols)), rank=rank, fixed_x=random_complex(rng, (257, rank))
        )
        h_init = (rng.random((rank, cols)), rng.random((rank, cols)))
        tracemalloc.start()
        try:
            x, hp, hm = cmf_mod._start(problem, 0, h_init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x is problem.xc and hp is h_init[0] and hm is h_init[1]
        assert peak < hp.nbytes

    def test_segmented_peak_does_not_grow_with_frames(self):
        # one frame chunk's numerator, weights and products at a time:
        # beyond the inputs and the output weights, the peak stays level
        rng = np.random.default_rng(35)
        rank, extra = 80, []
        for frames in (2048, 8192):
            z = random_complex(rng, (257, frames))
            x = random_complex(rng, (257, rank))
            h_init = tuple(rng.random((2, rank, frames)))
            cfg = SepConfig(rank=rank, iters=2, tol=0.0)
            tracemalloc.start()
            try:
                res = cmf_factorize(z, rank, cfg, fixed_x=x, h_init=h_init)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - res.h.nbytes)
        assert extra[1] <= 1.05 * extra[0]


class TestFreeSolveMemory:
    def test_holds_the_sign_parts_and_one_step(self):
        # the sign parts of [Re Z; Im Z] take 2·z.nbytes, the bytes of
        # Zc; beyond them a free solve holds its state: two 4K × T arrays
        # and four the size of W = [h+; h-] with W's flush mask (8⅛ W),
        # three arrays shaped like the bases X for its X update (X's
        # flush mask one of them) and one frame chunk of residual; and,
        # while the state is built, the bases, the start's W and the
        # output weights (½ W). Splitting Z and assembling Zc from the
        # parts held 4·z.nbytes at once
        rng = np.random.default_rng(37)
        rows, rank, cols = 257, 4, 2048
        z = random_complex(rng, (rows, cols))
        tracemalloc.start()
        try:
            cmf_factorize(z, rank, SepConfig(rank=rank, iters=3, tol=0.0), checkpoint_every=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        w_bytes, x_bytes = 2 * rank * cols * 8, 2 * rows * 2 * rank * 8
        state = 8.125 * w_bytes + 3.125 * x_bytes + 2 * rows * FRAME_CHUNK * 8
        # rank-sized terms and the buffers' alignment padding stay below 64 kB
        assert peak < 2 * z.nbytes + state + 1.5 * w_bytes + 64 * 1024

    def test_a_step_allocates_nothing_frame_sized(self, monkeypatch):
        # from the second step on, a step's traced peak above its entry is
        # the same at 186 frames as at 624: only rank-sized arrays are
        # formed (G, U, V and H·Hᵀ, at most 2K × 2K)
        rows, rank, peaks = 257, 40, {}
        step = cmf_mod.nmf_step

        def sampled(state, problem):
            calls.append(None)
            if len(calls) < 2:
                return step(state, problem)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = step(state, problem)
            peaks[cols] = max(peaks.get(cols, 0), tracemalloc.get_traced_memory()[1] - base)
            return out

        monkeypatch.setattr(cmf_mod, "nmf_step", sampled)
        for cols in (186, 624):
            calls = []
            z = random_complex(np.random.default_rng(cols), (rows, cols))
            tracemalloc.start()
            try:
                cmf_factorize(z, rank, SepConfig(rank=rank, iters=4, tol=0.0))
            finally:
                tracemalloc.stop()
        assert abs(peaks[624] - peaks[186]) < 16 * 1024


class TestTracedCallPath:
    """The benchmark's per-layer trace wraps these module-level names, so
    the solver must keep calling through them."""

    @pytest.mark.parametrize("mode", ["free", "fixed", "fixed_h_init"])
    def test_wrapped_names_are_called(self, monkeypatch, mode):
        counts = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(cmf_mod, "symmetrize_h")
        count(cmf_mod, "nmf_step")
        count(nmf_mod, "frobenius_norm_sq")
        rng = np.random.default_rng(17)
        z = random_complex(rng, (6, 5))
        kwargs = {}
        if mode != "free":
            kwargs["fixed_x"] = random_complex(rng, (6, 2))
        if mode == "fixed_h_init":
            kwargs["h_init"] = (rng.random((2, 5)), rng.random((2, 5)))
        cmf_factorize(z, 2, SepConfig(rank=2, iters=7, tol=0.0), **kwargs)
        # a drawn start is tied once, then every iteration ties its
        # update ratio; given halves are stacked untied, since tying
        # them would give them back unchanged
        assert counts["symmetrize_h"] == (7 if mode == "fixed_h_init" else 8)
        assert counts["nmf_step"] == 7
        assert counts["frobenius_norm_sq"] >= 1


class TestSubnormalFlush:
    def test_factor_entries_are_zero_or_normal(self, monkeypatch):
        # weights fitted with bases trained on the same input, and the
        # training itself, drive some entries toward 0 geometrically
        states = []
        step = cmf_mod.nmf_step

        def recording(state, problem):
            if not states or states[-1] is not state:
                states.append(state)
            return step(state, problem)

        monkeypatch.setattr(cmf_mod, "nmf_step", recording)
        z = random_complex(np.random.default_rng(0), (32, 24))
        cfg = SepConfig(rank=4, iters=500, tol=0.0)
        trained = cmf_factorize(z, 4, cfg)
        cmf_factorize(z, 4, cfg, fixed_x=trained.x)
        assert len(states) == 2
        floor = np.sqrt(np.finfo(np.float64).tiny)
        for state in states:
            for a in (state.x, state.h):
                assert np.all((a == 0) | (a >= floor))


class TestComplexErrorBound:
    """Write R for the block residual Zc - Xc Hc with tied Hc. Then
    Re(Z - XH) = R11 - R12 and Im(Z - XH) = R21 - R22, and by the tied
    block identity (TestTiedBlockIdentity) |Z - XH|^2 <= 2 * block
    objective."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_residual_identity(self, seed):
        rng = np.random.default_rng(seed)
        rows, rank, cols = (int(v) for v in rng.integers(1, 9, size=3))
        z = random_complex(rng, (rows, cols))
        xc = rng.random((2 * rows, 2 * rank))
        hp, hm = rng.random((rank, cols)), rng.random((rank, cols))
        r = assemble_zc(split_complex(z)).assembled - xc @ assemble_hc(hp, hm).assembled
        x = (xc[:rows, :rank] - xc[:rows, rank:]) + 1j * (
            xc[rows:, :rank] - xc[rows:, rank:]
        )
        diff = z - x @ (hp - hm)
        r11, r12 = r[:rows, :cols], r[:rows, cols:]
        r21, r22 = r[rows:, :cols], r[rows:, cols:]
        np.testing.assert_allclose(diff.real, r11 - r12, rtol=0, atol=1e-12)
        np.testing.assert_allclose(diff.imag, r21 - r22, rtol=0, atol=1e-12)
        assert frobenius_norm_sq(diff) <= 2 * frobenius_norm_sq(r) * (1 + 1e-12)

    def test_bound_holds_at_every_checkpoint(self):
        from test_acceptance import checkpointed_descent_runs

        worst = 0.0
        for _, res in checkpointed_descent_runs():
            for _, block_obj, complex_err in res.checkpoints:
                assert complex_err <= 2 * block_obj * (1 + 1e-12)
                worst = max(worst, complex_err / block_obj)
        # the ratio exceeds 1 on this workload, which is why criterion 4
        # states the constant 2: the cross terms <R11, R12> and <R21, R22>
        # can be negative, so the block objective alone does not bound it
        assert worst > 1.0

    def test_factor_two_is_attained(self):
        # on this input the solve stalls at 0.45 relative complex error
        # while X~s fits Z~ almost exactly, so the slack 2 * block -
        # complex error vanishes and the bound's constant 2 is reached
        rng = np.random.default_rng(3)
        z = random_complex(rng, (2, 2))
        res = cmf_factorize(z, 2, SepConfig(rank=2, iters=5000, tol=0, seed=3))
        _, block_obj, complex_err = res.checkpoints[-1]
        assert complex_err / block_obj > 1.9999999
        assert (2 * block_obj - complex_err) / frobenius_norm_sq(z) < 1e-9


def tied_identity_sides(rng, rows, rank, cols, tied=True):
    """The block objective |Zc - Xc Hc|^2 and the two-term form
    ½|Z - Xh|^2 + ½|Z~ - X~s|^2 for random Z, Xc and weight blocks.
    Untied blocks keep h+ and h- in the first block row and draw the
    second one independently."""
    z = random_complex(rng, (rows, cols))
    xc = rng.random((2 * rows, 2 * rank))
    hp, hm = rng.random((rank, cols)), rng.random((rank, cols))
    hc = assemble_hc(hp, hm).assembled
    if not tied:
        hc[rank:] = rng.random((rank, 2 * cols))
    block = frobenius_norm_sq(assemble_zc(split_complex(z)).assembled - xc @ hc)
    xpr, xnr = xc[:rows, :rank], xc[:rows, rank:]
    xpi, xni = xc[rows:, :rank], xc[rows:, rank:]
    x = (xpr - xnr) + 1j * (xpi - xni)
    x_abs = (xpr + xnr) + 1j * (xpi + xni)
    z_abs = np.abs(z.real) + 1j * np.abs(z.imag)
    two_term = 0.5 * frobenius_norm_sq(z - x @ (hp - hm)) + 0.5 * frobenius_norm_sq(
        z_abs - x_abs @ (hp + hm)
    )
    return block, two_term


class TestTiedBlockIdentity:
    """Write h = h+ - h-, s = h+ + h-, X = (Xpr - Xnr) + i(Xpi - Xni),
    X~ = (Xpr + Xnr) + i(Xpi + Xni) and Z~ = |Re Z| + i|Im Z|. The
    symmetric orthogonal Q = [[I, I], [I, -I]]/sqrt(2) gives
    Q [[h+, h-], [h-, h+]] Q = diag(s, h), Zc Q = [[Re Z~, Re Z],
    [Im Z~, Im Z]]/sqrt(2) and likewise Xc Q for X~ and X.
    Right-multiplying the block residual by Q keeps its norm, so with
    tied blocks

        block objective = ½|Z - Xh|^2 + ½|Z~ - X~s|^2,

    hence |Z - Xh|^2 = 2 * block objective - |Z~ - X~s|^2, the factor 2
    of criterion 4 with its exact slack."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_tied_blocks_split_into_two_fits(self, seed):
        rng = np.random.default_rng(seed)
        rows, rank, cols = (int(v) for v in rng.integers(1, 9, size=3))
        block, two_term = tied_identity_sides(rng, rows, rank, cols)
        assert abs(block - two_term) <= 1e-12 * block

    @pytest.mark.parametrize("seed", range(3))
    def test_holds_at_spectrogram_size(self, seed):
        rng = np.random.default_rng(seed)
        block, two_term = tied_identity_sides(rng, 257, 40, 156)
        assert abs(block - two_term) <= 1e-12 * block

    @pytest.mark.parametrize("seed", range(3))
    def test_untied_blocks_break_it(self, seed):
        rng = np.random.default_rng(seed)
        block, two_term = tied_identity_sides(rng, 257, 40, 156, tied=False)
        assert abs(block - two_term) > 1e-3 * block


class TestStatedConvergenceTargets:
    """Convergence figures stated for two reference runs; both are
    unattainable for this algorithm (see the failure analyses in the
    sibling acceptance notes), kept here as strict expected failures."""

    @pytest.mark.xfail(
        strict=True,
        reason="the averaging tie freezes the weight-half ratio for a "
        "purely imaginary 1x1 input; the iteration converges to a "
        "strictly positive residual depending on the initial ratio",
    )
    def test_scalar_imaginary_exact(self):
        res = cmf_factorize(np.array([[5j]]), 1, SepConfig(rank=1, iters=500))
        assert res.final_error <= 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="dense unstructured complex input: the block objective's "
        "minimum does not align with the complex-domain error; observed "
        "median relative error is ~0.35, not 0.05",
    )
    def test_random_64x50_rank40(self):
        rels = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            z = random_complex(rng, (64, 50))
            res = cmf_factorize(z, 40, SepConfig(rank=40, iters=500, seed=seed))
            rels.append(np.sqrt(res.final_error / frobenius_norm_sq(z)))
        assert np.median(rels) <= 0.05
