import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocks import assembled_zc, stacked_numerator
from cmfsep.cmf import EPSILON, FLUSH_BELOW, _start, nmf_step
from cmfsep.linalg import frobenius_norm_sq
from cmfsep.nmf import FRAME_CHUNK, GRAM_GUARD, NmfProblem, NmfState, gram_terms, objective


def tied(z, rank, fixed_x=None):
    """The tied problem of complex ``z`` at complex rank ``rank``."""
    return NmfProblem(z=z, rank=rank, fixed_x=fixed_x)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_problem(seed, rows=4, cols=3, rank=2):
    """A random complex problem; its block problem is 8×6 at rank 4."""
    return tied(random_complex(np.random.default_rng(seed), (rows, cols)), rank)


def assembled(w):
    """H = [W, ΠW] = [[h+, h-], [h-, h+]] from W = [h+; h-]."""
    half = len(w) // 2
    return np.concatenate((w, np.concatenate((w[half:], w[:half]))), axis=1)


def planted_fit(rng, rows, rank, cols):
    """Complex bases x (rows × rank) and positive real weights h whose
    product z splits to an exact tied fit: each row of x keeps one sign
    of real and one of imaginary part, so Zc = Xc·[W, ΠW] with Xc the
    block bases of x and W = [h; 0]. Both signs of each part occur, so no
    column of Xc is zero. Returns x, Xc, W and z."""
    sr = np.resize([1.0, -1.0], rows)[:, None]
    si = np.resize([1.0, 1.0, -1.0, -1.0], rows)[:, None]
    x = sr * rng.uniform(0.1, 1.0, (rows, rank)) + 1j * si * rng.uniform(
        0.1, 1.0, (rows, rank)
    )
    h = rng.uniform(0.1, 1.0, (rank, cols))
    return x, assembled_zc(x), np.concatenate((h, np.zeros_like(h))), x @ h


def run_steps(problem, iters, seed=0):
    """The seeded start, then a fixed number of steps."""
    state = _start(problem, seed)
    for _ in range(iters):
        nmf_step(state, problem)
    return state


class TestProblemValidation:
    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            tied(np.ones((2, 2)), 0)

    def test_rejects_fixed_x_shape(self):
        with pytest.raises(ValueError, match="fixed_x shape"):
            tied(np.ones((2, 2)), 2, fixed_x=np.ones((3, 2)))

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError, match="empty"):
            tied(np.ones((0, 2)), 1)
        with pytest.raises(ValueError, match="non-finite"):
            tied(np.array([[1.0, complex(0, np.nan)]]), 1)
        with pytest.raises(ValueError, match="non-finite"):
            tied(np.ones((2, 2)), 1, fixed_x=np.array([[1.0], [np.inf]]))

    @pytest.mark.parametrize("fixed", [False, True])
    def test_block_matrix_only_with_free_bases(self, fixed):
        rng = np.random.default_rng(1)
        z = random_complex(rng, (5, 4))
        problem = tied(z, 2, fixed_x=random_complex(rng, (5, 2)) if fixed else None)
        assert problem.z_norm_sq == pytest.approx(frobenius_norm_sq(assembled_zc(z)), rel=1e-15)
        if fixed:
            assert problem.zc is None
            assert np.array_equal(problem.xc, assembled_zc(problem.fixed_x))
        else:
            assert np.array_equal(problem.zc, assembled_zc(z))
            assert problem.xc is None and problem.xtz is None


class TestChunkedFixedTerms:
    """With fixed bases the stacked numerator is built a frame chunk at a
    time; it must equal the one formed from the whole Zc."""

    @pytest.mark.parametrize(
        "frames", [1, FRAME_CHUNK - 1, FRAME_CHUNK, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 1]
    )
    def test_numerator_matches_assembled(self, frames):
        rng = np.random.default_rng(frames)
        z, x = random_complex(rng, (3, frames)), random_complex(rng, (3, 2))
        problem = tied(z, 2, fixed_x=x)
        want = stacked_numerator(assembled_zc(x), assembled_zc(z))
        assert problem.xtz.shape == want.shape == (8, frames)
        np.testing.assert_allclose(problem.xtz, want, rtol=1e-14, atol=0)


class TestInit:
    """The seeded start, ``cmf._start``: bases, then the tied weights."""

    def test_same_seed_bit_identical(self):
        problem = random_problem(0)
        a = _start(problem, 42)
        b = _start(problem, 42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.h, b.h)

    def test_fixed_x_copied(self):
        x = random_complex(np.random.default_rng(2), (2, 1))
        problem = tied(np.ones((2, 2)), 1, fixed_x=x)
        state = _start(problem, 0)
        assert np.array_equal(state.x, assembled_zc(x))
        assert state.x is not problem.xc

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_entries_above_epsilon(self, seed):
        problem = random_problem(seed)
        state = _start(problem, seed)
        assert state.x.min() >= EPSILON
        assert state.h.min() >= EPSILON

    def test_draw_order(self):
        # one generator: the bases, then the 2K x 2T weight block matrix,
        # tied by averaging, of which W is the left column block
        problem = random_problem(3)
        state = _start(problem, 5)
        rng = np.random.default_rng(5)
        x = np.maximum(rng.random((8, 4)), EPSILON)
        hc = np.maximum(rng.random((4, 6)), EPSILON)
        h_plus = 0.5 * (hc[:2, :3] + hc[2:, 3:])
        h_minus = 0.5 * (hc[:2, 3:] + hc[2:, :3])
        assert np.array_equal(state.x, x)
        assert np.array_equal(state.h, np.concatenate((h_plus, h_minus)))


class TestStep:
    def test_hand_evaluated_scalar_update(self):
        # one bin, one frame, rank one: z = 3 - 1j splits to
        # Zc = [[3, 0], [0, 1]]; X = ones and W = [1; 1], so H = ones.
        # X <- X * (Zc Hᵀ) / (X H Hᵀ) = [[3, 3], [1, 1]] / 4.
        # XᵀZc = [[2.25, 0.25], [2.25, 0.25]] and XᵀX H = 1.25 everywhere,
        # so the block ratios are R11 = R21 = 1.8 and R12 = R22 = 0.2;
        # tied, h+ takes (R11 + R22)/2 = 1 and h- takes (R12 + R21)/2 = 1,
        # so W stays [1; 1]. X H = [[1.5, 1.5], [0.5, 0.5]] leaves a
        # residual of 5.
        problem = tied(np.array([[3.0 - 1.0j]]), 1)
        state = NmfState(x=np.ones((2, 2)), h=np.ones((2, 1)))
        nmf_step(state, problem)
        np.testing.assert_allclose(state.x, [[0.75, 0.75], [0.25, 0.25]], rtol=1e-15)
        np.testing.assert_allclose(state.h, [[1.0], [1.0]], rtol=1e-15)
        assert state.objective_history == pytest.approx([5.0], rel=1e-14)

    def test_exact_factorization_is_fixed_point(self):
        _, xc, w, z = planted_fit(np.random.default_rng(10), rows=4, rank=2, cols=5)
        problem = tied(z, 2)
        state = NmfState(x=xc.copy(), h=w.copy())
        nmf_step(state, problem)
        np.testing.assert_allclose(state.x, xc, rtol=1e-12)
        np.testing.assert_allclose(state.h, w, rtol=1e-12)

    def test_history_nonincreasing(self):
        hist = run_steps(random_problem(11), 100).objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_fixed_x_never_updated(self):
        rng = np.random.default_rng(12)
        x = random_complex(rng, (3, 1))
        state = run_steps(tied(random_complex(rng, (3, 2)), 1, fixed_x=x), 10)
        assert np.array_equal(state.x, assembled_zc(x))

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_nonnegativity_preserved(self, seed):
        problem = random_problem(seed)
        state = _start(problem, seed)
        for _ in range(20):
            nmf_step(state, problem)
            assert np.all(state.x >= 0) and np.all(state.h >= 0)

    def test_product_scale_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0.1, 1.0, (6, 3))
        h = rng.uniform(0.1, 1.0, (3, 5))
        c = rng.uniform(0.5, 3.0, 3)
        assert np.max(np.abs((x * c) @ (h / c[:, None]) - x @ h)) <= 1e-12


class TestSolve:
    """Tied problems driven to convergence by repeated ``nmf_step``."""

    def test_full_rank_square_converges(self):
        # from rank K = T on, an exact fit exists (h+ = I, h- = 0 and X
        # holding the columns of Z); on small squares the tied update
        # stalls on some seeds even at K = 2T (0.16 relative at side 3 on
        # seed 6, 9.2e-3 at side 4 on seed 3), so this runs at side 6 and
        # twice the full rank
        rels = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            z = random_complex(rng, (6, 6))
            state = run_steps(tied(z, 12), 2000, seed=seed)
            rels.append(state.objective_history[-1] / frobenius_norm_sq(z))
        assert max(rels) <= 1e-3

    def test_fixed_x_recovers_planted_weights(self):
        x, _, _, z = planted_fit(np.random.default_rng(15), rows=4, rank=2, cols=6)
        state = run_steps(tied(z, 2, fixed_x=x), 2000)
        assert state.objective_history[-1] <= 1e-6


def histories(problem, iters, seed=0):
    """Recorded objective and the direct residual after each of ``iters`` steps."""
    state = _start(problem, seed)
    zc, direct = assembled_zc(problem.z), []
    for _ in range(iters):
        nmf_step(state, problem)
        direct.append(frobenius_norm_sq(zc - state.x @ assembled(state.h)))
    return np.array(state.objective_history), np.array(direct)


class TestGramObjective:
    """The recorded objective comes from the Gram form above
    ``GRAM_GUARD``·|Z|^2 and is the direct residual below it."""

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_direct_residual_above_guard(self, seed, fixed):
        rng = np.random.default_rng(seed)
        z = random_complex(rng, (20, 15))
        problem = tied(z, 3, fixed_x=random_complex(rng, (20, 3)) if fixed else None)
        recorded, direct = histories(problem, 300, seed)
        assert np.all(recorded >= GRAM_GUARD * problem.z_norm_sq)
        assert np.max(np.abs(recorded - direct) / direct) <= 1e-12

    @pytest.mark.parametrize("fixed", [False, True])
    def test_direct_residual_below_guard(self, fixed):
        x, _, _, z = planted_fit(np.random.default_rng(17), rows=4, rank=2, cols=3)
        problem = tied(z, 2, fixed_x=x if fixed else None)
        recorded, direct = histories(problem, 2000)
        below = recorded < GRAM_GUARD * problem.z_norm_sq
        assert below.sum() > 100
        assert np.array_equal(recorded[below], direct[below])
        # a guard set too low lets Gram rounding noise into this descent
        assert np.all(np.abs(recorded - direct) <= 1e-12 * direct)

    def test_chunked_direct_residual_below_guard(self):
        # three frame chunks: the direct residual is summed chunk by chunk
        cols = 2 * FRAME_CHUNK + 5
        x, _, _, z = planted_fit(np.random.default_rng(18), rows=4, rank=2, cols=cols)
        problem = tied(z, 2, fixed_x=x)
        recorded, direct = histories(problem, 500)
        below = recorded < GRAM_GUARD * problem.z_norm_sq
        assert below.sum() > 100
        assert np.all(np.abs(recorded[below] - direct[below]) <= 1e-12 * direct[below])


def block_coupling(rank, cols):
    """The weight-block tie built as a new array with ``np.block``."""

    def couple(hc):
        h_plus = 0.5 * (hc[:rank, :cols] + hc[rank:, cols:])
        h_minus = 0.5 * (hc[:rank, cols:] + hc[rank:, :cols])
        return np.block([[h_plus, h_minus], [h_minus, h_plus]])

    return couple


def reference_step(state, problem, couple):
    """One step on the 2K×2T block matrix H, computed plainly: XᵀZ and
    XᵀX formed here, nothing carried from the last step, an allocating
    H-update ratio, the tie applied to H, and the quadratic term as
    ⟨H, XᵀX H⟩."""
    z, eps = assembled_zc(problem.z), EPSILON
    x, h = state.x, state.h
    if problem.fixed_x is None:
        x *= (z @ h.T) / np.maximum(x @ (h @ h.T), eps)
        x[x < FLUSH_BELOW] = 0.0
    xtz, xtx = x.T @ z, x.T @ x
    h *= xtz / np.maximum(xtx @ h, eps)
    h = couple(h)
    h[h < FLUSH_BELOW] = 0.0
    gram = problem.z_norm_sq - 2.0 * np.vdot(h, xtz) + np.vdot(h, xtx @ h)
    if gram < GRAM_GUARD * problem.z_norm_sq:
        gram = frobenius_norm_sq(z - x @ h)
    state.h = h
    state.objective_history.append(float(gram))


class TestCarriedProduct:
    """Each objective leaves the quadratic product the next update needs
    on the state (XᵀX·H with fixed bases, H·Hᵀ with free ones)."""

    @pytest.mark.parametrize("fixed", [False, True])
    def test_replacing_h_matches_a_fresh_state(self, fixed):
        rng = np.random.default_rng(20)
        fixed_x = random_complex(rng, (6, 2)) if fixed else None
        problem = tied(random_complex(rng, (6, 5)), 2, fixed_x=fixed_x)
        state = run_steps(problem, 5)
        h = rng.random((4, 5))
        state.h = h.copy()
        fresh = NmfState(x=state.x.copy(), h=h)
        for _ in range(5):
            nmf_step(state, problem)
            nmf_step(fresh, problem)
        assert state.objective_history[5:] == fresh.objective_history
        assert np.array_equal(state.x, fresh.x)
        assert np.array_equal(state.h, fresh.h)

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("planted", [False, True])
    def test_matches_reference_step(self, fixed, planted):
        """The stored-once step against the 2K×2T block step: the stacked
        products sum in another order, so agreement is to rounding."""
        rows, rank, cols = 10, 3, 8
        rng = np.random.default_rng(21)
        if planted:
            x, _, _, z = planted_fit(rng, rows, rank, cols)
        else:
            x, z = random_complex(rng, (rows, rank)), random_complex(rng, (rows, cols))
        problem = tied(z, rank, fixed_x=x if fixed else None)
        # set up as cmf_factorize does: the seeded start, then an
        # objective that seeds the carried product; the oracle steps the
        # block matrix of the same start
        state = _start(problem, 3)
        ref = NmfState(x=state.x.copy(), h=assembled(state.h))
        objective(problem, state, *gram_terms(problem, state.x))
        couple = block_coupling(rank, cols)
        for _ in range(300):
            nmf_step(state, problem)
            reference_step(ref, problem, couple)
        assert state.h.shape == (2 * rank, cols)
        # a split has zeros, and the factor entries they feed decay toward
        # 0 (to 1e-143 here), where rounding compounds over the steps; such
        # entries are held to 1e-12 of the largest, the rest to 1e-12
        for got, want in ((state.x, ref.x), (state.h, ref.h[:, :cols])):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())
        got, want = np.array(state.objective_history), np.array(ref.objective_history)
        # an exact fit ends at the rounding floor of |Z|^2, where only an
        # absolute bound is meaningful
        floor = 1e-18 * problem.z_norm_sq
        assert np.all(np.abs(got - want) <= np.maximum(1e-12 * want, floor))
