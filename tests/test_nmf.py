import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfsep.cmf import EPSILON, FLUSH_BELOW, _start, nmf_step
from cmfsep.linalg import frobenius_norm_sq
from cmfsep.nmf import GRAM_GUARD, NmfProblem, NmfState, gram_terms, objective


def tied(z, rank, fixed_x=None):
    return NmfProblem(z=z, rank=rank, fixed_x=fixed_x)


def random_problem(seed, m=8, p=6, rank=4):
    rng = np.random.default_rng(seed)
    return tied(rng.random((m, p)), rank)


def assembled(w):
    """H = [W, ΠW] = [[h+, h-], [h-, h+]] from W = [h+; h-]."""
    half = len(w) // 2
    return np.concatenate((w, np.concatenate((w[half:], w[:half]))), axis=1)


def planted(rng, rows, rank, cols):
    """Nonnegative bases (2·rows × 2·rank) and tied weights W that fit
    their product exactly."""
    x = rng.uniform(0.1, 1.0, (2 * rows, 2 * rank))
    w = rng.uniform(0.1, 1.0, (2 * rank, cols))
    return x, w, x @ assembled(w)


def run_steps(problem, iters, seed=0):
    """The seeded start, then a fixed number of steps."""
    state = _start(problem, seed)
    for _ in range(iters):
        nmf_step(state, problem)
    return state


class TestProblemValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tied(np.array([[1.0, -0.1]]), 2)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            tied(np.ones((2, 2)), 0)

    def test_rejects_fixed_x_shape(self):
        with pytest.raises(ValueError, match="fixed_x shape"):
            tied(np.ones((2, 2)), 2, fixed_x=np.ones((3, 2)))

    def test_rejects_negative_fixed_x(self):
        with pytest.raises(ValueError, match="fixed_x"):
            tied(np.ones((2, 2)), 2, fixed_x=-np.ones((2, 2)))


class TestInit:
    """The seeded start, ``cmf._start``: bases, then the tied weights."""

    def test_same_seed_bit_identical(self):
        problem = random_problem(0)
        a = _start(problem, 42)
        b = _start(problem, 42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.h, b.h)

    def test_fixed_x_copied(self):
        x = np.ones((4, 2))
        problem = tied(np.ones((4, 4)), 2, fixed_x=x)
        state = _start(problem, 0)
        assert np.array_equal(state.x, x)
        assert state.x is not problem.fixed_x

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
        # one bin, one frame, rank one: Z = [[5, 3], [3, 1]], X = ones
        # and W = [1; 1], so H = ones.
        # X <- X * (Z Hᵀ) / (X H Hᵀ) = [[8, 8], [4, 4]] / 4 = [[2, 2], [1, 1]].
        # XᵀZ = [[13, 7], [13, 7]] and XᵀX H = 10 everywhere, so the block
        # ratios are R11 = R21 = 1.3 and R12 = R22 = 0.7; tied, h+ takes
        # (R11 + R22)/2 = 1 and h- takes (R12 + R21)/2 = 1, so W stays
        # [1; 1]. X H = [[4, 4], [2, 2]] leaves a residual of 4.
        problem = tied(np.array([[5.0, 3.0], [3.0, 1.0]]), 2)
        state = NmfState(x=np.ones((2, 2)), h=np.ones((2, 1)))
        nmf_step(state, problem)
        np.testing.assert_allclose(state.x, [[2.0, 2.0], [1.0, 1.0]], rtol=1e-15)
        np.testing.assert_allclose(state.h, [[1.0], [1.0]], rtol=1e-15)
        assert state.objective_history == pytest.approx([4.0], rel=1e-14)

    def test_exact_factorization_is_fixed_point(self):
        x, w, z = planted(np.random.default_rng(10), rows=3, rank=2, cols=5)
        problem = tied(z, 4)
        state = NmfState(x=x.copy(), h=w.copy())
        nmf_step(state, problem)
        np.testing.assert_allclose(state.x, x, rtol=1e-12)
        np.testing.assert_allclose(state.h, w, rtol=1e-12)

    def test_history_nonincreasing(self):
        hist = run_steps(random_problem(11), 100).objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_fixed_x_never_updated(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0.1, 1.0, (6, 2))
        state = run_steps(tied(rng.random((6, 4)), 2, fixed_x=x), 10)
        assert np.array_equal(state.x, x)

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
        # from rank 2K = 2T on, an exact fit exists (h+ = I, h- = 0 and
        # X holding the columns of Z); at 2K = 2T itself the tied update
        # stalls at 1.02e-3 on seed 9 (the same after 5000 steps), so
        # this runs at twice that rank
        rels = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            z = rng.random((4, 4))
            state = run_steps(tied(z, 8), 2000, seed=seed)
            rels.append(state.objective_history[-1] / float(np.sum(z**2)))
        assert max(rels) <= 1e-3

    def test_fixed_x_recovers_planted_weights(self):
        x, _, z = planted(np.random.default_rng(15), rows=4, rank=2, cols=6)
        state = run_steps(tied(z, 4, fixed_x=x), 2000)
        assert state.objective_history[-1] <= 1e-6

    def test_tied_problem_needs_even_rank_and_columns(self):
        z = np.ones((4, 6))
        with pytest.raises(ValueError, match="even"):
            tied(z, 3)
        with pytest.raises(ValueError, match="even"):
            tied(z[:, :5], 2)


def histories(problem, iters, seed=0):
    """Recorded objective and the direct residual after each of ``iters`` steps."""
    state = _start(problem, seed)
    direct = []
    for _ in range(iters):
        nmf_step(state, problem)
        direct.append(frobenius_norm_sq(problem.z - state.x @ assembled(state.h)))
    return np.array(state.objective_history), np.array(direct)


class TestGramObjective:
    """The recorded objective comes from the Gram form above
    ``GRAM_GUARD``·|Z|^2 and is the direct residual below it."""

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_direct_residual_above_guard(self, seed, fixed):
        rng = np.random.default_rng(seed)
        z = rng.random((40, 30))
        problem = tied(z, 6, fixed_x=rng.random((40, 6)) if fixed else None)
        recorded, direct = histories(problem, 300, seed)
        assert np.all(recorded >= GRAM_GUARD * problem.z_norm_sq)
        assert np.max(np.abs(recorded - direct) / direct) <= 1e-12

    @pytest.mark.parametrize("fixed", [False, True])
    def test_direct_residual_below_guard(self, fixed):
        x, _, z = planted(np.random.default_rng(17), rows=4, rank=2, cols=3)
        problem = tied(z, 4, fixed_x=x if fixed else None)
        recorded, direct = histories(problem, 2000)
        below = recorded < GRAM_GUARD * problem.z_norm_sq
        assert below.sum() > 100
        assert np.array_equal(recorded[below], direct[below])
        # a guard set too low lets Gram rounding noise into this descent
        assert np.all(np.abs(recorded - direct) <= 1e-12 * direct)


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
    z, eps = problem.z, EPSILON
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
        problem = tied(rng.random((12, 10)), 4, fixed_x=rng.random((12, 4)) if fixed else None)
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
        xc = rng.uniform(0.1, 1.0, (2 * rows, 2 * rank))
        if planted:
            hp, hm = rng.uniform(0.1, 1.0, (2, rank, cols))
            z = xc @ np.block([[hp, hm], [hm, hp]])
        else:
            z = rng.random((2 * rows, 2 * cols))
        problem = tied(z, 2 * rank, fixed_x=xc if fixed else None)
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
        np.testing.assert_allclose(state.x, ref.x, rtol=1e-12)
        np.testing.assert_allclose(state.h, ref.h[:, :cols], rtol=1e-12)
        got, want = np.array(state.objective_history), np.array(ref.objective_history)
        # an exact fit ends at the rounding floor of |Z|^2, where only an
        # absolute bound is meaningful
        floor = 1e-18 * problem.z_norm_sq
        assert np.all(np.abs(got - want) <= np.maximum(1e-12 * want, floor))
