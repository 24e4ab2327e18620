import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfsep.linalg import frobenius_norm_sq
from cmfsep.nmf import GRAM_GUARD, NmfProblem, NmfState, nmf_init, nmf_step


def random_problem(seed, m=8, p=6, rank=3):
    rng = np.random.default_rng(seed)
    return NmfProblem(z=rng.random((m, p)), rank=rank)


def run_steps(problem, iters, seed=0):
    """Plain NMF: seeded init, then a fixed number of steps."""
    state = nmf_init(problem, seed)
    for _ in range(iters):
        nmf_step(state, problem)
    return state


class TestProblemValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            NmfProblem(z=np.array([[1.0, -0.1]]), rank=1)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            NmfProblem(z=np.ones((2, 2)), rank=0)

    def test_rejects_fixed_x_shape(self):
        with pytest.raises(ValueError, match="fixed_x shape"):
            NmfProblem(z=np.ones((2, 2)), rank=1, fixed_x=np.ones((3, 1)))

    def test_rejects_negative_fixed_x(self):
        with pytest.raises(ValueError, match="fixed_x"):
            NmfProblem(z=np.ones((2, 2)), rank=1, fixed_x=-np.ones((2, 1)))

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            NmfProblem(z=np.ones((2, 2)), rank=1, epsilon=0.0)


class TestInit:
    def test_same_seed_bit_identical(self):
        problem = random_problem(0)
        a = nmf_init(problem, 42)
        b = nmf_init(problem, 42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.h, b.h)

    def test_fixed_x_copied(self):
        x = np.ones((4, 2))
        problem = NmfProblem(z=np.ones((4, 3)), rank=2, fixed_x=x)
        state = nmf_init(problem, 0)
        assert np.array_equal(state.x, x)
        assert state.x is not problem.fixed_x

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_entries_above_epsilon(self, seed):
        problem = random_problem(seed)
        state = nmf_init(problem, seed)
        assert state.x.min() >= problem.epsilon
        assert state.h.min() >= problem.epsilon


class TestStep:
    def test_hand_evaluated_scalar_update(self):
        # Z=[[2]], X=[[1]], H=[[1]]: X <- 1*(2*1)/(1*1*1) = 2,
        # then H <- 1*(2*2)/(2*2*1) = 1; residual is zero.
        problem = NmfProblem(z=np.array([[2.0]]), rank=1)
        state = NmfState(x=np.array([[1.0]]), h=np.array([[1.0]]))
        nmf_step(state, problem)
        assert state.x[0, 0] == pytest.approx(2.0)
        assert state.h[0, 0] == pytest.approx(1.0)
        assert state.objective_history == pytest.approx([0.0], abs=1e-15)

    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.5, 1.5, (6, 3))
        h = rng.uniform(0.5, 1.5, (3, 5))
        problem = NmfProblem(z=x @ h, rank=3)
        state = NmfState(x=x.copy(), h=h.copy())
        nmf_step(state, problem)
        np.testing.assert_allclose(state.x, x, rtol=1e-12)
        np.testing.assert_allclose(state.h, h, rtol=1e-12)

    def test_history_nonincreasing(self):
        hist = run_steps(random_problem(11), 100).objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_fixed_x_never_updated(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0.1, 1.0, (5, 2))
        state = run_steps(NmfProblem(z=rng.random((5, 4)), rank=2, fixed_x=x), 10)
        assert np.array_equal(state.x, x)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_nonnegativity_preserved(self, seed):
        problem = random_problem(seed)
        state = nmf_init(problem, seed)
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
    """Plain NMF driven to convergence by repeated ``nmf_step``."""

    def test_full_rank_square_converges(self):
        rels = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            z = rng.random((4, 4))
            state = run_steps(NmfProblem(z=z, rank=4), 2000, seed=seed)
            rels.append(state.objective_history[-1] / float(np.sum(z**2)))
        assert max(rels) <= 1e-3

    def test_fixed_x_recovers_planted_weights(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(0.1, 1.0, (8, 3))
        h = rng.uniform(0.1, 1.0, (3, 6))
        state = run_steps(NmfProblem(z=x @ h, rank=3, fixed_x=x), 2000)
        assert state.objective_history[-1] <= 1e-6

    def test_coupling_hook_runs_every_iteration(self):
        calls = []

        def hook(h):
            calls.append(1)
            return h

        problem = NmfProblem(z=np.random.default_rng(16).random((4, 4)), rank=2, coupling=hook)
        run_steps(problem, 7)
        assert len(calls) == 7


def histories(problem, iters, seed=0):
    """Recorded objective and the direct residual after each of ``iters`` steps."""
    state = nmf_init(problem, seed)
    direct = []
    for _ in range(iters):
        nmf_step(state, problem)
        direct.append(frobenius_norm_sq(problem.z - state.x @ state.h))
    return np.array(state.objective_history), np.array(direct)


class TestGramObjective:
    """The recorded objective comes from the Gram form above
    ``GRAM_GUARD``·|Z|^2 and is the direct residual below it."""

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_direct_residual_above_guard(self, seed, fixed):
        rng = np.random.default_rng(seed)
        z = rng.random((40, 30))
        problem = NmfProblem(z=z, rank=6, fixed_x=rng.random((40, 6)) if fixed else None)
        recorded, direct = histories(problem, 300, seed)
        assert np.all(recorded >= GRAM_GUARD * problem.z_norm_sq)
        assert np.max(np.abs(recorded - direct) / direct) <= 1e-12

    @pytest.mark.parametrize("fixed", [False, True])
    def test_direct_residual_below_guard(self, fixed):
        rng = np.random.default_rng(17)
        x = rng.uniform(0.1, 1.0, (8, 3))
        z = x @ rng.uniform(0.1, 1.0, (3, 6))
        problem = NmfProblem(z=z, rank=3, fixed_x=x if fixed else None)
        recorded, direct = histories(problem, 2000)
        below = recorded < GRAM_GUARD * problem.z_norm_sq
        assert below.sum() > 100
        assert np.array_equal(recorded[below], direct[below])
        # a guard set too low lets Gram rounding noise into this descent
        assert np.all(np.abs(recorded - direct) <= 1e-12 * direct)
