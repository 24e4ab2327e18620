import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocks import (
    assembled_zc,
    block_coupling,
    block_state,
    direct_denominator,
    part_state,
    reference_step,
    stacked_numerator,
    start_state,
)
from cmfsep.cmf import EPSILON, cmf_factorize, nmf_step
from cmfsep.config import SepConfig
from cmfsep.linalg import FRAME_CHUNK, SAMPLE_CHUNK, frobenius_norm_sq
from cmfsep.nmf import (
    GRAM_GUARD,
    NmfProblem,
    _direct_residual,
    _numerator,
    _residuals,
    _sign_parts,
    _stacked_product,
    _sum_difference,
    _sums,
    _weight_gram,
    complex_error,
    gram_terms,
    objective,
)


def tied(z, rank, fixed_x=None):
    """The tied problem of complex ``z`` at complex rank ``rank``."""
    return NmfProblem(z=z, rank=rank, fixed_x=fixed_x)


def ones_halves(problem):
    """Weight halves (h⁺, h⁻) of ones over all of ``problem``'s frames."""
    return np.ones((2, problem.rank, problem.z.shape[1]))


def stacked(uv, w):
    """``_stacked_product`` of ``uv`` and W = ``w``, into new arrays."""
    sd = _sums(w, np.empty_like(w))
    return _stacked_product(uv, sd, np.empty((2 * len(w), w.shape[1])), np.empty_like(w))


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
    state = start_state(problem, seed)
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

    def test_accepts_finite_entries_whose_squares_overflow(self):
        # ‖Z‖² is not finite, so the exact mask decides
        z = np.full((3, SAMPLE_CHUNK), 1e200 - 1e200j)
        problem = tied(z, 1)
        assert not np.isfinite(problem.z_norm_sq)
        assert np.array_equal(problem.z, z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    # the first and the last entry, and the first of the third chunk of
    # SAMPLE_CHUNK entries
    @pytest.mark.parametrize("at", [(0, 0), (-1, -1), (2, 0)])
    def test_rejects_non_finite_in_any_chunk(self, bad, part, at):
        z = np.ones((3, SAMPLE_CHUNK), dtype=complex)
        z[at] = complex(bad, 1.0) if part == "real" else complex(1.0, bad)
        with pytest.raises(ValueError, match="non-finite"):
            tied(z, 1)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_holds_sign_parts_and_no_block_matrix(self, fixed):
        # free bases read Z as the sign parts of Zri = [Re Z; Im Z], Zc's
        # column halves, in two arrays; no problem, nor the state of a
        # part of one, holds a 2F×2T array
        rng = np.random.default_rng(1)
        z = random_complex(rng, (5, 4))
        fixed_x = random_complex(rng, (5, 2)) if fixed else None
        problem = NmfProblem(z=z, rank=2, fixed_x=fixed_x)
        assert problem.z_norm_sq == pytest.approx(frobenius_norm_sq(assembled_zc(z)), rel=1e-15)
        # only a part's state builds a numerator
        assert not hasattr(problem, "xtz")
        problems = [problem]
        if fixed:
            assert problem.zp is None and problem.zn is None
            assert np.array_equal(problem.xc, assembled_zc(problem.fixed_x))
            xri = np.concatenate((fixed_x.real, fixed_x.imag))
            assert np.array_equal(problem.pq[0], np.abs(xri))
            assert np.array_equal(problem.pq[1], xri)
            problems.append(part_state(problem, problem.xc, ones_halves(problem)))
        else:
            zri, zc = np.concatenate((z.real, z.imag)), assembled_zc(z)
            assert np.array_equal(problem.zp, np.maximum(zri, 0.0))
            assert np.array_equal(problem.zn, np.maximum(-zri, 0.0))
            assert np.array_equal(np.hstack((problem.zp, problem.zn)), zc)
            assert problem.xc is None
        for held in problems:
            arrays = [a for a in vars(held).values() if isinstance(a, np.ndarray)]
            assert arrays and all(a.shape != (10, 8) for a in arrays)


class TestChunkedFixedTerms:
    """With fixed bases the stacked numerator is formed over a part's own
    frames; at frame counts on both sides of the chunk width, that of
    the part of all frames must equal the one formed from the whole
    assembled Zc. Each entry is a sum of nonnegative terms, so it is held
    to 1e-14 of itself."""

    @pytest.mark.parametrize(
        "frames", [1, FRAME_CHUNK - 1, FRAME_CHUNK, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 1]
    )
    def test_numerator_matches_assembled(self, frames):
        rng = np.random.default_rng(frames)
        z, x = random_complex(rng, (3, frames)), random_complex(rng, (3, 2))
        problem = tied(z, 2, fixed_x=x)
        state = part_state(problem, problem.xc, ones_halves(problem))
        want = stacked_numerator(assembled_zc(x), assembled_zc(z))
        assert state.xtz.shape == want.shape == (8, frames)
        np.testing.assert_allclose(state.xtz, want, rtol=1e-14, atol=0)


class TestSegment:
    """``NmfState.set_part``: the state of a run of frames."""

    def test_matches_the_problem_of_those_frames(self):
        rng = np.random.default_rng(8)
        z, x = random_complex(rng, (5, 40)), random_complex(rng, (5, 2))
        whole = tied(z, 2, fixed_x=x)
        halves = ones_halves(whole)
        part = part_state(whole, whole.xc, halves, slice(10, 25))
        alone_problem = tied(z[:, 10:25], 2, fixed_x=x)
        alone = part_state(alone_problem, alone_problem.xc, halves[:, :, 10:25])
        every = part_state(whole, whole.xc, halves)
        # the part steps the problem's checked bases, not a copy
        assert part.x is whole.xc
        assert part.z_norm_sq == alone.z_norm_sq
        assert np.array_equal(part.xtz, alone.xtz)
        # the numerator's halves summed, for the objective's linear term
        assert np.array_equal(part.xtz_sum, part.xtz[:4] + part.xtz[4:])
        np.testing.assert_allclose(part.xtz, every.xtz[:, 10:25], rtol=1e-14, atol=0)

    def test_free_bases_do_not_split(self):
        problem = random_problem(9)
        with pytest.raises(ValueError, match="fixed bases"):
            part_state(problem, np.ones((8, 4)), ones_halves(problem), slice(0, 1))


class TestRotatedForm:
    """The coordinates in which the problem reads Z, against the
    assembled Zc: the numerator [Y_L; ΠY_R] from the sign parts of
    Zri = [Re Z; Im Z], and the residual ‖Zc − X·H‖² as
    ½‖Zab − p·s‖² + ½‖Zri − q·d‖²."""

    @pytest.mark.parametrize("fixed", [False, True])
    def test_numerator_equals_the_assembled_one(self, fixed):
        rng = np.random.default_rng(40)
        z = random_complex(rng, (30, 70))
        problem = tied(z, 4, fixed_x=random_complex(rng, (30, 4)) if fixed else None)
        xc = problem.xc if fixed else rng.random((60, 8))
        got = part_state(problem, xc, ones_halves(problem)).xtz
        want = stacked_numerator(xc, assembled_zc(z))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_sign_parts_take_turns_in_one_buffer(self):
        # a part's scratch holds [Re Z; Im Z], then Zc's column halves
        rng = np.random.default_rng(41)
        z = random_complex(rng, (6, 9))
        zc, buf = assembled_zc(z), np.concatenate((z.real, z.imag))
        parts = _sign_parts(z, buf)
        assert next(parts) is buf and np.array_equal(buf, zc[:, :9])
        assert next(parts) is buf and np.array_equal(buf, zc[:, 9:])
        x = rng.random((12, 6))
        parts = _sign_parts(z, np.concatenate((z.real, z.imag)))
        got = _numerator(x, parts, np.empty((12, 9)), np.empty((6, 9)))
        want = _numerator(x, iter((zc[:, :9], zc[:, 9:])), np.empty((12, 9)), np.empty((6, 9)))
        assert np.array_equal(got, want)

    def test_updates_keep_small_entries_accurate(self):
        # Z's parts mostly positive, with a few tiny negative entries,
        # and h- tiny: Zn = max(-Zri, 0), the numerator's Y_R, the
        # X numerator's right half Zp·h-ᵀ + Zn·h+ᵀ and H·Hᵀ's cross
        # block F are all about 1e-9 of their partners. Formed as half
        # the difference of products with |Zri| and Zri (or of s·sᵀ and
        # d·dᵀ), such an entry is known only to about ε of its partner
        # and may round below 0; from the sign parts each entry is a sum
        # of nonnegative terms and keeps its own relative accuracy
        rng = np.random.default_rng(43)
        rows, rank, cols = 30, 4, 50
        parts = rng.uniform(0.1, 1.0, (2, rows, cols))
        tiny = rng.random((2, rows, cols)) < 0.2
        parts[tiny] = -1e-9 * rng.uniform(0.1, 1.0, tiny.sum())
        z = parts[0] + 1j * parts[1]
        problem = tied(z, rank)
        x = rng.random((2 * rows, 2 * rank))
        h_minus = 1e-9 * rng.random((rank, cols))
        w = np.concatenate((rng.uniform(0.1, 1.0, (rank, cols)), h_minus))
        state = part_state(problem, x.copy(), np.split(w, 2))
        got = state.xtz.copy()
        want = stacked_numerator(x, assembled_zc(z))
        assert np.max(want[2 * rank :]) < 1e-7 * np.min(want[: 2 * rank])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        hht = assembled(w) @ assembled(w).T
        assert np.max(hht[:rank, rank:]) < 1e-7 * np.min(hht[:rank, :rank])
        np.testing.assert_allclose(_weight_gram(w), hht, rtol=1e-13, atol=0)
        # the X update of one step, against the block step's
        ref = block_state(x.copy(), assembled(w))
        nmf_step(state, problem)
        reference_step(ref, problem, block_coupling(rank, cols))
        assert np.max(ref.x[:, rank:]) < 1e-7 * np.max(ref.x[:, :rank])
        np.testing.assert_allclose(state.x, ref.x, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_residuals_sum_to_the_block_residual(self, fixed):
        # three frame chunks, the last a partial one
        rng = np.random.default_rng(42)
        rows, rank, cols = 9, 3, 2 * FRAME_CHUNK + 7
        z = random_complex(rng, (rows, cols))
        fixed_x = random_complex(rng, (rows, rank)) if fixed else None
        problem = tied(z, rank, fixed_x=fixed_x)
        x = problem.xc if fixed else rng.random((2 * rows, 2 * rank))
        w = rng.random((2 * rank, cols))
        state = part_state(problem, x, np.split(w, 2))
        ab, ri = _residuals(problem, state)
        want = frobenius_norm_sq(assembled_zc(z) - x @ assembled(w))
        assert abs(0.5 * (ab + ri) - want) <= 1e-13 * want
        assert _direct_residual(problem, state) == 0.5 * (ab + ri)
        # a checkpoint forms the complex error alone
        assert _residuals(problem, state, modulus=False) == (0.0, ri)
        # the q·d term is the complex error of the complex bases and the
        # signed weights
        complex_error = frobenius_norm_sq(z - _complex_bases(x) @ (w[:rank] - w[rank:]))
        assert abs(ri - complex_error) <= 1e-13 * complex_error


def _complex_bases(xc):
    """The complex bases of block bases ``xc``."""
    rank, rows = xc.shape[1] // 2, len(xc) // 2
    xri = xc[:, :rank] - xc[:, rank:]
    return xri[:rows] + 1j * xri[rows:]


class TestInit:
    """The seeded start, ``cmf._start``: bases, then the tied weights."""

    def test_same_seed_bit_identical(self):
        problem = random_problem(0)
        a = start_state(problem, 42)
        b = start_state(problem, 42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.h, b.h)

    def test_fixed_x_shared(self):
        # a fixed-basis step never writes the bases, so the start and
        # every part share the problem's block bases
        x = random_complex(np.random.default_rng(2), (2, 1))
        problem = tied(np.ones((2, 2)), 1, fixed_x=x)
        state = start_state(problem, 0)
        assert np.array_equal(state.x, assembled_zc(x))
        assert state.x is problem.xc

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_entries_above_epsilon(self, seed):
        problem = random_problem(seed)
        state = start_state(problem, seed)
        assert state.x.min() >= EPSILON
        assert state.h.min() >= EPSILON

    def test_draw_order(self):
        # one generator: the bases, then the 2K x 2T weight block matrix,
        # tied by averaging, of which W is the left column block
        problem = random_problem(3)
        state = start_state(problem, 5)
        rng = np.random.default_rng(5)
        x = np.maximum(rng.random((8, 4)), EPSILON)
        hc = np.maximum(rng.random((4, 6)), EPSILON)
        h_plus = 0.5 * (hc[:2, :3] + hc[2:, 3:])
        h_minus = 0.5 * (hc[:2, 3:] + hc[2:, :3])
        assert np.array_equal(state.x, x)
        assert np.array_equal(state.h, np.concatenate((h_plus, h_minus)))


class TestStackedProduct:
    """``_stacked_product``: the H-update denominator [G; ΠGΠ]·W from the
    sums s = h⁺ + h⁻ and differences d = h⁺ − h⁻, against the direct
    product."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_direct_product(self, seed):
        rng = np.random.default_rng(seed)
        xc = assembled_zc(random_complex(rng, (30, 6)))
        w = rng.random((12, 40))
        want = direct_denominator(xc, w)
        got = stacked(_sum_difference(xc.T @ xc), w)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_cancellation_is_bounded_by_the_pair(self):
        # rows of one sign give bases whose positive and negative parts
        # have disjoint supports, so G's cross blocks are 0; with
        # h+ << h-, D11 = G11·h+ is the difference of two terms of size
        # G11·h- = D12, and is held to 1e-13 of D11 + D12, not of itself
        rng = np.random.default_rng(4)
        rank = 6
        _, xc, _, _ = planted_fit(rng, rows=30, rank=rank, cols=1)
        g = xc.T @ xc
        assert np.all(g[:rank, rank:] == 0)
        h_minus = rng.uniform(0.1, 1.0, (rank, 40))
        w = np.concatenate((1e-9 * rng.uniform(0.1, 1.0, (rank, 40)), h_minus))
        want = direct_denominator(xc, w)
        got = stacked(_sum_difference(g), w)
        d11, d21, d22, d12 = np.split(want, 4)
        assert np.max(d11 / d12) < 1e-7
        pairs = np.concatenate((d11 + d12, d21 + d22, d21 + d22, d11 + d12))
        assert np.all(np.abs(got - want) <= 1e-13 * pairs)
        assert np.max(np.abs(got[:rank] - d11) / d11) > 1e-13

    def test_writes_into_given_arrays(self):
        rng = np.random.default_rng(5)
        xc = assembled_zc(random_complex(rng, (8, 3)))
        w = rng.random((6, 7))
        out, sd, vd = np.empty((12, 7)), np.empty((6, 7)), np.empty((6, 7))
        assert _sums(w, sd) is sd
        assert np.array_equal(sd, np.concatenate((w[:3] + w[3:], w[:3] - w[3:])))
        got = _stacked_product(_sum_difference(xc.T @ xc), sd, out, vd)
        assert got is out
        np.testing.assert_allclose(got, direct_denominator(xc, w), rtol=1e-13, atol=0)


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
        state = part_state(problem, np.ones((2, 2)), np.ones((2, 1, 1)))
        nmf_step(state, problem)
        np.testing.assert_allclose(state.x, [[0.75, 0.75], [0.25, 0.25]], rtol=1e-15)
        np.testing.assert_allclose(state.h, [[1.0], [1.0]], rtol=1e-15)
        assert state.objective_history == pytest.approx([5.0], rel=1e-14)

    def test_exact_factorization_is_fixed_point(self):
        _, xc, w, z = planted_fit(np.random.default_rng(10), rows=4, rank=2, cols=5)
        problem = tied(z, 2)
        state = part_state(problem, xc.copy(), np.split(w, 2))
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
        state = start_state(problem, seed)
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
    """Recorded objective and the direct residual of the assembled Zc
    after each of ``iters`` steps; with ``rotated``, also the solver's own
    direct residual of each iterate."""
    state = start_state(problem, seed)
    zc, direct, rotated = assembled_zc(problem.z), [], []
    for _ in range(iters):
        nmf_step(state, problem)
        direct.append(frobenius_norm_sq(zc - state.x @ assembled(state.h)))
        rotated.append(_direct_residual(problem, state))
    return np.array(state.objective_history), np.array(direct), np.array(rotated)


class TestGramObjective:
    """The recorded objective comes from the Gram form above
    ``GRAM_GUARD``·|Z|^2 and is the direct residual below it."""

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_direct_residual_above_guard(self, seed, fixed):
        rng = np.random.default_rng(seed)
        z = random_complex(rng, (20, 15))
        problem = tied(z, 3, fixed_x=random_complex(rng, (20, 3)) if fixed else None)
        recorded, direct, _ = histories(problem, 300, seed)
        assert np.all(recorded >= GRAM_GUARD * problem.z_norm_sq)
        assert np.max(np.abs(recorded - direct) / direct) <= 1e-12

    @pytest.mark.parametrize("fixed", [False, True])
    def test_direct_residual_below_guard(self, fixed):
        x, _, _, z = planted_fit(np.random.default_rng(17), rows=4, rank=2, cols=3)
        problem = tied(z, 2, fixed_x=x if fixed else None)
        recorded, direct, rotated = histories(problem, 2000)
        below = recorded < GRAM_GUARD * problem.z_norm_sq
        assert below.sum() > 100
        # below the guard the history is the solver's direct residual,
        # the rotated sum, and it equals the assembled one to 1e-13. Free
        # bases reach 1e-12·‖Z‖² here, where an entry of the residual r
        # is known only to the rounding of the fit, about ε·‖Z‖, in the
        # block form and the rotated one alike (q = X_L − X_R rounds), so
        # the two sums differ by up to about ε·‖Z‖·‖r‖/6: they are held
        # to the larger of 1e-13 relative and ε·‖Z‖·‖r‖/2. Fixed bases
        # give q exactly. A guard set too low lets Gram rounding noise,
        # about ε·‖Z‖², into this descent
        assert np.array_equal(recorded[below], rotated[below])
        bound = 1e-13 * direct
        if not fixed:
            rounding = 0.5 * np.finfo(float).eps * np.sqrt(direct * problem.z_norm_sq)
            bound = np.maximum(bound, rounding)
        assert np.all(np.abs(recorded - direct) <= bound)

    def test_chunked_direct_residual_below_guard(self):
        # three frame chunks: the direct residual is summed chunk by chunk
        cols = 2 * FRAME_CHUNK + 5
        x, _, _, z = planted_fit(np.random.default_rng(18), rows=4, rank=2, cols=cols)
        problem = tied(z, 2, fixed_x=x)
        recorded, direct, _ = histories(problem, 500)
        below = recorded < GRAM_GUARD * problem.z_norm_sq
        assert below.sum() > 100
        assert np.all(np.abs(recorded[below] - direct[below]) <= 1e-12 * direct[below])


class TestCarriedProduct:
    """Each objective leaves the quadratic product the next update needs
    on the state (XᵀX·H with fixed bases, H·Hᵀ with free ones)."""

    @pytest.mark.parametrize("fixed", [False, True])
    def test_replacing_h_matches_a_fresh_state(self, fixed):
        # weights written into the state, then an objective of them, as
        # ``cmf._iterate`` runs before its first step
        rng = np.random.default_rng(20)
        fixed_x = random_complex(rng, (6, 2)) if fixed else None
        problem = tied(random_complex(rng, (6, 5)), 2, fixed_x=fixed_x)
        state = run_steps(problem, 5)
        h = rng.random((4, 5))
        np.copyto(state.h, h)
        objective(problem, state, gram_terms(problem, state))
        fresh = part_state(problem, state.x.copy(), np.split(h, 2))
        for _ in range(5):
            nmf_step(state, problem)
            nmf_step(fresh, problem)
        assert state.objective_history[5:] == fresh.objective_history
        assert np.array_equal(state.x, fresh.x)
        assert np.array_equal(state.h, fresh.h)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_an_unseen_state_raises(self, fixed):
        # a state pointed at a part holds no product of its weights until
        # an objective has seen them; its buffers hold another iterate's
        rng = np.random.default_rng(23)
        fixed_x = random_complex(rng, (6, 2)) if fixed else None
        problem = tied(random_complex(rng, (6, 5)), 2, fixed_x=fixed_x)
        x = problem.xc if fixed else rng.random((12, 4))
        state = part_state(problem, x, ones_halves(problem), seen=False)
        with pytest.raises(RuntimeError, match="objective"):
            nmf_step(state, problem)
        with pytest.raises(RuntimeError, match="objective"):
            complex_error(problem, state)
        assert state.objective_history == []
        # pointed at a part again, the stepped state forgets its product
        objective(problem, state, gram_terms(problem, state))
        nmf_step(state, problem)
        state.set_part(problem, x, ones_halves(problem))
        with pytest.raises(RuntimeError, match="objective"):
            nmf_step(state, problem)

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
        # objective that seeds the carried product (``start_state`` runs
        # it); the oracle steps the block matrix of the same start
        state = start_state(problem, 3)
        ref = block_state(state.x.copy(), assembled(state.h))
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

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("planted", [False, True])
    def test_solve_matches_reference_steps(self, fixed, planted):
        """``cmf_factorize`` (in two frame segments when the bases are
        fixed) against the reference steps over all frames from the same
        start. The planted bases have rows of one sign, whose tied update
        drives h- toward 0 under vanishing cross blocks of G, the
        case where the sum/difference product cancels."""
        rows, rank = 12, 3
        cols = FRAME_CHUNK + 88 if fixed else 60
        rng = np.random.default_rng(22)
        if planted:
            x, _, _, z = planted_fit(rng, rows, rank, cols)
        else:
            x, z = random_complex(rng, (rows, rank)), random_complex(rng, (rows, cols))
        x = x if fixed else None
        cfg = SepConfig(rank=rank, iters=200, tol=0.0, seed=5)
        res = cmf_factorize(z, rank, cfg, fixed_x=x)
        problem = tied(z, rank, fixed_x=x)
        state = start_state(problem, cfg.seed)
        ref = block_state(state.x.copy(), assembled(state.h))
        couple = block_coupling(rank, cols)
        for _ in range(cfg.iters):
            reference_step(ref, problem, couple)
        got, want = np.array(res.objective_history), np.array(ref.objective_history)
        floor = 1e-18 * problem.z_norm_sq
        assert np.all(np.abs(got - want) <= np.maximum(1e-12 * want, floor))
        h = ref.h[:rank, :cols] - ref.h[rank:, :cols]
        assert np.max(np.abs(res.h - h)) <= 1e-12 * np.max(np.abs(h))
