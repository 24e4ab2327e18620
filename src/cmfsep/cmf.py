"""Complex matrix factorization by reduction to nonnegative factorization.

A complex matrix is split into four nonnegative parts (positive and
negative parts of the real and imaginary components). Stacking the
parts into a 2x2 block matrix turns the complex factorization
``Z ~ X H`` (complex bases X, real weights H) into one nonnegative
problem, with the weight blocks tied pairwise as [[h⁺, h⁻], [h⁻, h⁺]].
The split and its block matrices live in ``linalg``; this module
imports them and keeps them among its names. The nonnegative problem,
``nmf.NmfProblem``, is built from the complex data: with free bases it
assembles the 2F×2T block matrix Zc, and with fixed bases it never
does (see ``nmf``). The solve stores the weights once, as
W = [h⁺; h⁻], and at every multiplicative update averages the two
block ratios that multiply h⁺, and the two that multiply h⁻, into one
multiplier each; at termination the signed factors are reassembled
from the blocks.

The update step ``nmf_step`` is one Lee–Seung multiplicative update of
the tied problem of ``nmf``, X then H. Denominators are floored at
``EPSILON`` so updates are defined everywhere; the objective is recorded
once per step, after the update, so ``objective_history`` always
describes the actual iterate.

Lee–Seung updates act on each column of H separately, so both column
halves of H update from W: the numerator is the stacked [Y_L; ΠY_R] and
the product [G; ΠGΠ]·W gives the denominators of both halves.
``_tie_ratio`` ties the resulting four block ratios into the two
multipliers of h⁺ and h⁻. With fixed bases that product is the one the
last objective carried, and the update's ratio is formed in place in
its buffer. The X update needs Zc·Hᵀ = Zc_L·Wᵀ + Zc_R·(ΠW)ᵀ and
H·Hᵀ = W·Wᵀ + Π·W·Wᵀ·Π, so H is never formed.

The complex-domain error ‖Z − Xh‖² of a checkpoint is summed over the
frame chunks of ``linalg.frame_chunks``, so no complex F×T residual is
formed.

After each step's X update, and after its H update, factor entries
below ``FLUSH_BELOW`` (sqrt of the smallest normal float64, about
1.5e-154) are set to 0. Multiplicative updates keep a zero at zero, and
such entries only shrink further into subnormal floats, whose
arithmetic is many times slower and which would make the late
iterations of a long solve up to twice as slow as the early ones.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import SepConfig
from .linalg import (
    BlockMatrix,
    SplitQuad,
    as_real,
    assemble_zc,
    frame_chunks,
    frobenius_norm_sq,
    merge_quad,
    split_complex,
)
from .nmf import (
    NmfProblem,
    NmfState,
    _swap,
    _weight_gram,
    gram_terms,
    objective,
)

__all__ = [
    "EPSILON",
    "SplitQuad",
    "BlockMatrix",
    "CmfResult",
    "split_complex",
    "merge_quad",
    "assemble_zc",
    "symmetrize_h",
    "nmf_step",
    "cmf_factorize",
]

EPSILON = 1e-12
FLUSH_BELOW = float(np.sqrt(np.finfo(np.float64).tiny))


def symmetrize_h(h1, h2, h3, h4):
    """Tie the weight blocks pairwise by arithmetic averaging."""
    h_plus = h1 + h4
    h_plus *= 0.5
    h_minus = h2 + h3
    h_minus *= 0.5
    return h_plus, h_minus


@dataclass
class CmfResult:
    x: np.ndarray
    h: np.ndarray
    objective_history: list
    final_error: float
    checkpoints: list = field(default_factory=list)  # (iter, block_obj, complex_err)


def _make_coupling(rank: int, cols: int):
    """The tie of a 2·rank × 2·cols weight block matrix: the two averages
    are written back into the blocks of ``hc``, which is returned.
    ``_start`` ties the start with it once."""

    def couple(hc: np.ndarray) -> np.ndarray:
        h11, h12 = hc[:rank, :cols], hc[:rank, cols:]
        h21, h22 = hc[rank:, :cols], hc[rank:, cols:]
        h_plus, h_minus = symmetrize_h(h11, h12, h21, h22)
        h11[...] = h22[...] = h_plus
        h12[...] = h21[...] = h_minus
        return hc

    return couple


def _tie_ratio(ratio: np.ndarray):
    """The tie of ``nmf_step``'s H update. The stacked H-update ratio's
    row blocks are R11, R21, R22 and R12, block (i, j) being the ratio for
    block (i, j) of [[h⁺, h⁻], [h⁻, h⁺]]; averaging the pairs
    that multiply the same half gives the multipliers of h⁺ and h⁻."""
    k = len(ratio) // 4
    r11, r21, r22, r12 = (ratio[i * k : (i + 1) * k] for i in range(4))
    return symmetrize_h(r11, r12, r21, r22)


def _flush(a: np.ndarray) -> None:
    a[a < FLUSH_BELOW] = 0.0


def nmf_step(state: NmfState, problem: NmfProblem) -> NmfState:
    """One multiplicative update of X then H (X skipped when fixed).

    The H update multiplies each row half of the weights by
    ``_tie_ratio``'s tie of the update ratio. The objective appended to
    the history reflects the updated iterate.
    """
    x, h = state.x, state.h
    carried, state.carried = state.carried, None
    if problem.fixed_x is None:
        hht = _weight_gram(h) if carried is None else carried
        # Z·Hᵀ = Z_L·Wᵀ + Z_R·(ΠW)ᵀ without forming H; the second
        # product's buffer then takes X·H·Hᵀ, one fresh 2F×2K array
        # fewer per step
        cols = h.shape[1]
        ratio = problem.zc[:, cols:] @ _swap(h).T
        zht = problem.zc[:, :cols] @ h.T
        zht += ratio
        np.matmul(x, hht, out=ratio)
        np.maximum(ratio, EPSILON, out=ratio)
        np.divide(zht, ratio, out=ratio)
        del zht
        x *= ratio
        _flush(x)
        carried = None  # H·Hᵀ, of no use to the H update
    xtz, xtx = gram_terms(problem, x)
    # the H-update ratio is formed in place in XᵀX·H's buffer, the
    # carried one when the bases are fixed
    ratio = xtx @ h if carried is None else carried
    np.maximum(ratio, EPSILON, out=ratio)
    np.divide(xtz, ratio, out=ratio)
    half = len(h) // 2
    m_plus, m_minus = _tie_ratio(ratio)
    h[:half] *= m_plus
    h[half:] *= m_minus
    # freed before the objective forms the next product
    del m_plus, m_minus, carried, ratio
    _flush(h)
    state.objective_history.append(objective(problem, state, xtz, xtx))
    return state


def _start(problem: NmfProblem, seed: int, h_init=None) -> NmfState:
    """The seeded start of a solve of ``problem``, from one generator:
    the bases first, a copy of the fixed block bases ``problem.xc`` or
    uniform draws in (EPSILON, 1]; then the weights W = [h⁺; h⁻]. Drawn
    weights fill a 2K×2T block matrix, which is tied once and whose left
    column block is kept. Given halves ``h_init`` are stacked as they
    are: tying [[h⁺, h⁻], [h⁻, h⁺]] gives them back exactly, so it is
    skipped."""
    rng = np.random.default_rng(seed)
    rank, (rows, cols) = problem.rank, problem.z.shape
    if problem.fixed_x is not None:
        x = problem.xc.copy()
    else:
        x = np.maximum(rng.random((2 * rows, 2 * rank)), EPSILON)
    if h_init is None:
        hc = np.maximum(rng.random((2 * rank, 2 * cols)), EPSILON)
        w = _make_coupling(rank, cols)(hc)[:, :cols].copy()
    else:
        hp0, hm0 = (as_real(a) for a in h_init)
        if hp0.shape != (rank, cols) or hm0.shape != (rank, cols):
            raise ValueError("h_init halves must each be rank x cols")
        if not (np.all(np.isfinite(hp0)) and np.all(np.isfinite(hm0))):
            raise ValueError("h_init contains non-finite entries")
        if np.any(hp0 < 0) or np.any(hm0 < 0):
            raise ValueError("h_init must be nonnegative")
        w = np.concatenate((hp0, hm0))
    return NmfState(x=x, h=w)


def _reassemble(xc: np.ndarray, w: np.ndarray, rows: int, rank: int):
    x = (xc[:rows, :rank] - xc[:rows, rank:]) + 1j * (
        xc[rows:, :rank] - xc[rows:, rank:]
    )
    h = w[:rank] - w[rank:]
    return x, h


def _complex_error(z: np.ndarray, x: np.ndarray, h: np.ndarray) -> float:
    """‖Z − X·h‖², summed over frame chunks: each chunk's residual is
    formed in its product's buffer, one complex F×``FRAME_CHUNK``
    temporary at a time."""
    total = 0.0
    for cols in frame_chunks(z.shape[1]):
        resid = x @ h[:, cols]
        np.subtract(z[:, cols], resid, out=resid)
        total += frobenius_norm_sq(resid)
    return total


def cmf_factorize(
    z,
    rank: int,
    cfg: Optional[SepConfig] = None,
    fixed_x=None,
    checkpoint_every: int = 0,
    h_init=None,
) -> CmfResult:
    """Factor a complex matrix into complex bases and real weights.

    With ``fixed_x`` the bases are held constant (split once) and only
    the weights are estimated; this is the separation mode, which never
    forms the 2F×2T block matrix of ``z`` (see ``nmf.NmfProblem``).
    ``objective_history`` holds the block-domain error driving the
    updates, one entry per iteration; the complex-domain error
    ``|Z - XH|^2`` is evaluated every ``checkpoint_every`` iterations
    (0 = never before termination) and at the final iteration, which is
    always a checkpoint and whose value is returned as ``final_error``.

    The start is drawn from ``cfg.seed``: bases first, then weights.
    ``h_init`` = (h⁺, h⁻), two nonnegative finite rank × cols arrays,
    replaces the drawn weights; the bases are the same as without it.
    Of ``cfg`` only ``iters``, ``tol`` and ``seed`` are read; the rank
    is the argument.

    An all-zero ``z`` is checked like any other input, with ``fixed_x``
    and ``h_init``, and then returns at once: no iterations, no
    checkpoints, zero weights, ``final_error`` 0 and the given bases, or
    zero bases when they are free.
    """
    problem = NmfProblem(z=z, rank=rank, fixed_x=fixed_x)
    cfg = cfg or SepConfig(rank=rank)
    state = _start(problem, cfg.seed, h_init)
    rows, cols = problem.z.shape

    if problem.z_norm_sq == 0.0:
        x = np.zeros((rows, rank), dtype=np.complex128)
        return CmfResult(
            x=x if problem.fixed_x is None else problem.fixed_x.copy(),
            h=np.zeros((rank, cols), dtype=np.float64),
            objective_history=[],
            final_error=0.0,
        )

    checkpoints = []
    # also leaves on the state the product the first update needs
    prev = objective(problem, state, *gram_terms(problem, state.x))
    for it in range(1, cfg.iters + 1):
        nmf_step(state, problem)
        cur = state.objective_history[-1]
        stopping = abs(prev - cur) < cfg.tol * max(prev, EPSILON)
        if (
            stopping
            or it == cfg.iters
            or (checkpoint_every > 0 and it % checkpoint_every == 0)
        ):
            x, h = _reassemble(state.x, state.h, rows, rank)
            checkpoints.append((it, cur, _complex_error(problem.z, x, h)))
        if stopping:
            break
        prev = cur

    return CmfResult(
        x=x,
        h=h,
        objective_history=list(state.objective_history),
        final_error=checkpoints[-1][2],
        checkpoints=checkpoints,
    )
