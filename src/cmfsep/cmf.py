"""Complex matrix factorization by reduction to nonnegative factorization.

A complex matrix is split into four nonnegative parts (positive and
negative parts of the real and imaginary components). Stacking the
parts into a 2x2 block matrix turns the complex factorization
``Z ~ X H`` (complex bases X, real weights H) into one nonnegative
problem, with the weight blocks tied pairwise as [[h⁺, h⁻], [h⁻, h⁺]].
The solve stores the weights once, as W = [h⁺; h⁻], and at every
multiplicative update averages the two block ratios that multiply h⁺,
and the two that multiply h⁻, into one multiplier each; at termination
the signed factors are reassembled from the blocks.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import SepConfig
from .linalg import as_complex_matrix, frobenius_norm_sq
from .nmf import (
    EPSILON,
    NmfProblem,
    NmfState,
    gram_terms,
    nmf_step,
    objective,
)

__all__ = [
    "SplitQuad",
    "BlockMatrix",
    "CmfResult",
    "split_complex",
    "merge_quad",
    "assemble_zc",
    "assemble_hc",
    "block_product_identity_check",
    "symmetrize_h",
    "cmf_factorize",
]


@dataclass(frozen=True)
class SplitQuad:
    """Positive/negative real and imaginary parts, all nonnegative."""

    pr: np.ndarray
    nr: np.ndarray
    pi: np.ndarray
    ni: np.ndarray

    def __iter__(self):
        return iter((self.pr, self.nr, self.pi, self.ni))


@dataclass(frozen=True)
class BlockMatrix:
    b11: np.ndarray
    b12: np.ndarray
    b21: np.ndarray
    b22: np.ndarray

    @property
    def assembled(self) -> np.ndarray:
        return np.block([[self.b11, self.b12], [self.b21, self.b22]])


def split_complex(z) -> SplitQuad:
    """Elementwise sign/real-imaginary split; merge_quad inverts it."""
    z = as_complex_matrix(z)
    return SplitQuad(
        pr=np.maximum(0.0, z.real),
        nr=-np.minimum(0.0, z.real),
        pi=np.maximum(0.0, z.imag),
        ni=-np.minimum(0.0, z.imag),
    )


def merge_quad(q: SplitQuad) -> np.ndarray:
    return (q.pr - q.nr) + 1j * (q.pi - q.ni)


def assemble_zc(q: SplitQuad) -> BlockMatrix:
    return BlockMatrix(b11=q.pr, b12=q.nr, b21=q.pi, b22=q.ni)


def assemble_hc(h_plus: np.ndarray, h_minus: np.ndarray) -> BlockMatrix:
    if h_plus.shape != h_minus.shape:
        raise ValueError(
            f"weight halves differ in shape: {h_plus.shape} vs {h_minus.shape}"
        )
    return BlockMatrix(b11=h_plus, b12=h_minus, b21=h_minus, b22=h_plus)


def block_product_identity_check(
    x_parts: SplitQuad, h_plus: np.ndarray, h_minus: np.ndarray
):
    """The four explicit part-products of the factorization.

    Equal, block for block, to the assembled 2x2 product of the basis
    and weight block matrices.
    """
    xpr, xnr, xpi, xni = x_parts
    if xpr.shape[1] != h_plus.shape[0]:
        raise ValueError(
            f"dimension mismatch: basis parts {xpr.shape} x weights {h_plus.shape}"
        )
    z1 = xpr @ h_plus + xnr @ h_minus
    z2 = xpr @ h_minus + xnr @ h_plus
    z3 = xpi @ h_plus + xni @ h_minus
    z4 = xpi @ h_minus + xni @ h_plus
    return z1, z2, z3, z4


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
    """The tie as an ``nmf_step`` coupling hook. The stacked H-update
    ratio's row blocks are R11, R21, R22 and R12, block (i, j) being the
    ratio for block (i, j) of [[h⁺, h⁻], [h⁻, h⁺]]; averaging the pairs
    that multiply the same half gives the multipliers of h⁺ and h⁻."""
    k = len(ratio) // 4
    r11, r21, r22, r12 = (ratio[i * k : (i + 1) * k] for i in range(4))
    return symmetrize_h(r11, r12, r21, r22)


def _start(problem: NmfProblem, seed: int, h_init=None) -> NmfState:
    """The seeded start of a solve of ``problem``, from one generator:
    the bases first, a copy of ``fixed_x`` or uniform draws in
    (EPSILON, 1]; then the 2K×2T weight block matrix, the next draws or
    built from the halves ``h_init``. It is tied once, and its left
    column block is kept as W = [h⁺; h⁻]."""
    rng = np.random.default_rng(seed)
    if problem.fixed_x is not None:
        x = problem.fixed_x.copy()
    else:
        x = np.maximum(rng.random((problem.z.shape[0], problem.rank)), EPSILON)
    rank, cols = problem.rank // 2, problem.z.shape[1] // 2
    if h_init is None:
        hc = np.maximum(rng.random((2 * rank, 2 * cols)), EPSILON)
    else:
        hp0, hm0 = (np.asarray(a, dtype=np.float64) for a in h_init)
        if hp0.shape != (rank, cols) or hm0.shape != (rank, cols):
            raise ValueError("h_init halves must each be rank x cols")
        if not (np.all(np.isfinite(hp0)) and np.all(np.isfinite(hm0))):
            raise ValueError("h_init contains non-finite entries")
        if np.any(hp0 < 0) or np.any(hm0 < 0):
            raise ValueError("h_init must be nonnegative")
        hc = np.block([[hp0, hm0], [hm0, hp0]])
    return NmfState(x=x, h=_make_coupling(rank, cols)(hc)[:, :cols].copy())


def _reassemble(xc: np.ndarray, w: np.ndarray, rows: int, rank: int):
    x = (xc[:rows, :rank] - xc[:rows, rank:]) + 1j * (
        xc[rows:, :rank] - xc[rows:, rank:]
    )
    h = w[:rank] - w[rank:]
    return x, h


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
    the weights are estimated; this is the separation mode.
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
    """
    z = as_complex_matrix(z)
    if z.size == 0:
        raise ValueError("input matrix is empty")
    if not np.all(np.isfinite(z)):
        raise ValueError("input matrix contains non-finite entries")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    cfg = cfg or SepConfig(rank=rank)
    rows, cols = z.shape

    if frobenius_norm_sq(z) == 0.0:
        return CmfResult(
            x=np.zeros((rows, rank), dtype=np.complex128),
            h=np.zeros((rank, cols), dtype=np.float64),
            objective_history=[],
            final_error=0.0,
        )

    zc = assemble_zc(split_complex(z)).assembled
    if fixed_x is not None:
        fixed_x = as_complex_matrix(fixed_x)
        if fixed_x.shape != (rows, rank):
            raise ValueError(
                f"fixed_x shape {fixed_x.shape} incompatible with "
                f"z rows {rows} and rank {rank}"
            )
        if not np.all(np.isfinite(fixed_x)):
            raise ValueError("fixed_x contains non-finite entries")
        xc_fixed = assemble_zc(split_complex(fixed_x)).assembled
    else:
        xc_fixed = None

    problem = NmfProblem(
        z=zc,
        rank=2 * rank,
        fixed_x=xc_fixed,
        coupling=_tie_ratio,
    )
    state = _start(problem, cfg.seed, h_init)

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
            # formed in the product's buffer: one complex F×T temporary
            resid = x @ h
            np.subtract(z, resid, out=resid)
            cerr = frobenius_norm_sq(resid)
            checkpoints.append((it, cur, cerr))
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
