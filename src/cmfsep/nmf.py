"""The tied nonnegative problem of the complex-factorization reduction
and its algebra: the problem, the iterate, the stacked Gram terms and
the objective. The update step (``cmf.nmf_step``), the iterate-and-stop
loop and the seeded start live in ``cmf``.

The problem is built from complex data Z (F×T) at complex rank K. Its
nonnegative form Zc, the 2F×2T block matrix of Z's split, is factored
as X·H with X 2F×2K and the weights tied as
H = [[h⁺, h⁻], [h⁻, h⁺]] = [W, ΠW], where W = [h⁺; h⁻] is stored alone
and Π swaps its two row halves. The Gram terms are stacked to match:
[Y_L; ΠY_R] from the column halves of Y = XᵀZc, and [G; ΠGΠ] with
G = XᵀX, so one product [G; ΠGΠ]·W covers both column halves of H.

``NmfProblem`` computes ‖Z‖² once, from the complex Z (‖Zc‖² = ‖Z‖²).
When the bases are free it assembles Zc, which their update reads at
every step; a free step computes the Gram terms from its new X and
shares them between the H update and the objective. When the bases are
fixed, Zc is never formed: the stacked XᵀZc is computed once, a chunk
of at most ``FRAME_CHUNK`` frames at a time (frames t of a chunk are
columns t and T + t of Zc), together with the stacked XᵀX. A fixed
solve then holds Z, the 4K×T numerator and the weights, plus one
chunk's split at a time. The objective is the Gram form
``‖Z‖² − 2⟨H, XᵀZc⟩ + ⟨H, XᵀX H⟩``, which costs no 2F×2T residual;
each inner product over H is the sum of two over W, one per row block
of the stacked term.

Its quadratic term is taken from the product the next update needs,
so a step forms one quadratic product fewer. With fixed bases it is
⟨W, [G; ΠGΠ]·W⟩ summed over the two row blocks, and that product becomes
the next H-update denominator. With free bases it is ⟨XᵀX, H·Hᵀ⟩, and
H·Hᵀ goes into the next X update. The product is kept as
``NmfState.carried``, which assigning ``NmfState.h`` drops; the step
updates the weights in place, and code outside a step replaces them by
assignment.

The Gram form subtracts terms of size ‖Z‖², so its absolute rounding
error is about 1e-16·‖Z‖²; below ``GRAM_GUARD``·‖Z‖² the direct
residual ‖Zc − XH‖² is computed instead, summed over the same frame
chunks, each chunk's Zc and H columns formed from Z and W. The guard
sits at 1e-3, not lower, because a history entry must agree with the
direct residual to about 1e-12 relative: at 1e-8 the planted-recovery
histories drifted by up to 6e-8, and a ``tol=1e-14`` stop rule fired
on Gram rounding noise.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    FRAME_CHUNK,
    as_complex_matrix,
    assemble_zc,
    frame_chunks,
    frobenius_norm_sq,
    split_complex,
)

__all__ = [
    "FRAME_CHUNK",
    "NmfProblem",
    "NmfState",
    "frame_chunks",
    "gram_terms",
    "objective",
]

GRAM_GUARD = 1e-3


def _block_matrix(z) -> np.ndarray:
    """The 2F×2T nonnegative block matrix of complex ``z``'s split. For
    the frames ``cols`` of Z, ``_block_matrix(z[:, cols])`` holds the
    columns ``cols`` and ``T + cols`` of Zc."""
    return assemble_zc(split_complex(z)).assembled


@dataclass
class NmfProblem:
    """The tied problem of complex ``z`` (F×T) at complex rank ``rank``
    (K); see the module docstring. ``fixed_x`` (complex F×K) holds the
    bases constant. The problem takes the complex data, not their block
    matrices, and the complex rank K, not the block rank 2K: it forms the
    block matrices itself, so that fixed bases need no 2F×2T Zc.

    The inputs are checked here: ``z`` nonempty and finite, ``rank`` at
    least 1, ``fixed_x`` F×K and finite; ``z`` and ``fixed_x`` are kept
    as complex128. Derived once at construction: ``z_norm_sq``; with
    free bases ``zc``, the assembled 2F×2T Zc; with ``fixed_x`` its
    2F×2K block matrix ``xc`` and ``xtz``, ``xtx`` (the stacked
    numerator and Gram of ``gram_terms``), with ``zc`` left None.
    """

    z: np.ndarray
    rank: int
    fixed_x: Optional[np.ndarray] = None
    z_norm_sq: float = field(init=False, repr=False)
    zc: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    xc: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    xtz: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    xtx: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.z = as_complex_matrix(self.z)
        if self.z.size == 0:
            raise ValueError("input matrix is empty")
        if not np.all(np.isfinite(self.z)):
            raise ValueError("input matrix contains non-finite entries")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.fixed_x is None:
            self.zc = _block_matrix(self.z)
        else:
            self.fixed_x = as_complex_matrix(self.fixed_x)
            if self.fixed_x.shape != (self.z.shape[0], self.rank):
                raise ValueError(
                    f"fixed_x shape {self.fixed_x.shape} incompatible with "
                    f"z rows {self.z.shape[0]} and rank {self.rank}"
                )
            if not np.all(np.isfinite(self.fixed_x)):
                raise ValueError("fixed_x contains non-finite entries")
            self.xc = _block_matrix(self.fixed_x)
            frames = self.z.shape[1]
            self.xtz = np.empty((4 * self.rank, frames))
            for cols in frame_chunks(frames):
                self.xtz[:, cols] = _stacked_xtz(self.xc, _block_matrix(self.z[:, cols]))
            self.xtx = _stacked_xtx(self.xc)
        self.z_norm_sq = frobenius_norm_sq(self.z)


class NmfState:
    """The iterate ``x``, ``h`` and its objective history; ``x`` holds
    the 2F×2K block bases and ``h`` the stored-once weights
    W = [h⁺; h⁻].

    ``carried`` is the quadratic product the last objective computed
    from the current ``h`` for the next update: the stacked XᵀX·H when
    the bases are fixed, H·Hᵀ when they are free, and None when no
    objective has seen this ``h``. Assigning ``h`` drops it, so a
    product never outlives the weights it came from; ``cmf.nmf_step``
    itself updates the weights in place, and other code replaces them
    by assignment.
    """

    def __init__(self, x: np.ndarray, h: np.ndarray, objective_history=None):
        self.x = x
        self.h = h
        self.objective_history = [] if objective_history is None else objective_history

    @property
    def h(self) -> np.ndarray:
        return self._h

    @h.setter
    def h(self, value: np.ndarray) -> None:
        self._h = value
        self.carried = None


def _swap(a: np.ndarray) -> np.ndarray:
    """Π·a: a copy of ``a`` with its two row halves exchanged."""
    n = len(a) // 2
    return np.concatenate((a[n:], a[:n]))


def _swap_both(a: np.ndarray) -> np.ndarray:
    """Π·a·Π: rows and columns of ``a`` swapped half for half."""
    return _swap(_swap(a).T).T


def _stacked_xtz(x: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """[Y_L; ΠY_R] of Y = xᵀ·zc, for block columns ``zc`` (2F×2c)."""
    y = x.T @ zc
    half, cols = x.shape[1] // 2, zc.shape[1] // 2
    # [Y_L; ΠY_R] from one product: two half products into its rows
    # measured slower per free step
    return np.concatenate((y[:, :cols], y[half:, cols:], y[:half, cols:]))


def _stacked_xtx(x: np.ndarray) -> np.ndarray:
    """[G; ΠGΠ] of G = xᵀx."""
    xtx = x.T @ x
    return np.concatenate((xtx, _swap_both(xtx)))


def gram_terms(problem: NmfProblem, x: np.ndarray):
    """The H update's stacked numerator and Gram for bases ``x``,
    ``([Y_L; ΠY_R], [G; ΠGΠ])``; the hoisted pair when the bases are
    fixed."""
    if problem.fixed_x is not None:
        return problem.xtz, problem.xtx
    return _stacked_xtz(x, problem.zc), _stacked_xtx(x)


def _weight_gram(h: np.ndarray) -> np.ndarray:
    """H·Hᵀ as W·Wᵀ + Π·W·Wᵀ·Π, without forming H."""
    hht = h @ h.T
    hht += _swap_both(hht)
    return hht


def _stacked_vdot(h: np.ndarray, stacked: np.ndarray) -> float:
    """⟨H, ·⟩ of a stacked term: the sum of ⟨W, block⟩ over its two row
    blocks."""
    return np.vdot(h, stacked[: len(h)]) + np.vdot(h, stacked[len(h) :])


def _direct_residual(problem: NmfProblem, x: np.ndarray, w: np.ndarray) -> float:
    """‖Zc − X·[W, ΠW]‖², summed over frame chunks: each chunk's Zc and
    H columns are formed from Z and W, and freed before the next."""
    total = 0.0
    for cols in frame_chunks(problem.z.shape[1]):
        wc = w[:, cols]
        h = np.concatenate((wc, _swap(wc)), axis=1)  # H = [W, ΠW]
        total += frobenius_norm_sq(_block_matrix(problem.z[:, cols]) - x @ h)
    return total


def objective(problem: NmfProblem, state: NmfState, xtz, xtx) -> float:
    """‖Zc − XH‖² of ``state`` from its Gram terms ``xtz``, ``xtx``; the
    direct residual below ``GRAM_GUARD``·‖Z‖², where the Gram form
    cancels. The quadratic term is ⟨H, XᵀX·H⟩ with fixed bases and
    ⟨XᵀX, H·Hᵀ⟩ with free ones, from the product the next update needs,
    which is left on ``state.carried``."""
    h = state.h
    if problem.fixed_x is not None:
        state.carried = xtx @ h
        quad = _stacked_vdot(h, state.carried)
    else:
        state.carried = _weight_gram(h)
        quad = np.vdot(xtx[: 2 * problem.rank], state.carried)
    gram = problem.z_norm_sq - 2.0 * _stacked_vdot(h, xtz) + quad
    if gram < GRAM_GUARD * problem.z_norm_sq:
        return _direct_residual(problem, state.x, h)
    return float(gram)
