"""The tied nonnegative problem of the complex-factorization reduction
and its algebra: the problem, the iterate, the stacked Gram terms and
the objective. The update step (``cmf.nmf_step``), the iterate-and-stop
loop and the seeded start live in ``cmf``.

The problem is tied: Z has 2T columns and the weights are tied as
H = [[h⁺, h⁻], [h⁻, h⁺]] = [W, ΠW], where W = [h⁺; h⁻] is stored alone
and Π swaps its two row halves. The Gram terms are stacked to match:
[Y_L; ΠY_R] from the column halves of Y = XᵀZ, and [G; ΠGΠ] with
G = XᵀX, so one product [G; ΠGΠ]·W covers both column halves of H.

``NmfProblem`` computes ‖Z‖² once and, when the bases are fixed, the
stacked XᵀZ and XᵀX once; a free step computes them from its new X and
shares them between the H update and the objective. The objective is
then the Gram form ``‖Z‖² − 2⟨H, XᵀZ⟩ + ⟨H, XᵀX H⟩``, which costs no
2F×2T residual; each inner product over H is the sum of two over W, one
per row block of the stacked term.

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
residual ‖Z − XH‖² is computed instead, from the assembled H. The
guard sits at 1e-3, not lower, because a history entry must agree with
the direct residual to about 1e-12 relative: at 1e-8 the
planted-recovery histories drifted by up to 6e-8, and a ``tol=1e-14``
stop rule fired on Gram rounding noise.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import frobenius_norm_sq

__all__ = [
    "NmfProblem",
    "NmfState",
    "gram_terms",
    "objective",
]

GRAM_GUARD = 1e-3


@dataclass
class NmfProblem:
    """Nonnegative ``z ~ x @ h`` at ``rank`` with tied weights (see the
    module docstring); ``z`` has 2T columns and ``rank`` is 2K.
    ``fixed_x`` holds the bases constant. ``z_norm_sq`` and,
    with ``fixed_x``, ``xtz`` and ``xtx`` (the stacked numerator and
    Gram of ``gram_terms``) are derived once at construction."""

    z: np.ndarray
    rank: int
    fixed_x: Optional[np.ndarray] = None
    z_norm_sq: float = field(init=False, repr=False)
    xtz: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    xtx: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        if self.z.ndim != 2:
            raise ValueError("z must be a 2-D matrix")
        if np.any(self.z < 0):
            raise ValueError("z must be entrywise nonnegative")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.rank % 2 or self.z.shape[1] % 2:
            raise ValueError(
                f"tied weights need an even rank and column count, got rank "
                f"{self.rank} and {self.z.shape[1]} columns"
            )
        if self.fixed_x is not None:
            self.fixed_x = np.asarray(self.fixed_x, dtype=np.float64)
            if self.fixed_x.shape != (self.z.shape[0], self.rank):
                raise ValueError(
                    f"fixed_x shape {self.fixed_x.shape} incompatible with "
                    f"z rows {self.z.shape[0]} and rank {self.rank}"
                )
            if np.any(self.fixed_x < 0):
                raise ValueError("fixed_x must be entrywise nonnegative")
            self.xtz, self.xtx = _gram_terms(self, self.fixed_x)
        self.z_norm_sq = frobenius_norm_sq(self.z)


class NmfState:
    """The iterate ``x``, ``h`` and its objective history; ``h`` holds
    the stored-once weights W = [h⁺; h⁻].

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


def _gram_terms(problem: NmfProblem, x: np.ndarray):
    xtz, xtx = x.T @ problem.z, x.T @ x
    half, cols = problem.rank // 2, xtz.shape[1] // 2
    # [Y_L; ΠY_R] from one product: two half products into its rows
    # measured slower per free step
    xtz = np.concatenate((xtz[:, :cols], xtz[half:, cols:], xtz[:half, cols:]))
    return xtz, np.concatenate((xtx, _swap_both(xtx)))


def gram_terms(problem: NmfProblem, x: np.ndarray):
    """The H update's stacked numerator and Gram for bases ``x``,
    ``([Y_L; ΠY_R], [G; ΠGΠ])``; the hoisted pair when the bases are
    fixed."""
    if problem.fixed_x is not None:
        return problem.xtz, problem.xtx
    return _gram_terms(problem, x)


def _weight_gram(h: np.ndarray) -> np.ndarray:
    """H·Hᵀ as W·Wᵀ + Π·W·Wᵀ·Π, without forming H."""
    hht = h @ h.T
    hht += _swap_both(hht)
    return hht


def _stacked_vdot(h: np.ndarray, stacked: np.ndarray) -> float:
    """⟨H, ·⟩ of a stacked term: the sum of ⟨W, block⟩ over its two row
    blocks."""
    return np.vdot(h, stacked[: len(h)]) + np.vdot(h, stacked[len(h) :])


def objective(problem: NmfProblem, state: NmfState, xtz, xtx) -> float:
    """‖Z − XH‖² of ``state`` from its Gram terms ``xtz``, ``xtx``; the
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
        quad = np.vdot(xtx[: problem.rank], state.carried)
    gram = problem.z_norm_sq - 2.0 * _stacked_vdot(h, xtz) + quad
    if gram < GRAM_GUARD * problem.z_norm_sq:
        h = np.concatenate((h, _swap(h)), axis=1)  # H = [W, ΠW]
        return frobenius_norm_sq(problem.z - state.x @ h)
    return float(gram)
