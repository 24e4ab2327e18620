"""Euclidean NMF with Lee-Seung multiplicative updates.

The single update step of the complex-factorization reduction; the
iterate-and-stop loop (``cmf.cmf_factorize``) and the seeded start live
in ``cmf``. Denominators are floored at ``EPSILON`` so
updates are defined everywhere; the objective is recorded once per
step, after the update, so ``objective_history`` always describes the
actual iterate.

The problem is tied: Z has 2T columns and the weights are tied as
H = [[h⁺, h⁻], [h⁻, h⁺]] = [W, ΠW], where W = [h⁺; h⁻] is stored alone
and Π swaps its two row halves. Lee–Seung updates act on each column of
H separately, so both column halves of H update from W. The numerator
is the stacked [Y_L; ΠY_R] from the column halves of Y = XᵀZ, and one
product [G; ΠGΠ]·W with G = XᵀX gives the denominators of both halves.
The problem's ``coupling`` hook ties the resulting four block ratios
into the two multipliers of h⁺ and h⁻.

Each step needs Z only through these Gram terms and, for the X update,
Z·Hᵀ = Z_L·Wᵀ + Z_R·(ΠW)ᵀ and H·Hᵀ = W·Wᵀ + Π·W·Wᵀ·Π, so H is never
formed. ``NmfProblem`` computes ‖Z‖² once and, when the bases are fixed,
the stacked XᵀZ and XᵀX once; a free step computes them from its new X
and shares them between the H update and the objective. The objective
is then the Gram form ``‖Z‖² − 2⟨H, XᵀZ⟩ + ⟨H, XᵀX H⟩``, which costs no
2F×2T residual; each inner product over H is the sum of two over W, one
per row block of the stacked term.

Its quadratic term is taken from the product the next update needs,
so a step forms one quadratic product fewer. With fixed bases it is
⟨W, [G; ΠGΠ]·W⟩ summed over the two row blocks, and that product becomes
the next H-update denominator, in whose buffer the update's ratio is
then formed in place. With free bases it is ⟨XᵀX, H·Hᵀ⟩, and H·Hᵀ goes
into the next X update. The product is kept as ``NmfState.carried``,
which assigning ``NmfState.h`` drops; ``nmf_step`` updates the weights
in place, and code outside a step replaces them by assignment.

The Gram form subtracts terms of size ‖Z‖², so its absolute rounding
error is about 1e-16·‖Z‖²; below ``GRAM_GUARD``·‖Z‖² the direct
residual ‖Z − XH‖² is computed instead, from the assembled H. The
guard sits at 1e-3, not lower, because a history entry must agree with
the direct residual to about 1e-12 relative: at 1e-8 the
planted-recovery histories drifted by up to 6e-8, and a ``tol=1e-14``
stop rule fired on Gram rounding noise.

After each step's X update, and after its H update, factor entries
below ``FLUSH_BELOW`` (sqrt of the smallest normal float64, about
1.5e-154) are set to 0. Multiplicative updates keep a zero at zero, and
such entries only shrink further into subnormal floats, whose
arithmetic is many times slower and which would make the late
iterations of a long solve up to twice as slow as the early ones.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import frobenius_norm_sq

__all__ = [
    "EPSILON",
    "NmfProblem",
    "NmfState",
    "nmf_step",
    "gram_terms",
    "objective",
]

EPSILON = 1e-12
GRAM_GUARD = 1e-3
FLUSH_BELOW = float(np.sqrt(np.finfo(np.float64).tiny))


@dataclass
class NmfProblem:
    """Nonnegative ``z ~ x @ h`` at ``rank`` with tied weights (see the
    module docstring); ``z`` has 2T columns and ``rank`` is 2K.
    ``coupling`` ties the weights: it takes the stacked H-update ratio,
    2·rank × T, and returns the multipliers of the weights' two row
    halves. ``fixed_x`` holds the bases constant. ``z_norm_sq`` and,
    with ``fixed_x``, ``xtz`` and ``xtx`` (the stacked numerator and
    Gram of ``gram_terms``) are derived once at construction."""

    z: np.ndarray
    rank: int
    coupling: Callable[[np.ndarray], Sequence[np.ndarray]]
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
    product never outlives the weights it came from; ``nmf_step``
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


def _flush(a: np.ndarray) -> None:
    a[a < FLUSH_BELOW] = 0.0


def nmf_step(state: NmfState, problem: NmfProblem) -> NmfState:
    """One multiplicative update of X then H (X skipped when fixed).

    The H update multiplies each row half of the weights by the
    ``coupling`` hook's tie of the update ratio. The objective appended
    to the history reflects the updated iterate.
    """
    x, h = state.x, state.h
    carried, state.carried = state.carried, None
    if problem.fixed_x is None:
        hht = _weight_gram(h) if carried is None else carried
        # Z·Hᵀ = Z_L·Wᵀ + Z_R·(ΠW)ᵀ without forming H; the second
        # product's buffer then takes X·H·Hᵀ, one fresh 2F×2K array
        # fewer per step
        cols = h.shape[1]
        ratio = problem.z[:, cols:] @ _swap(h).T
        zht = problem.z[:, :cols] @ h.T
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
    m_plus, m_minus = problem.coupling(ratio)
    h[:half] *= m_plus
    h[half:] *= m_minus
    # freed before the objective forms the next product
    del m_plus, m_minus, carried, ratio
    _flush(h)
    state.objective_history.append(objective(problem, state, xtz, xtx))
    return state
