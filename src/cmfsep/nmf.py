"""Euclidean NMF with Lee-Seung multiplicative updates.

The single update step under the complex-factorization reduction: the
iterate-and-stop loop lives in ``cmf.cmf_factorize``, and the
``coupling`` hook re-ties the weight blocks after each step. Plain NMF
is ``nmf_init`` followed by repeated ``nmf_step``. Denominators are
floored at ``EPSILON`` so updates are defined everywhere; the objective
is recorded once per step, after the update and any coupling, so
``objective_history`` always describes the actual iterate.

Each step needs Z only through the Gram terms XᵀZ and XᵀX (and H Hᵀ for
the X update, evaluated as ``x @ (h @ h.T)``). ``NmfProblem`` computes
‖Z‖² once and, when the bases are fixed, XᵀZ and XᵀX once; a free step
computes them from its new X and shares them between the H update and
the objective. The objective is then the Gram form
``‖Z‖² − 2⟨H, XᵀZ⟩ + ⟨H, XᵀX H⟩``, which costs no 2F×2T residual.

Its quadratic term is taken from the product the next update needs,
so a step forms one quadratic product fewer. With fixed bases it is
⟨H, XᵀX·H⟩, and XᵀX·H becomes the next H-update denominator, in whose
buffer the update's ratio is then formed in place. With free bases it
is ⟨XᵀX, H·Hᵀ⟩, and H·Hᵀ goes into the next X update. The product is
kept as ``NmfState.carried``, which assigning ``NmfState.h`` drops. The
coupling hook may therefore write into the weights it is given, as
``cmf``'s tie does, but code outside a step replaces them by assignment.

The Gram form subtracts terms of size ‖Z‖², so its absolute rounding
error is about 1e-16·‖Z‖²; below ``GRAM_GUARD``·‖Z‖² the direct
residual ‖Z − XH‖² is computed instead. The guard sits at 1e-3, not lower, because a history
entry must agree with the direct residual to about 1e-12 relative: at
1e-8 the planted-recovery histories drifted by up to 6e-8, and a
``tol=1e-14`` stop rule fired on Gram rounding noise.

After each step's X update, and after its H update and coupling,
factor entries below ``FLUSH_BELOW`` (sqrt of the smallest normal
float64, about 1.5e-154) are set to 0. Multiplicative updates keep a
zero at zero, and such entries only shrink further into subnormal
floats, whose arithmetic is many times slower and which would make the
late iterations of a long solve up to twice as slow as the early ones.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import frobenius_norm_sq

__all__ = [
    "EPSILON",
    "NmfProblem",
    "NmfState",
    "nmf_init",
    "init_bases",
    "nmf_step",
    "gram_terms",
    "objective",
]

EPSILON = 1e-12
GRAM_GUARD = 1e-3
FLUSH_BELOW = float(np.sqrt(np.finfo(np.float64).tiny))


@dataclass
class NmfProblem:
    """Nonnegative ``z ~ x @ h`` at ``rank``; ``fixed_x`` holds the bases
    constant. ``z_norm_sq`` and, with ``fixed_x``, ``xtz`` and ``xtx`` are
    derived once at construction."""

    z: np.ndarray
    rank: int
    fixed_x: Optional[np.ndarray] = None
    coupling: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
        if self.fixed_x is not None:
            self.fixed_x = np.asarray(self.fixed_x, dtype=np.float64)
            if self.fixed_x.shape != (self.z.shape[0], self.rank):
                raise ValueError(
                    f"fixed_x shape {self.fixed_x.shape} incompatible with "
                    f"z rows {self.z.shape[0]} and rank {self.rank}"
                )
            if np.any(self.fixed_x < 0):
                raise ValueError("fixed_x must be entrywise nonnegative")
            self.xtz = self.fixed_x.T @ self.z
            self.xtx = self.fixed_x.T @ self.fixed_x
        self.z_norm_sq = frobenius_norm_sq(self.z)


class NmfState:
    """The iterate ``x``, ``h`` and its objective history.

    ``carried`` is the quadratic product the last objective computed
    from the current ``h`` for the next update: XᵀX·H when the bases
    are fixed, H·Hᵀ when they are free, and None when no objective has
    seen this ``h``. Assigning ``h`` drops it, so a product never
    outlives the weights it came from; ``nmf_step`` itself updates the
    weights in place, and other code replaces them by assignment.
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


def init_bases(problem: NmfProblem, rng: np.random.Generator) -> np.ndarray:
    """Starting bases: a copy of ``fixed_x``, else uniform draws in
    (EPSILON, 1] from ``rng``. ``nmf_init`` draws them before the
    weights, so a solve that brings its own weights starts from the
    same bases for a seed."""
    if problem.fixed_x is not None:
        return problem.fixed_x.copy()
    m = problem.z.shape[0]
    return np.maximum(rng.random((m, problem.rank)), EPSILON)


def nmf_init(problem: NmfProblem, seed: int) -> NmfState:
    """Uniform random factors in (EPSILON, 1]; deterministic per seed."""
    rng = np.random.default_rng(seed)
    x = init_bases(problem, rng)
    h = np.maximum(rng.random((problem.rank, problem.z.shape[1])), EPSILON)
    return NmfState(x=x, h=h)


def gram_terms(problem: NmfProblem, x: np.ndarray):
    """``(XᵀZ, XᵀX)`` for bases ``x``: the hoisted pair when fixed."""
    if problem.fixed_x is not None:
        return problem.xtz, problem.xtx
    return x.T @ problem.z, x.T @ x


def objective(problem: NmfProblem, state: NmfState, xtz, xtx) -> float:
    """‖Z − XH‖² of ``state`` from its Gram terms ``xtz``, ``xtx``; the
    direct residual below ``GRAM_GUARD``·‖Z‖², where the Gram form
    cancels. The quadratic term is ⟨H, XᵀX·H⟩ with fixed bases and
    ⟨XᵀX, H·Hᵀ⟩ with free ones, from the product the next update needs,
    which is left on ``state.carried``."""
    h = state.h
    if problem.fixed_x is not None:
        state.carried = xtx @ h
        quad = np.vdot(h, state.carried)
    else:
        state.carried = h @ h.T
        quad = np.vdot(xtx, state.carried)
    gram = problem.z_norm_sq - 2.0 * np.vdot(h, xtz) + quad
    if gram < GRAM_GUARD * problem.z_norm_sq:
        return frobenius_norm_sq(problem.z - state.x @ h)
    return float(gram)


def _flush(a: np.ndarray) -> None:
    a[a < FLUSH_BELOW] = 0.0


def nmf_step(state: NmfState, problem: NmfProblem) -> NmfState:
    """One multiplicative update of X then H (X skipped when fixed).

    The coupling hook, when present, runs after the H update; the
    objective appended to the history reflects the coupled iterate.
    The hook may write into the array it is given; it returns the
    coupled weights.
    """
    x, h = state.x, state.h
    carried, state.carried = state.carried, None
    if problem.fixed_x is None:
        hht = h @ h.T if carried is None else carried
        x *= (problem.z @ h.T) / np.maximum(x @ hht, EPSILON)
        _flush(x)
        carried = None  # H·Hᵀ, of no use to the H update
    xtz, xtx = gram_terms(problem, x)
    # the H-update ratio is formed in place in XᵀX·H's buffer, the
    # carried one when the bases are fixed
    ratio = xtx @ h if carried is None else carried
    np.maximum(ratio, EPSILON, out=ratio)
    np.divide(xtz, ratio, out=ratio)
    h *= ratio
    del carried, ratio  # freed before the objective forms the next product
    if problem.coupling is not None:
        state.h = problem.coupling(h)
    _flush(state.h)
    state.objective_history.append(objective(problem, state, xtz, xtx))
    return state
