"""Euclidean NMF with Lee-Seung multiplicative updates.

The single update step under the complex-factorization reduction: the
iterate-and-stop loop lives in ``cmf.cmf_factorize``, and the
``coupling`` hook re-ties the weight blocks after each step. Plain NMF
is ``nmf_init`` followed by repeated ``nmf_step``. Denominators are
floored at ``epsilon`` so updates are defined everywhere; the objective
is recorded once per step, after the update and any coupling, so
``objective_history`` always describes the actual iterate.

Each step needs Z only through the Gram terms XᵀZ and XᵀX (and H Hᵀ for
the X update, evaluated as ``x @ (h @ h.T)``). ``NmfProblem`` computes
‖Z‖² once and, when the bases are fixed, XᵀZ and XᵀX once; a free step
computes them from its new X and shares them between the H update and
the objective. The objective is then the Gram form
``‖Z‖² − 2⟨H, XᵀZ⟩ + ⟨H, XᵀX H⟩``, which costs no 2F×2T residual. It
subtracts terms of size ‖Z‖², so its absolute rounding error is about
1e-16·‖Z‖²; below ``GRAM_GUARD``·‖Z‖² the direct residual ‖Z − XH‖² is
computed instead. The guard sits at 1e-3, not lower, because a history
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
    "NmfProblem",
    "NmfState",
    "nmf_init",
    "nmf_step",
    "gram_terms",
    "objective",
]

DEFAULT_EPSILON = 1e-12
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
    epsilon: float = DEFAULT_EPSILON
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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
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


@dataclass
class NmfState:
    x: np.ndarray
    h: np.ndarray
    objective_history: list = field(default_factory=list)


def nmf_init(problem: NmfProblem, seed: int) -> NmfState:
    """Uniform random factors in (epsilon, 1]; deterministic per seed."""
    rng = np.random.default_rng(seed)
    m, p = problem.z.shape
    eps = problem.epsilon
    if problem.fixed_x is not None:
        x = problem.fixed_x.copy()
    else:
        x = np.maximum(rng.random((m, problem.rank)), eps)
    h = np.maximum(rng.random((problem.rank, p)), eps)
    return NmfState(x=x, h=h)


def gram_terms(problem: NmfProblem, x: np.ndarray):
    """``(XᵀZ, XᵀX)`` for bases ``x``: the hoisted pair when fixed."""
    if problem.fixed_x is not None:
        return problem.xtz, problem.xtx
    return x.T @ problem.z, x.T @ x


def objective(problem: NmfProblem, state: NmfState, xtz, xtx) -> float:
    """‖Z − XH‖² of ``state`` from its Gram terms ``xtz``, ``xtx``; the
    direct residual below ``GRAM_GUARD``·‖Z‖², where the Gram form
    cancels."""
    h = state.h
    gram = problem.z_norm_sq - 2.0 * np.vdot(h, xtz) + np.vdot(h, xtx @ h)
    if gram < GRAM_GUARD * problem.z_norm_sq:
        return frobenius_norm_sq(problem.z - state.x @ h)
    return float(gram)


def _flush(a: np.ndarray) -> None:
    a[a < FLUSH_BELOW] = 0.0


def nmf_step(state: NmfState, problem: NmfProblem) -> NmfState:
    """One multiplicative update of X then H (X skipped when fixed).

    The coupling hook, when present, runs after the H update; the
    objective appended to the history reflects the coupled iterate.
    """
    z, eps = problem.z, problem.epsilon
    x, h = state.x, state.h
    if problem.fixed_x is None:
        x *= (z @ h.T) / np.maximum(x @ (h @ h.T), eps)
        _flush(x)
    xtz, xtx = gram_terms(problem, x)
    h *= xtz / np.maximum(xtx @ h, eps)
    if problem.coupling is not None:
        state.h = problem.coupling(h)
    _flush(state.h)
    state.objective_history.append(objective(problem, state, xtz, xtx))
    return state
