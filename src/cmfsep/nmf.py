"""Euclidean NMF with Lee-Seung multiplicative updates.

The single update step under the complex-factorization reduction: the
iterate-and-stop loop lives in ``cmf.cmf_factorize``, and the
``coupling`` hook re-ties the weight blocks after each step. Plain NMF
is ``nmf_init`` followed by repeated ``nmf_step``. Denominators are
floored at ``epsilon`` so updates are defined everywhere; the objective
is recorded once per step, after the update and any coupling, so
``objective_history`` always describes the actual iterate.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import frobenius_norm_sq

__all__ = ["NmfProblem", "NmfState", "nmf_init", "nmf_step"]

DEFAULT_EPSILON = 1e-12


@dataclass
class NmfProblem:
    z: np.ndarray
    rank: int
    fixed_x: Optional[np.ndarray] = None
    coupling: Optional[Callable[[np.ndarray], np.ndarray]] = None
    epsilon: float = DEFAULT_EPSILON

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


def _objective(state: NmfState, problem: NmfProblem) -> float:
    return frobenius_norm_sq(problem.z - state.x @ state.h)


def nmf_step(state: NmfState, problem: NmfProblem) -> NmfState:
    """One multiplicative update of X then H (X skipped when fixed).

    The coupling hook, when present, runs after the H update; the
    objective appended to the history reflects the coupled iterate.
    """
    z, eps = problem.z, problem.epsilon
    x, h = state.x, state.h
    if problem.fixed_x is None:
        x *= (z @ h.T) / np.maximum(x @ h @ h.T, eps)
    h *= (x.T @ z) / np.maximum(x.T @ x @ h, eps)
    if problem.coupling is not None:
        state.h = problem.coupling(h)
    state.objective_history.append(_objective(state, problem))
    return state

