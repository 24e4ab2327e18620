"""The weight block matrix, the four explicit part-products of the
factorization and the assembled block matrix Zc with its stacked
numerator, which the solver never forms; tests check the reduction's
block algebra, and the solver's rotated form of it, against them. Also
the iterate of the solver's seeded start, which it never forms whole
with fixed bases, the H-update denominator as the direct product
[G; ΠGΠ]·W, which the solver forms from sums and differences, and a
reference step on the 2K×2T block matrix H that uses the direct
product. The solver's own state of a part is built by ``part_state``."""

from types import SimpleNamespace

import numpy as np

from cmfsep.cmf import EPSILON, FLUSH_BELOW, _start
from cmfsep.linalg import (
    BlockMatrix,
    SplitQuad,
    assemble_zc,
    frobenius_norm_sq,
    split_complex,
)
from cmfsep.nmf import GRAM_GUARD, NmfState, gram_terms, objective


def part_state(problem, x, halves, frames=slice(None), seen=True) -> NmfState:
    """The solver's state of ``problem``'s part over ``frames``, sized
    for it: bases ``x`` and those frames of the weight ``halves``
    (h⁺, h⁻). With ``seen``, after the objective that ``cmf._iterate``
    runs before its first step, so that it can be stepped."""
    width = len(range(problem.z.shape[1])[frames])
    state = NmfState(problem, width).set_part(problem, x, halves, frames)
    if seen:
        objective(problem, state, gram_terms(problem, state))
    return state


def start_state(problem, seed, h_init=None) -> NmfState:
    """The state of ``cmf._start``'s (x, h⁺, h⁻): the bases and the
    weights W = [h⁺; h⁻] over all of ``problem``'s frames."""
    x, *halves = _start(problem, seed, h_init)
    return part_state(problem, x, halves)


def block_state(x, h):
    """The iterate of ``reference_step``: bases ``x``, the 2K×2T block
    matrix ``h`` and an empty history."""
    return SimpleNamespace(x=x, h=h, objective_history=[])


def assembled_zc(z) -> np.ndarray:
    """Zc, the 2F×2T block matrix of complex ``z``, assembled whole."""
    return assemble_zc(split_complex(z)).assembled


def stacked_numerator(xc: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """[Y_L; ΠY_R] of Y = xcᵀ·zc, from the whole of ``zc``: the left
    column half of Y, then the right one with its row halves swapped."""
    y = xc.T @ zc
    half, cols = xc.shape[1] // 2, zc.shape[1] // 2
    return np.concatenate((y[:, :cols], y[half:, cols:], y[:half, cols:]))


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
    xpr, xnr, xpi, xni = x_parts.pr, x_parts.nr, x_parts.pi, x_parts.ni
    if xpr.shape[1] != h_plus.shape[0]:
        raise ValueError(
            f"dimension mismatch: basis parts {xpr.shape} x weights {h_plus.shape}"
        )
    z1 = xpr @ h_plus + xnr @ h_minus
    z2 = xpr @ h_minus + xnr @ h_plus
    z3 = xpi @ h_plus + xni @ h_minus
    z4 = xpi @ h_minus + xni @ h_plus
    return z1, z2, z3, z4


def direct_denominator(xc: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[G; ΠGΠ]·W with G = xcᵀ·xc, as one (4K×2K)·(2K×T) product of
    nonnegative terms."""
    g = xc.T @ xc
    k = len(g) // 2
    pgp = np.block([[g[k:, k:], g[k:, :k]], [g[:k, k:], g[:k, :k]]])
    return np.concatenate((g, pgp)) @ w


def block_coupling(rank, cols):
    """The weight-block tie built as a new array with ``np.block``."""

    def couple(hc):
        h_plus = 0.5 * (hc[:rank, :cols] + hc[rank:, cols:])
        h_minus = 0.5 * (hc[:rank, cols:] + hc[rank:, :cols])
        return np.block([[h_plus, h_minus], [h_minus, h_plus]])

    return couple


def reference_step(state, problem, couple):
    """One step on the 2K×2T block matrix H, computed plainly: XᵀZ and
    XᵀX formed here, nothing carried from the last step, an allocating
    H-update ratio over the direct product XᵀX·H, the tie applied to H,
    and the quadratic term as ⟨H, XᵀX H⟩."""
    z, eps = assembled_zc(problem.z), EPSILON
    x, h = state.x, state.h
    if problem.fixed_x is None:
        x *= (z @ h.T) / np.maximum(x @ (h @ h.T), eps)
        x[x < FLUSH_BELOW] = 0.0
    xtz, xtx = x.T @ z, x.T @ x
    h *= xtz / np.maximum(xtx @ h, eps)
    h = couple(h)
    h[h < FLUSH_BELOW] = 0.0
    gram = problem.z_norm_sq - 2.0 * np.vdot(h, xtz) + np.vdot(h, xtx @ h)
    if gram < GRAM_GUARD * problem.z_norm_sq:
        gram = frobenius_norm_sq(z - x @ h)
    state.h = h
    state.objective_history.append(float(gram))
