"""The weight block matrix, the four explicit part-products of the
factorization and the assembled block matrix Zc with its summed
numerator, which the solver never forms; tests check the reduction's
block algebra, and the solver's rotated form of it, against them. Also
the iterate of the solver's seeded start, which it never forms whole
with fixed bases, the H-update denominator as the direct sum of
products GW + ΠGΠW, which the solver forms from sums and differences,
and a reference step on the 2K×2T block matrix H that uses the direct
products. The solver's own state of a part is built by ``part_state``."""

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
from cmfsep.nmf import GRAM_GUARD, NmfState, objective


def part_state(problem, x, halves, frames=slice(None), seen=True) -> NmfState:
    """The solver's state of ``problem``'s part over ``frames``, sized
    for it: bases ``x`` and those frames of the weight ``halves``
    (h⁺, h⁻). With ``seen``, after the objective that ``cmf._iterate``
    runs before its first step, so that it can be stepped."""
    width = len(range(problem.z.shape[1])[frames])
    state = NmfState(problem, width).set_part(problem, x, halves, frames)
    if seen:
        objective(problem, state)
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


def tied_sum(a: np.ndarray) -> np.ndarray:
    """A_L + ΠA_R of a 2K×2T block matrix ``a``: its left column half
    plus its right one with the row halves swapped, the sum over the two
    column blocks of H = [W, ΠW] lined up with W."""
    half, cols = len(a) // 2, a.shape[1] // 2
    return a[:, :cols] + np.concatenate((a[half:, cols:], a[:half, cols:]))


def summed_numerator(xc: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """Y_L + ΠY_R of Y = xcᵀ·zc, from the whole of ``zc``."""
    return tied_sum(xc.T @ zc)


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
    """GW + ΠGΠW with G = xcᵀ·xc, from one (4K×2K)·(2K×T) product
    [G; ΠGΠ]·W of nonnegative terms, its halves added."""
    g = xc.T @ xc
    k = len(g) // 2
    pgp = np.block([[g[k:, k:], g[k:, :k]], [g[:k, k:], g[:k, :k]]])
    return sum(np.split(np.concatenate((g, pgp)) @ w, 2))


def reference_step(state, problem):
    """One step on the 2K×2T block matrix H = [W, ΠW], computed plainly:
    XᵀZ and XᵀX formed here, nothing carried from the last step, and the
    tied H update in block form, W times the summed numerator over the
    summed denominator of H's two column blocks (``tied_sum`` of XᵀZ and
    of the direct product XᵀX·H), from which H is assembled again; the
    quadratic term is ⟨H, XᵀX H⟩."""
    z, eps = assembled_zc(problem.z), EPSILON
    x, h = state.x, state.h
    if problem.fixed_x is None:
        x *= (z @ h.T) / np.maximum(x @ (h @ h.T), eps)
        x[x < FLUSH_BELOW] = 0.0
    xtz, xtx = x.T @ z, x.T @ x
    cols, half = h.shape[1] // 2, len(h) // 2
    w = h[:, :cols] * tied_sum(xtz) / np.maximum(tied_sum(xtx @ h), eps)
    w[w < FLUSH_BELOW] = 0.0
    h = np.concatenate((w, np.concatenate((w[half:], w[:half]))), axis=1)
    gram = problem.z_norm_sq - 2.0 * np.vdot(h, xtz) + np.vdot(h, xtx @ h)
    if gram < GRAM_GUARD * problem.z_norm_sq:
        gram = frobenius_norm_sq(z - x @ h)
    state.h = h
    state.objective_history.append(float(gram))
