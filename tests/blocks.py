"""The weight block matrix, the four explicit part-products of the
factorization and the assembled block matrix Zc with its stacked
numerator, which the solver never forms (Zc not when its bases are
fixed); tests check the reduction's block algebra against them."""

import numpy as np

from cmfsep.cmf import BlockMatrix, SplitQuad, assemble_zc, split_complex


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
