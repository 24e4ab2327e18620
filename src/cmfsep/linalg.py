"""Dense matrix helpers shared by the factorization modules.

Matrices are plain 2-D numpy arrays: float64 for real matrices,
complex128 for complex ones, row-major.
"""

import numpy as np

__all__ = ["as_complex_matrix", "frobenius_norm_sq", "complex_matmul_real"]


def as_complex_matrix(a) -> np.ndarray:
    """Validate and convert to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D complex matrix, got ndim={m.ndim}")
    return m


def frobenius_norm_sq(a) -> float:
    """Sum of squared moduli over all entries."""
    m = np.asarray(a)
    return float(np.sum(np.abs(m) ** 2))


def complex_matmul_real(x, h) -> np.ndarray:
    """Product of a complex matrix with a real matrix.

    Equals the two real products of the real and imaginary parts of
    ``x`` with ``h``, recombined.
    """
    x = as_complex_matrix(x)
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"expected a 2-D real matrix, got ndim={h.ndim}")
    if h.shape[0] < 1 or h.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got shape {h.shape}")
    if x.shape[1] != h.shape[0]:
        raise ValueError(
            f"dimension mismatch in complex_matmul_real: {x.shape} x {h.shape}"
        )
    return x @ h
