"""Dense matrix helpers shared by the factorization modules, the frame
chunks that bound every pass over the columns of a spectrogram, and the
split of a complex matrix into the nonnegative blocks of the reduction.

Matrices are plain 2-D numpy arrays: float64 for real matrices,
complex128 for complex ones, row-major.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FRAME_CHUNK",
    "SAMPLE_CHUNK",
    "frame_chunks",
    "sample_chunks",
    "as_complex_matrix",
    "as_real",
    "frobenius_norm_sq",
    "complex_matmul_real",
    "SplitQuad",
    "BlockMatrix",
    "split_complex",
    "merge_quad",
    "assemble_zc",
]

# frames per chunk of every pass over the columns of a spectrogram: the
# STFT and its inverse, synthesis, the segments of a fixed-basis solve
# and the solver's sums over Z (the guard residual and the checkpoint
# error); 4 MB of Zc columns at 257 bins. A constant, not a setting.
FRAME_CHUNK = 512
# samples per chunk of every elementwise pass over a whole signal: the
# metrics' sums and WAV output; 512 kB of float64. A constant as well.
SAMPLE_CHUNK = 1 << 16


def _chunks(size: int, width: int) -> list:
    return [slice(a, min(a + width, size)) for a in range(0, size, width)]


def frame_chunks(frames: int) -> list:
    """Column slices of at most ``FRAME_CHUNK`` frames covering ``frames``,
    in order; the last one stops at ``frames``."""
    return _chunks(frames, FRAME_CHUNK)


def sample_chunks(samples: int) -> list:
    """Slices of at most ``SAMPLE_CHUNK`` samples covering ``samples``, in
    order."""
    return _chunks(samples, SAMPLE_CHUNK)


def as_complex_matrix(a) -> np.ndarray:
    """Validate and convert to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D complex matrix, got ndim={m.ndim}")
    return m


def as_real(a) -> np.ndarray:
    """``a`` as a float64 array. Complex input is accepted only when every
    imaginary part is 0; otherwise ``ValueError``, where a plain float64
    cast would drop the imaginary parts."""
    m = np.asarray(a)
    if np.iscomplexobj(m):
        if np.any(m.imag != 0):
            raise ValueError("expected real values, got a nonzero imaginary part")
        m = m.real
    return m.astype(np.float64, copy=False)


def frobenius_norm_sq(a) -> float:
    """Sum of squared moduli over all entries."""
    m = np.asarray(a)
    return float(np.vdot(m, m).real)


def complex_matmul_real(x, h) -> np.ndarray:
    """Product of a complex matrix with a real matrix.

    Equals the two real products of the real and imaginary parts of
    ``x`` with ``h``, recombined.
    """
    x = as_complex_matrix(x)
    h = as_real(h)
    if h.ndim != 2:
        raise ValueError(f"expected a 2-D real matrix, got ndim={h.ndim}")
    if h.shape[0] < 1 or h.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got shape {h.shape}")
    if x.shape[1] != h.shape[0]:
        raise ValueError(
            f"dimension mismatch in complex_matmul_real: {x.shape} x {h.shape}"
        )
    return x @ h


@dataclass(frozen=True)
class SplitQuad:
    """Positive/negative real and imaginary parts, all nonnegative."""

    pr: np.ndarray
    nr: np.ndarray
    pi: np.ndarray
    ni: np.ndarray


@dataclass(frozen=True)
class BlockMatrix:
    b11: np.ndarray
    b12: np.ndarray
    b21: np.ndarray
    b22: np.ndarray

    @property
    def assembled(self) -> np.ndarray:
        return np.block([[self.b11, self.b12], [self.b21, self.b22]])


def split_complex(z) -> SplitQuad:
    """Elementwise sign/real-imaginary split; merge_quad inverts it."""
    z = as_complex_matrix(z)
    return SplitQuad(
        pr=np.maximum(0.0, z.real),
        nr=-np.minimum(0.0, z.real),
        pi=np.maximum(0.0, z.imag),
        ni=-np.minimum(0.0, z.imag),
    )


def merge_quad(q: SplitQuad) -> np.ndarray:
    return (q.pr - q.nr) + 1j * (q.pi - q.ni)


def assemble_zc(q: SplitQuad) -> BlockMatrix:
    return BlockMatrix(b11=q.pr, b12=q.nr, b21=q.pi, b22=q.ni)
