"""Short-time Fourier analysis and weighted overlap-add synthesis.

The transform uses a square-root Hann window with 50% overlap, so the
squared analysis/synthesis windows satisfy constant overlap-add and the
round trip is exact (to floating point) on the fully overlapped
interior. Neither is a setting: the window is fixed, and the hop is
derived as frame_len/2. Spectrograms are one-sided: frame_len/2 + 1
frequency rows, one column per frame. Only complete frames are
analyzed; signals are never zero-padded.

Analysis and synthesis walk the frames in chunks of
``linalg.FRAME_CHUNK`` (512), the chunks the solver sums over. ``stft``
writes each chunk's spectrum into its columns of the output, and the
inverse transform overlap-adds each chunk's frames into the output
signal, so besides its input and its output each holds one chunk of
frames and spectra (about 2 MB each at 512 samples per frame), never a
full-length temporary.

A ``Signal`` checks its samples finite from their sum of squares
(``linalg.all_finite``), one pass that takes no mask; only a sum that is
not finite takes the exact mask.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import all_finite, as_real, frame_chunks

__all__ = [
    "StftConfig",
    "Signal",
    "dft",
    "stft",
    "istft",
    "synthesis_frames",
    "overlap_add_chunks",
    "sqrt_hann_window",
]


def _check_rate(rate) -> None:
    """A sample rate is a whole number of samples per second (a numpy
    integer too), at least 1: the WAV and bases headers store it as one."""
    if not isinstance(rate, numbers.Integral) or rate < 1:
        raise ValueError(f"sample rate must be an integer >= 1, got {rate!r}")


@dataclass(frozen=True)
class StftConfig:
    frame_len: int = 512
    sample_rate: int = 16000

    def __post_init__(self):
        n = self.frame_len
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"frame_len must be a power of two, got {n}")
        _check_rate(self.sample_rate)

    @property
    def hop(self) -> int:
        """frame_len/2: the sqrt-Hann window is exact only at 50% overlap."""
        return self.frame_len // 2

    @property
    def freq_bins(self) -> int:
        return self.frame_len // 2 + 1


@dataclass(frozen=True)
class Signal:
    """Mono samples at a sample rate, checked once, here: nonempty,
    finite (from their sum of squares, ``linalg.all_finite``), and a
    whole number of Hz. The fields cannot be reassigned; the samples
    array itself can still be written in place."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        x = as_real(self.samples).ravel()
        object.__setattr__(self, "samples", x)
        if x.size == 0:
            raise ValueError("signal must be non-empty")
        if not all_finite(x):
            raise ValueError("signal contains non-finite samples")
        _check_rate(self.sample_rate)

    def __len__(self) -> int:
        return self.samples.size


def sqrt_hann_window(n: int) -> np.ndarray:
    """Square root of the periodic Hann window of length n."""
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    return np.sqrt(hann)


def dft(frame, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform along the last axis.

    Forward applies no scaling; inverse scales by 1/N, so
    ``dft(dft(x), inverse=True) == x``.
    """
    x = np.asarray(frame, dtype=np.complex128)
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"transform length must be a power of two, got {n}")
    return np.fft.ifft(x) if inverse else np.fft.fft(x)


def stft(signal: Signal, cfg: StftConfig) -> np.ndarray:
    """One-sided spectrogram: freq_bins x frame_count, complex128,
    C-contiguous. Each chunk of frames is windowed and transformed on
    its own, and its spectrum is copied into its columns of the output."""
    x = signal.samples
    n = cfg.frame_len
    if x.size < n:
        raise ValueError(
            f"signal of {x.size} samples is shorter than one frame ({n})"
        )
    frames = np.lib.stride_tricks.sliding_window_view(x, n)[:: cfg.hop]
    window = sqrt_hann_window(n)
    spec = np.empty((cfg.freq_bins, len(frames)), dtype=np.complex128)
    for cols in frame_chunks(len(frames)):
        spec[:, cols] = np.fft.rfft(frames[cols] * window).T
    return spec


def _checked_spectrogram(spec, cfg: StftConfig) -> np.ndarray:
    spec = np.asarray(spec, dtype=np.complex128)
    if spec.ndim != 2 or spec.shape[0] != cfg.freq_bins:
        raise ValueError(
            f"spectrogram has {spec.shape[0] if spec.ndim == 2 else '?'} rows, "
            f"expected {cfg.freq_bins} for frame_len {cfg.frame_len}"
        )
    return spec


def synthesis_frames(spec, cfg: StftConfig) -> np.ndarray:
    """Windowed inverse transforms of the spectrogram's columns.

    Returns one row of frame_len samples per column: the real inverse
    FFT of that one-sided spectrum (imaginary parts of the DC and
    Nyquist rows are dropped) times the synthesis window.
    """
    spec = _checked_spectrogram(spec, cfg)
    # the inverse transform of contiguous rows is about a third faster
    # than that of the strided view (10 vs 14 ms over 7,500 frames), and
    # when ``istft`` calls, the copy is one frame chunk
    frames = np.fft.irfft(np.ascontiguousarray(spec.T), cfg.frame_len)
    frames *= sqrt_hann_window(cfg.frame_len)
    return frames


def overlap_add_chunks(frame_count: int, chunk_frames, cfg: StftConfig) -> Signal:
    """Sum ``frame_count`` frames placed hop samples apart into one
    signal, taking them a frame chunk at a time.

    ``chunk_frames(cols)`` returns the rows of the frames in the slice
    ``cols`` of ``linalg.frame_chunks``, in any memory layout; only one
    chunk's rows need exist at a time. Since hop = frame_len/2, frame t's
    first half lands on hop block t and its second half on block t + 1,
    so block t of a (frame_count + 1) x hop view of the output is the sum
    of those two halves, written once: the output is neither zeroed nor
    added into. The second half of a chunk's last frame is kept for the
    first block of the next chunk.
    """
    hop = cfg.hop
    out = np.empty((frame_count + 1, hop))
    carry = np.zeros(hop)
    for cols in frame_chunks(frame_count):
        frames = chunk_frames(cols)
        np.add(carry, frames[0, :hop], out=out[cols.start])
        np.add(frames[:-1, hop:], frames[1:, :hop], out=out[cols.start + 1 : cols.stop])
        carry[:] = frames[-1, hop:]
    out[frame_count] = carry
    return Signal(out.reshape(-1), cfg.sample_rate)


def istft(spec: np.ndarray, cfg: StftConfig) -> Signal:
    """Windowed overlap-add synthesis inverting :func:`stft`, one frame
    chunk of inverse transforms at a time.

    With the sqrt-Hann window at 50% overlap the squared windows sum to
    one, so interior samples are reconstructed exactly.
    """
    spec = _checked_spectrogram(spec, cfg)
    return overlap_add_chunks(
        spec.shape[1], lambda cols: synthesis_frames(spec[:, cols], cfg), cfg
    )
