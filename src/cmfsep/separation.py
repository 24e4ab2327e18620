"""Supervised two-speaker separation pipeline.

Per-speaker complex bases are trained on concatenated spectrograms;
a mixture is separated by estimating weights against the fixed,
column-concatenated bases and reconstructing each source from its own
rows of the weight matrix. Each source is the signal whose STFT is its
estimated complex spectrogram X_i H_i: the mixture's phase is never
reused. Because H_i is real and the inverse transform is linear, that
signal is synthesized without forming X_i H_i: each basis column is
turned once into a windowed time-domain atom, every frame is the
H_i-weighted sum of the atoms, and the frames are overlap-added one
frame chunk at a time (``linalg.FRAME_CHUNK``), so synthesis holds the
output signal and one chunk of frames.

``separate`` keeps one full-length signal-path array at a time beside
the solve: it lets go of the mixture once its STFT is taken and of the
spectrogram once the weights are estimated, so a caller that does not
keep them (as the ``separate`` command does not) has them freed before
synthesis.
"""

import hashlib
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .cmf import EPSILON, cmf_factorize
from .config import SepConfig
from .linalg import as_complex_matrix, as_real
from .stft import Signal, StftConfig, overlap_add_chunks, stft, synthesis_frames

# not called here: bench/spans.py times calls under these two names
from .linalg import complex_matmul_real  # noqa: F401
from .stft import istft  # noqa: F401

__all__ = ["BasisSet", "train_bases", "separate", "reconstruct", "estimate_weights"]


@dataclass(frozen=True)
class BasisSet:
    x_train: np.ndarray  # freq_bins x rank, unit-norm columns
    speaker_id: str
    stft_cfg: StftConfig

    def __post_init__(self):
        if self.x_train.ndim != 2 or self.x_train.shape[0] != self.stft_cfg.freq_bins:
            raise ValueError(
                f"basis shape {self.x_train.shape} inconsistent with "
                f"{self.stft_cfg.freq_bins} bins"
            )
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not np.any(self.x_train):
            raise ValueError("basis set is all zero")

    @property
    def rank(self) -> int:
        return self.x_train.shape[1]


def _normalize_columns(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=0)
    return x / np.where(norms > 0, norms, 1.0)


def _speaker_stream(seed: int, speaker_id: str) -> np.random.Generator:
    digest = hashlib.sha256(speaker_id.encode("utf-8")).digest()
    return np.random.default_rng((seed, int.from_bytes(digest[:8], "little")))


def train_bases(
    training_signals: Sequence[Signal],
    speaker_id: str,
    cfg: SepConfig,
) -> BasisSet:
    """Learn a speaker's complex basis from clean training signals.
    Silent training input, whose spectrogram is all zero, is rejected:
    it would give an all-zero basis set."""
    if not training_signals:
        raise ValueError("training set is empty")
    for i, s in enumerate(training_signals):
        if s.sample_rate != cfg.stft_cfg.sample_rate:
            raise ValueError(
                f"training signal {i}: sample rate {s.sample_rate} does not "
                f"match configured {cfg.stft_cfg.sample_rate}"
            )
    z = np.hstack([stft(s, cfg.stft_cfg) for s in training_signals])
    if not np.any(z):
        raise ValueError("training signals are silent")
    result = cmf_factorize(z, cfg.rank, cfg)
    return BasisSet(
        x_train=_normalize_columns(result.x),
        speaker_id=speaker_id,
        stft_cfg=cfg.stft_cfg,
    )


def estimate_weights(
    mix_spec: np.ndarray,
    bases_i: BasisSet,
    bases_j: BasisSet,
    cfg: SepConfig,
) -> np.ndarray:
    """Solve for the stacked weights of both speakers, bases fixed.

    Weight rows are initialized from per-speaker substreams of the
    seed, so exchanging the two basis sets permutes the initialization
    with them.
    """
    x_fixed = np.hstack([bases_i.x_train, bases_j.x_train])
    rank = bases_i.rank + bases_j.rank
    cols = mix_spec.shape[1]
    # each speaker's stream fills a (2*rank x 2*cols) block, as it always
    # has, so seeded runs keep their initial weights; h_plus takes the
    # left half of its first rank rows and h_minus that of the rest. The
    # used half of each draw is copied into one buffer, and the draw
    # freed before the next is made.
    start = np.empty((2, rank, cols))
    rows = 0
    for b in (bases_i, bases_j):
        draw = _speaker_stream(cfg.seed, b.speaker_id).random((2, b.rank, 2, cols))
        start[:, rows : rows + b.rank] = draw[:, :, 0]
        rows += b.rank
        del draw
    np.maximum(start, EPSILON, out=start)
    result = cmf_factorize(mix_spec, rank, cfg, fixed_x=x_fixed, h_init=tuple(start))
    return result.h


def separate(
    mix: Signal,
    bases_i: BasisSet,
    bases_j: BasisSet,
    cfg: SepConfig,
) -> Tuple[Signal, Signal]:
    """Split a two-speaker mixture into per-speaker signals."""
    if bases_i.stft_cfg != bases_j.stft_cfg:
        raise ValueError("stft config mismatch between basis sets")
    if mix.sample_rate != bases_i.stft_cfg.sample_rate:
        raise ValueError(
            f"mixture sample rate {mix.sample_rate} does not match "
            f"bases ({bases_i.stft_cfg.sample_rate})"
        )
    z = stft(mix, bases_i.stft_cfg)
    # this frame's references are the last ones when the caller keeps
    # none: the mixture is freed before the solve, Z before synthesis
    del mix
    h = estimate_weights(z, bases_i, bases_j, cfg)
    del z
    return (
        reconstruct(bases_i.x_train, h[: bases_i.rank], bases_i.stft_cfg),
        reconstruct(bases_j.x_train, h[bases_i.rank :], bases_i.stft_cfg),
    )


def reconstruct(x, h, cfg: StftConfig) -> Signal:
    """Synthesize the signal whose STFT is the complex spectrogram ``x @ h``.

    ``x`` holds complex bases (freq_bins x rank) and ``h`` real weights
    (rank x frames). The result equals ``istft(x @ h)``, computed as the
    overlap-add of ``h.T @ atoms``, where row k of ``atoms`` is the
    windowed inverse transform of basis column k, one frame chunk of
    that product at a time.
    """
    x = as_complex_matrix(x)
    h = as_real(h)
    if h.ndim != 2 or x.shape[1] != h.shape[0]:
        raise ValueError(
            f"bases {x.shape} and weights {h.shape} do not match: expected "
            f"weights of shape ({x.shape[1]}, frames)"
        )
    atoms = synthesis_frames(x, cfg)
    # per chunk, h[:, cols].T @ atoms (chunk x frame_len, rows
    # contiguous) is the faster orientation: with OpenBLAS at 7,500
    # frames it took 6.6 ms at rank 40 and 8.2 ms at rank 80, against
    # 9.6 and 11.1 ms for (atoms.T @ h[:, cols]).T
    return overlap_add_chunks(
        h.shape[1], lambda cols: h[:, cols].T @ atoms, cfg
    )
