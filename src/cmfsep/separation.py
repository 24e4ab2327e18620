"""Supervised two-speaker separation pipeline.

Per-speaker complex bases are trained on concatenated spectrograms;
a mixture is separated by estimating weights against the fixed,
column-concatenated bases and reconstructing each source from its own
rows of the weight matrix. Reconstruction uses the estimated complex
spectrograms directly: the mixture's phase is never reused.
"""

import hashlib
from dataclasses import dataclass, replace
from typing import Optional, Sequence, TextIO, Tuple

import numpy as np

from .cmf import cmf_factorize
from .config import SepConfig
from .linalg import complex_matmul_real
from .stft import Signal, StftConfig, istft, stft

__all__ = ["BasisSet", "train_bases", "separate", "reconstruct", "estimate_weights"]


@dataclass(frozen=True)
class BasisSet:
    x_train: np.ndarray  # freq_bins x rank, unit-norm columns
    speaker_id: str
    stft_cfg: StftConfig
    rank: int

    def __post_init__(self):
        if self.x_train.shape != (self.stft_cfg.freq_bins, self.rank):
            raise ValueError(
                f"basis shape {self.x_train.shape} inconsistent with "
                f"{self.stft_cfg.freq_bins} bins and rank {self.rank}"
            )
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


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
    """Learn a speaker's complex basis from clean training signals."""
    if not training_signals:
        raise ValueError("training set is empty")
    for s in training_signals:
        if s.sample_rate != cfg.stft_cfg.sample_rate:
            raise ValueError(
                f"sample rate {s.sample_rate} does not match "
                f"configured {cfg.stft_cfg.sample_rate}"
            )
    z = np.hstack([stft(s, cfg.stft_cfg) for s in training_signals])
    result = cmf_factorize(z, cfg.rank, cfg)
    return BasisSet(
        x_train=_normalize_columns(result.x),
        speaker_id=speaker_id,
        stft_cfg=cfg.stft_cfg,
        rank=cfg.rank,
    )


def estimate_weights(
    mix_spec: np.ndarray,
    bases_i: BasisSet,
    bases_j: BasisSet,
    cfg: SepConfig,
    log: Optional[TextIO] = None,
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
    # left half of its first rank rows and h_minus that of the rest
    draws = [
        _speaker_stream(cfg.seed, b.speaker_id).random((2, b.rank, 2, cols))[:, :, 0]
        for b in (bases_i, bases_j)
    ]
    hp0, hm0 = np.maximum(np.concatenate(draws, axis=1), cfg.epsilon)
    result = cmf_factorize(
        mix_spec, rank, cfg, fixed_x=x_fixed, h_init=(hp0, hm0), log=log
    )
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
    run_cfg = replace(
        cfg, rank=bases_i.rank + bases_j.rank, stft_cfg=bases_i.stft_cfg
    )
    z = stft(mix, bases_i.stft_cfg)
    h = estimate_weights(z, bases_i, bases_j, run_cfg)
    spec_i = complex_matmul_real(bases_i.x_train, h[: bases_i.rank])
    spec_j = complex_matmul_real(bases_j.x_train, h[bases_i.rank :])
    return (
        reconstruct(spec_i, run_cfg),
        reconstruct(spec_j, run_cfg),
    )


def reconstruct(spec: np.ndarray, cfg: SepConfig) -> Signal:
    """Synthesize a signal from an estimated complex spectrogram."""
    return istft(spec, cfg.stft_cfg)
