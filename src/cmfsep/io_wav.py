"""Mono WAV ingestion and emission (RIFF, pcm16 or float32)."""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .stft import Signal

__all__ = ["WavFile", "read_wav", "write_wav"]

log = logging.getLogger(__name__)

_PCM16_SCALE = 32768.0


@dataclass(frozen=True)
class WavFile:
    samples: Signal
    bit_depth: str  # "pcm16" | "float32"


def read_wav(path) -> WavFile:
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(
            f"{path}: {data.shape[1]}-channel audio not supported; "
            "downmix to mono first"
        )
    if data.dtype == np.int16:
        bit_depth = "pcm16"
        samples = data.astype(np.float64)
        samples /= _PCM16_SCALE
    elif data.dtype == np.float32:
        bit_depth = "float32"
        samples = data.astype(np.float64)
    else:
        raise ValueError(
            f"{path}: unsupported sample format {data.dtype}; "
            "expected pcm16 or float32"
        )
    return WavFile(samples=Signal(samples, int(rate)), bit_depth=bit_depth)


def write_wav(path, signal: Signal, bit_depth: str = "pcm16") -> None:
    """Write ``signal`` as a mono WAV. The samples and rate are checked
    here, before anything is written, because a ``Signal`` can be
    changed after its constructor checked it."""
    x = signal.samples
    if x.size == 0:
        raise ValueError("refusing to write an empty signal")
    if not np.all(np.isfinite(x)):
        raise ValueError("refusing to write non-finite samples")
    if signal.sample_rate < 1:
        raise ValueError(f"sample rate must be >= 1, got {signal.sample_rate}")
    clipped = int(np.sum((x < -1.0) | (x > 1.0)))
    if clipped:
        log.warning("%s: clipped %d samples to [-1, 1]", path, clipped)
        x = np.clip(x, -1.0, 1.0)
    if bit_depth == "pcm16":
        # one scaled buffer, rounded and clipped in place
        scaled = x * _PCM16_SCALE
        np.round(scaled, out=scaled)
        np.clip(scaled, -32768, 32767, out=scaled)
        wavfile.write(path, signal.sample_rate, scaled.astype(np.int16))
    elif bit_depth == "float32":
        wavfile.write(path, signal.sample_rate, x.astype(np.float32))
    else:
        raise ValueError(f"unsupported bit depth {bit_depth!r}")
