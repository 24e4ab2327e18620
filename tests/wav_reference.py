"""The WAV writer that checks each chunk finite from its sum of squares
and then counts, clips, scales, rounds and clips again every chunk, in
about nine passes over it. ``cmfsep.io_wav.write_wav`` decides from a
chunk's minimum and maximum which of those passes a chunk needs, and is
held to this writer's bytes and clip count."""

import logging

import numpy as np

from cmfsep.io_wav import _BIT_DEPTHS, _PCM, _PCM16_SCALE, _header
from cmfsep.linalg import all_finite, sample_chunks
from cmfsep.stft import Signal

log = logging.getLogger("wav_reference")


def write_wav(path, signal: Signal, bit_depth: str = "pcm16") -> int:
    """Write ``signal`` as ``io_wav.write_wav`` does; returns the number
    of samples clipped, which is also logged as a warning."""
    x = signal.samples
    tag, dtype = _BIT_DEPTHS[bit_depth]
    header = _header(tag, dtype.itemsize, signal.sample_rate, x.size)
    data = np.empty(x.size, dtype)
    clipped = 0
    for s in sample_chunks(x.size):
        chunk = x[s]
        if not all_finite(chunk):
            raise ValueError("refusing to write non-finite samples")
        clipped += int(np.count_nonzero((chunk < -1.0) | (chunk > 1.0)))
        chunk = np.clip(chunk, -1.0, 1.0)
        if tag == _PCM:
            chunk *= _PCM16_SCALE
            np.round(chunk, out=chunk)
            np.clip(chunk, -32768, 32767, out=chunk)
        data[s] = chunk
    if clipped:
        log.warning("%s: clipped %d samples to [-1, 1]", path, clipped)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
    return clipped
