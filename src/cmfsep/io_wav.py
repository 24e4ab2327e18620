"""Mono WAV ingestion and emission (RIFF, pcm16 or float32).

Reads and writes one RIFF subset with ``struct`` and numpy alone:
little-endian RIFF/WAVE with one channel of 16-bit PCM (format tag 1) or
32-bit IEEE float (format tag 3), either one also as the sub-format of
WAVE_FORMAT_EXTENSIBLE (0xFFFE). Chunks other than ``fmt `` and ``data``
are skipped, with the pad byte after an odd-sized chunk. Any other
format, and any header that the file's own bytes contradict, raises
``ValueError``.

Written files match ``scipy.io.wavfile.write`` byte for byte: a 16-byte
``fmt `` chunk for PCM, and an 18-byte one (cbSize 0) followed by a
``fact`` chunk for float.

Both directions walk the samples one ``linalg.SAMPLE_CHUNK`` at a time:
reading decodes a chunk into the float64 result in one pass, pcm16
scaled by 2⁻¹⁵ on the way. Writing takes a chunk's minimum and maximum,
which check it finite and tell whether it needs clipping, then scales
and rounds it (pcm16) in one reused chunk buffer and casts it into the
output buffer; only a chunk with a sample outside [−1, 1] is counted
and clipped.
"""

import logging
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import SAMPLE_CHUNK, sample_chunks
from .stft import Signal

__all__ = ["WavFile", "read_wav", "write_wav"]

log = logging.getLogger(__name__)

_PCM16_SCALE = 32768.0
_PCM16_STEP = 1.0 / _PCM16_SCALE
_U32_MAX = 0xFFFFFFFF
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# an extensible sub-format GUID is the format tag as a u32, then these bytes
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> sample dtype, bit depth
_FORMATS = {
    (_PCM, 16): (np.dtype("<i2"), "pcm16"),
    (_FLOAT, 32): (np.dtype("<f4"), "float32"),
}
_BIT_DEPTHS = {bit_depth: (tag, dtype) for (tag, _), (dtype, bit_depth) in _FORMATS.items()}


@dataclass(frozen=True)
class WavFile:
    samples: Signal
    bit_depth: str  # "pcm16" | "float32"


def _parse_fmt(path, fmt: bytes):
    """Sample dtype, bit depth and rate from a ``fmt `` chunk's body."""
    if len(fmt) < 16:
        raise ValueError(f"{path}: fmt chunk of {len(fmt)} bytes; expected at least 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE:
        if len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22:
            raise ValueError(f"{path}: extensible fmt chunk of {len(fmt)} bytes is too short")
        sub_tag, tail = struct.unpack_from("<I12s", fmt, 24)
        if tail == _GUID_TAIL:
            tag = sub_tag
    if channels != 1:
        raise ValueError(
            f"{path}: {channels}-channel audio not supported; downmix to mono first"
        )
    if (tag, bits) not in _FORMATS:
        raise ValueError(
            f"{path}: unsupported sample format (format tag {tag:#x}, {bits} bits); "
            "expected pcm16 or float32"
        )
    dtype, bit_depth = _FORMATS[tag, bits]
    if block_align != dtype.itemsize or byte_rate != rate * block_align:
        raise ValueError(
            f"{path}: inconsistent fmt chunk: block align {block_align} and byte "
            f"rate {byte_rate} for {rate} Hz mono {bit_depth}"
        )
    return dtype, bit_depth, rate


def read_wav(path) -> WavFile:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        riff = fh.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise ValueError(f"{path}: not a little-endian RIFF/WAVE file")
        fmt = None
        while True:
            head = fh.read(8)
            if len(head) < 8:
                raise ValueError(f"{path}: no data chunk")
            chunk, n = struct.unpack("<4sI", head)
            # every size is checked against the file before it is read or
            # skipped, so a corrupt header cannot request a huge read
            left = size - fh.tell()
            if n > left:
                raise ValueError(
                    f"{path}: truncated {chunk!r} chunk: header claims {n} bytes, "
                    f"file holds {left}"
                )
            if chunk == b"data":
                break
            end = fh.tell() + n + (n & 1)
            if chunk == b"fmt ":
                fmt = _parse_fmt(path, fh.read(n))
            fh.seek(end)
        if fmt is None:
            raise ValueError(f"{path}: data chunk before fmt chunk")
        dtype, bit_depth, rate = fmt
        if n % dtype.itemsize:
            raise ValueError(
                f"{path}: data chunk of {n} bytes is not a whole number of "
                f"{dtype.itemsize}-byte frames"
            )
        # read one chunk at a time through a buffer of the file's dtype
        # into the float64 result: no full-length copy of the file's data.
        # pcm16 is scaled on the way, by 2⁻¹⁵, which is exact
        count = n // dtype.itemsize
        samples = np.empty(count)
        buf = np.empty(min(count, SAMPLE_CHUNK), dtype)
        scale = _PCM16_STEP if bit_depth == "pcm16" else 1.0
        got = 0
        for s in sample_chunks(count):
            part = buf[: s.stop - s.start]
            got += fh.readinto(part)
            np.multiply(part, scale, out=samples[s])
        if got != n:
            raise ValueError(f"{path}: truncated data chunk: read {got} of {n} bytes")
    return WavFile(samples=Signal(samples, rate), bit_depth=bit_depth)


def _header(tag: int, itemsize: int, rate: int, count: int) -> bytes:
    """Every byte before the samples of a mono file of ``count`` samples."""
    if rate * itemsize > _U32_MAX:
        raise ValueError(f"sample rate {rate} is too large for a WAV header")
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * itemsize, itemsize, 8 * itemsize)
    fact_len = 0
    if tag == _FLOAT:
        fmt += b"\x00\x00"  # cbSize: no extension
        fact_len = 12
    nbytes = count * itemsize
    riff_size = 4 + (8 + len(fmt)) + fact_len + (8 + nbytes)
    if riff_size > _U32_MAX:
        raise ValueError(
            f"{count} samples of {8 * itemsize} bits exceed the RIFF size limit "
            f"of {_U32_MAX} bytes"
        )
    fact = struct.pack("<4sII", b"fact", 4, count) if fact_len else b""
    return (
        struct.pack("<4sI4s4sI", b"RIFF", riff_size, b"WAVE", b"fmt ", len(fmt))
        + fmt
        + fact
        + struct.pack("<4sI", b"data", nbytes)
    )


def write_wav(path, signal: Signal, bit_depth: str = "pcm16") -> None:
    """Write ``signal`` as a mono WAV. Its length and rate were checked
    when it was made and its fields cannot be reassigned, but its samples
    array can be written in place, so each chunk is checked to be finite
    here, from its minimum and maximum, before anything is written."""
    x = signal.samples
    if bit_depth not in _BIT_DEPTHS:
        raise ValueError(f"unsupported bit depth {bit_depth!r}")
    tag, dtype = _BIT_DEPTHS[bit_depth]
    header = _header(tag, dtype.itemsize, signal.sample_rate, x.size)
    # checked, clipped, scaled, rounded and cast one chunk at a time into
    # the output buffer: no full-length float64 copy of the samples
    data = np.empty(x.size, dtype)
    buf = np.empty(min(x.size, SAMPLE_CHUNK))
    clipped = 0
    for s in sample_chunks(x.size):
        chunk, out = x[s], buf[: s.stop - s.start]
        # numpy's min and max propagate a NaN, and hold an infinity
        low, high = chunk.min(), chunk.max()
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("refusing to write non-finite samples")
        if low < -1.0 or high > 1.0:
            clipped += int(np.count_nonzero((chunk < -1.0) | (chunk > 1.0)))
            chunk = np.clip(chunk, -1.0, 1.0, out=out)
        if tag == _PCM:
            chunk = np.multiply(chunk, _PCM16_SCALE, out=out)
            np.round(chunk, out=chunk)
            # −1 scales to −32768 exactly; only a sample from
            # 32767.5/32768 up rounds past 32767
            if high >= 32767.5 * _PCM16_STEP:
                np.minimum(chunk, 32767, out=chunk)
        data[s] = chunk
    if clipped:
        log.warning("%s: clipped %d samples to [-1, 1]", path, clipped)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
