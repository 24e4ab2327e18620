"""Binary persistence of trained basis sets (CMFB format).

Layout, little-endian:

    magic      4 bytes  b"CMFB"
    version    u16      1
    id_len     u16      followed by id_len bytes of UTF-8 speaker id
    rank       u32
    freq_bins  u32
    frame_len  u32
    hop        u32      must equal frame_len/2
    sample_rate u32
    window_id  u8       must be 0 (sqrt_hann, the only window)
    payload    freq_bins*rank complex entries as interleaved f64 pairs,
               row-major

Round trips are bit-exact.
"""

import os
import struct

import numpy as np

from .separation import BasisSet
from .stft import StftConfig

__all__ = ["save_bases", "load_bases", "BasesFileError"]

MAGIC = b"CMFB"
VERSION = 1
WINDOW_ID = 0  # sqrt_hann


class BasesFileError(ValueError):
    """Malformed or truncated CMFB file."""


def save_bases(path, b: BasisSet) -> None:
    sid = b.speaker_id.encode("utf-8")
    cfg = b.stft_cfg
    header = struct.pack(
        f"<4sHH{len(sid)}sIIIIIB",
        MAGIC,
        VERSION,
        len(sid),
        sid,
        b.rank,
        cfg.freq_bins,
        cfg.frame_len,
        cfg.hop,
        cfg.sample_rate,
        WINDOW_ID,
    )
    payload = np.ascontiguousarray(b.x_train, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise BasesFileError(
            f"truncated {what}: expected {n} bytes, got {len(buf)}"
        )
    return buf


def load_bases(path) -> BasisSet:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "header")
        if magic != MAGIC:
            raise BasesFileError(f"{path}: not a CMFB file")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, "header"))
        if version != VERSION:
            raise BasesFileError(
                f"{path}: unsupported CMFB version {version} (expected {VERSION})"
            )
        (id_len,) = struct.unpack("<H", _read_exact(fh, 2, "header"))
        try:
            speaker_id = _read_exact(fh, id_len, "speaker id").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BasesFileError(f"{path}: speaker id is not UTF-8") from exc
        rank, freq_bins, frame_len, hop, sample_rate, window_id = struct.unpack(
            "<IIIIIB", _read_exact(fh, 21, "header")
        )
        if window_id != WINDOW_ID:
            raise BasesFileError(f"{path}: unknown window id {window_id}")
        if hop != frame_len // 2:
            raise BasesFileError(
                f"{path}: sqrt_hann synthesis requires hop = frame_len/2 "
                f"(got hop={hop}, frame_len={frame_len})"
            )
        if freq_bins != frame_len // 2 + 1:
            raise BasesFileError(
                f"{path}: freq_bins {freq_bins} inconsistent with frame_len {frame_len}"
            )
        # check the declared size against the file before reading, so a
        # corrupt header cannot request an arbitrarily large read
        expected = freq_bins * rank * 16
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < expected:
            raise BasesFileError(
                f"{path}: truncated payload: expected {expected} bytes, got {left}"
            )
        if left > expected:
            raise BasesFileError(f"{path}: trailing bytes after payload")
        payload = _read_exact(fh, expected, "payload")
    x = np.frombuffer(payload, dtype=np.complex128).reshape(freq_bins, rank).copy()
    if not np.all(np.isfinite(x)):
        raise BasesFileError(f"{path}: payload contains non-finite entries")
    try:
        cfg = StftConfig(frame_len=frame_len, sample_rate=sample_rate)
        return BasisSet(x_train=x, speaker_id=speaker_id, stft_cfg=cfg)
    except ValueError as exc:
        raise BasesFileError(f"{path}: {exc}") from exc
