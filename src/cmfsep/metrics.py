"""Objective evaluation of reconstructed signals.

``tir_loss`` is an explicit surrogate for the interference-loss score:
the mean over analysis frames of ``min(1, max(0, 1 - snr/R))`` with the
per-frame SNR in dB between the reference and the reconstruction error,
and full credit at R = 35 dB. It is labeled a surrogate in all
serialized output. ``tir_esc`` couples it with the squared correlation
shortfall.

All four metrics read the sums of one loop over the aligned signals
(``_sums``), which walks them in chunks of ``linalg.SAMPLE_CHUNK``
samples, and ``evaluate`` runs that loop once: each full-length array is
read once. A frame's energy is the sum of the energies of its two hop
blocks, since hop = frame/2, so the loop sums each hop block once rather
than each overlapping frame. Besides its inputs the loop holds one chunk
of centred samples and errors and the block energies, never a
full-length temporary.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import SAMPLE_CHUNK, sample_chunks
from .stft import Signal, StftConfig

__all__ = [
    "EvalReport",
    "correlation",
    "tir_loss",
    "tir_esc",
    "snr_db",
    "evaluate",
]

FULL_CREDIT_SNR_DB = 35.0
SNR_CAP_DB = 120.0
_SILENCE = 1e-300


@dataclass(frozen=True)
class EvalReport:
    correlation: float
    tir_loss: float
    tir_esc: float
    snr_db: float

    def to_json(self) -> str:
        payload = {
            "correlation": self.correlation,
            "tir_loss": self.tir_loss,
            "tir_esc": self.tir_esc,
            "snr_db": self.snr_db,
            "tir_loss_definition": "surrogate",
        }
        return json.dumps(payload, sort_keys=True)

    def to_csv_row(self) -> str:
        return (
            f"{self.correlation:.12g},{self.tir_loss:.12g},"
            f"{self.tir_esc:.12g},{self.snr_db:.12g}"
        )


def _tail(e: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Samples ``lo:hi`` of ``e``, zero past its end."""
    part = e[lo:hi]
    if part.size == hi - lo:
        return part
    out = np.zeros(hi - lo)
    out[: part.size] = part
    return out


@dataclass(frozen=True)
class _Sums:
    """What the metrics read of one pass over the aligned signals: the
    centred sums of the correlation, the energies of the reference and
    of the error, and, when the pass was given a hop, the energy of each
    analysis frame of each."""

    srr: float
    see: float
    sre: float
    ref_energy: float
    err_energy: float
    ref_frames: Optional[np.ndarray] = None
    err_frames: Optional[np.ndarray] = None


def _block_energies(x: np.ndarray, hop: int) -> np.ndarray:
    """Sum of squares of each whole hop-sample block of ``x``."""
    blocks = x[: x.size // hop * hop].reshape(-1, hop)
    return np.einsum("ij,ij->i", blocks, blocks)


def _sums(ref: Signal, est: Signal, hop: Optional[int] = None) -> _Sums:
    """One chunk loop over the reference and the estimate, the estimate
    truncated, or zero-padded at its tail, to the reference's length.

    Each chunk is centred on its own means; the centred sums add the
    spread of the chunk means about the signal's, an exact
    decomposition whose squares are sums of nonnegative terms. With
    ``hop`` the loop also sums each whole hop block of the reference and
    of the error, and a frame's energy is that of its two blocks, since
    frames are 2·hop samples, hop apart; a reference shorter than one
    frame is one frame. Chunks are ``linalg.SAMPLE_CHUNK`` samples, or
    ``hop`` when that is longer, so every block lies in one chunk."""
    r, e = ref.samples, est.samples
    chunks = sample_chunks(r.size, SAMPLE_CHUNK if hop is None else max(SAMPLE_CHUNK, hop))
    work = np.empty((2, chunks[0].stop))
    blocks = None if hop is None else np.empty((2, r.size // hop))
    srr = see = sre = ref_energy = err_energy = 0.0
    means = []  # (length, reference mean, estimate mean) of each chunk
    for s in chunks:
        rc, ec = r[s], _tail(e, s.start, s.stop)
        m = rc.size
        means.append((m, rc.sum() / m, ec.sum() / m))
        rd = np.subtract(rc, means[-1][1], out=work[0, :m])
        ed = np.subtract(ec, means[-1][2], out=work[1, :m])
        srr += np.dot(rd, rd)
        see += np.dot(ed, ed)
        sre += np.dot(rd, ed)
        ref_energy += np.dot(rc, rc)
        d = np.subtract(ec, rc, out=rd)
        err_energy += np.dot(d, d)
        if hop is not None:
            at = s.start // hop
            for row, x in enumerate((rc, d)):
                energies = _block_energies(x, hop)
                blocks[row, at : at + energies.size] = energies
    mean_r = sum(m * mr for m, mr, _ in means) / r.size
    mean_e = sum(m * me for m, _, me in means) / r.size
    for m, mr, me in means:
        srr += m * (mr - mean_r) ** 2
        see += m * (me - mean_e) ** 2
        sre += m * (mr - mean_r) * (me - mean_e)
    frames = (None, None)
    if hop is not None:
        if r.size < 2 * hop:
            frames = np.array([ref_energy]), np.array([err_energy])
        else:
            frames = blocks[0, :-1] + blocks[0, 1:], blocks[1, :-1] + blocks[1, 1:]
    return _Sums(float(srr), float(see), float(sre), float(ref_energy), float(err_energy), *frames)


def _correlation(sums: _Sums) -> float:
    if sums.srr == 0.0 or sums.see == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    return float(np.clip(sums.sre / (math.sqrt(sums.srr) * math.sqrt(sums.see)), -1.0, 1.0))


def _losses(sums: _Sums) -> np.ndarray:
    """The loss of each analysis frame the reference is not silent in."""
    # a silent reference frame carries no target information
    voiced = sums.ref_frames > _SILENCE
    if not voiced.any():
        raise ValueError("reference is silent in every frame")
    ref_energy, err_energy = sums.ref_frames[voiced], sums.err_frames[voiced]
    losses = np.zeros(ref_energy.size)
    lossy = err_energy > _SILENCE
    snr = 10.0 * np.log10(ref_energy[lossy] / err_energy[lossy])
    losses[lossy] = np.clip(1.0 - snr / FULL_CREDIT_SNR_DB, 0.0, 1.0)
    return losses


def _snr_db(sums: _Sums) -> float:
    if sums.ref_energy == 0.0:
        raise ValueError("snr undefined for a zero reference")
    if sums.err_energy == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, 10.0 * math.log10(sums.ref_energy / sums.err_energy))


def correlation(ref: Signal, est: Signal) -> float:
    """Pearson correlation coefficient of the sample sequences."""
    return _correlation(_sums(ref, est))


def _frame_losses(ref: Signal, est: Signal, cfg: StftConfig) -> np.ndarray:
    return _losses(_sums(ref, est, cfg.hop))


def tir_loss(ref: Signal, est: Signal, cfg: StftConfig) -> float:
    """Interference loss surrogate in [0, 1]; 0 is perfect."""
    return float(np.mean(_frame_losses(ref, est, cfg)))


def tir_esc(ref: Signal, est: Signal, cfg: StftConfig) -> float:
    sums = _sums(ref, est, cfg.hop)
    r = _correlation(sums)
    return float(np.mean(_losses(sums))) * (1.0 - r * r)


def snr_db(ref: Signal, est: Signal) -> float:
    """Energy-ratio SNR in dB, capped at 120 for exact matches."""
    return _snr_db(_sums(ref, est))


def evaluate(ref: Signal, est: Signal, cfg: StftConfig) -> EvalReport:
    """All four metrics of ``est`` against ``ref``, from one pass over
    the two. The signals must share one sample rate; ``ValueError``
    otherwise. ``cfg`` sets the analysis frames of ``tir_loss``."""
    if ref.sample_rate != est.sample_rate:
        raise ValueError("sample rate mismatch between ref and est")
    sums = _sums(ref, est, cfg.hop)
    r = _correlation(sums)
    loss = float(np.mean(_losses(sums)))
    return EvalReport(
        correlation=r,
        tir_loss=loss,
        tir_esc=loss * (1.0 - r * r),
        snr_db=_snr_db(sums),
    )
