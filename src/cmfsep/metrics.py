"""Objective evaluation of reconstructed signals.

``tir_loss`` is an explicit surrogate for the interference-loss score:
the mean over analysis frames of ``min(1, max(0, 1 - snr/R))`` with the
per-frame SNR in dB between the reference and the reconstruction error,
and full credit at R = 35 dB. It is labeled a surrogate in all
serialized output. ``tir_esc`` couples it with the squared correlation
shortfall.

Each metric walks the signals in chunks (``linalg.SAMPLE_CHUNK`` samples,
or ``linalg.FRAME_CHUNK`` analysis frames), so besides its inputs it
holds one chunk of centred samples or of errors, never a full-length
temporary.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import frame_chunks, sample_chunks
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


def _aligned_chunks(ref: Signal, est: Signal):
    """(reference, estimate) samples, one ``linalg.SAMPLE_CHUNK`` at a
    time over the reference's length: the estimate is truncated, or
    zero-padded at its tail, to that length."""
    r, e = ref.samples, est.samples
    for s in sample_chunks(r.size):
        yield r[s], _tail(e, s.start, s.stop)


def correlation(ref: Signal, est: Signal) -> float:
    """Pearson correlation coefficient of the sample sequences. Its
    centred sums are taken chunk by chunk."""
    r, e = ref.samples, est.samples
    r_mean = r.mean()
    # the estimate's zero padding adds nothing to its sum
    e_mean = e[: r.size].sum() / r.size
    srr = see = sre = 0.0
    for rc, ec in _aligned_chunks(ref, est):
        rc = rc - r_mean
        ec = ec - e_mean
        srr += np.dot(rc, rc)
        see += np.dot(ec, ec)
        sre += np.dot(rc, ec)
    if srr == 0.0 or see == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    return float(np.clip(sre / (math.sqrt(srr) * math.sqrt(see)), -1.0, 1.0))


def _frame_energies(x: np.ndarray, n: int, hop: int) -> np.ndarray:
    """Sum of squares of each complete n-sample frame, frames hop apart."""
    frames = np.lib.stride_tricks.sliding_window_view(x, n)[::hop]
    return np.einsum("ij,ij->i", frames, frames)


def _frame_losses(ref: Signal, est: Signal, cfg: StftConfig) -> np.ndarray:
    r, e = ref.samples, est.samples
    n, hop = cfg.frame_len, cfg.hop
    if r.size < n:
        # short signals degenerate to a single frame
        n = hop = r.size
    count = (r.size - n) // hop + 1
    ref_energy, err_energy = np.empty(count), np.empty(count)
    # the error is formed over the samples of one frame chunk at a time
    for cols in frame_chunks(count):
        lo, hi = cols.start * hop, (cols.stop - 1) * hop + n
        ref_energy[cols] = _frame_energies(r[lo:hi], n, hop)
        err_energy[cols] = _frame_energies(_tail(e, lo, hi) - r[lo:hi], n, hop)
    # a silent reference frame carries no target information
    voiced = ref_energy > _SILENCE
    if not voiced.any():
        raise ValueError("reference is silent in every frame")
    ref_energy, err_energy = ref_energy[voiced], err_energy[voiced]
    losses = np.zeros(ref_energy.size)
    lossy = err_energy > _SILENCE
    snr = 10.0 * np.log10(ref_energy[lossy] / err_energy[lossy])
    losses[lossy] = np.clip(1.0 - snr / FULL_CREDIT_SNR_DB, 0.0, 1.0)
    return losses


def tir_loss(ref: Signal, est: Signal, cfg: StftConfig) -> float:
    """Interference loss surrogate in [0, 1]; 0 is perfect."""
    return float(np.mean(_frame_losses(ref, est, cfg)))


def tir_esc(ref: Signal, est: Signal, cfg: StftConfig) -> float:
    r = correlation(ref, est)
    return tir_loss(ref, est, cfg) * (1.0 - r * r)


def snr_db(ref: Signal, est: Signal) -> float:
    """Energy-ratio SNR in dB, capped at 120 for exact matches. The
    error energy is summed chunk by chunk."""
    r = ref.samples
    ref_energy = float(np.dot(r, r))
    if ref_energy == 0.0:
        raise ValueError("snr undefined for a zero reference")
    err_energy = 0.0
    for rc, ec in _aligned_chunks(ref, est):
        d = ec - rc
        err_energy += float(np.dot(d, d))
    if err_energy == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, 10.0 * math.log10(ref_energy / err_energy))


def evaluate(ref: Signal, est: Signal, cfg: StftConfig) -> EvalReport:
    """All four metrics of ``est`` against ``ref``. The two signals must
    share one sample rate; ``ValueError`` otherwise. ``cfg`` sets the
    analysis frames of ``tir_loss``."""
    if ref.sample_rate != est.sample_rate:
        raise ValueError("sample rate mismatch between ref and est")
    r = correlation(ref, est)
    loss = tir_loss(ref, est, cfg)
    return EvalReport(
        correlation=r,
        tir_loss=loss,
        tir_esc=loss * (1.0 - r * r),
        snr_db=snr_db(ref, est),
    )
