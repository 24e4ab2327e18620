"""The metrics computed metric by metric, each with passes of its own
over the two signals: the centred sums of the correlation after a pass
for each mean, the error energy of the SNR, and the tir loss from the
energy of every whole analysis frame, frames overlapping. The one-pass
metrics of ``cmfsep.metrics`` are held to these."""

import math

import numpy as np

from cmfsep.linalg import frame_chunks, sample_chunks
from cmfsep.metrics import _SILENCE, FULL_CREDIT_SNR_DB, SNR_CAP_DB
from cmfsep.stft import Signal, StftConfig


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
