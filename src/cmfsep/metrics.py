"""Objective evaluation of reconstructed signals.

``tir_loss`` is an explicit surrogate for the interference-loss score:
the mean over analysis frames of ``min(1, max(0, 1 - snr/R))`` with the
per-frame SNR in dB between the reference and the reconstruction error,
and full credit at R = 35 dB. It is labeled a surrogate in all
serialized output. ``tir_esc`` couples it with the squared correlation
shortfall.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .stft import Signal, StftConfig

__all__ = [
    "EvalReport",
    "correlation",
    "tir_loss",
    "tir_esc",
    "snr_db",
    "evaluate",
    "summarize",
]

FULL_CREDIT_SNR_DB = 35.0
SNR_CAP_DB = 120.0
_SILENCE = 1e-300

CSV_HEADER = "correlation,tir_loss,tir_esc,snr_db"


@dataclass(frozen=True)
class EvalReport:
    correlation: float
    tir_loss: float
    tir_esc: float
    snr_db: float
    per_frame: Optional[np.ndarray] = None
    pesq: Optional[float] = None  # externally computed, never produced here

    def to_json(self) -> str:
        payload = {
            "correlation": self.correlation,
            "tir_loss": self.tir_loss,
            "tir_esc": self.tir_esc,
            "snr_db": self.snr_db,
            "tir_loss_definition": "surrogate",
        }
        if self.pesq is not None:
            payload["pesq"] = self.pesq
        return json.dumps(payload, sort_keys=True)

    def to_csv_row(self) -> str:
        return (
            f"{self.correlation:.12g},{self.tir_loss:.12g},"
            f"{self.tir_esc:.12g},{self.snr_db:.12g}"
        )


def _aligned(ref: Signal, est: Signal) -> tuple[np.ndarray, np.ndarray]:
    """Truncate or zero-pad est at the tail to the reference length."""
    r = ref.samples
    e = est.samples
    if e.size >= r.size:
        e = e[: r.size]
    else:
        e = np.concatenate([e, np.zeros(r.size - e.size)])
    return r, e


def correlation(ref: Signal, est: Signal) -> float:
    """Pearson correlation coefficient of the sample sequences."""
    r, e = _aligned(ref, est)
    rc = r - r.mean()
    ec = e - e.mean()
    rn = np.linalg.norm(rc)
    en = np.linalg.norm(ec)
    if rn == 0.0 or en == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    return float(np.clip(np.dot(rc, ec) / (rn * en), -1.0, 1.0))


def _frame_energies(x: np.ndarray, n: int, hop: int) -> np.ndarray:
    """Sum of squares of each complete n-sample frame, frames hop apart."""
    frames = np.lib.stride_tricks.sliding_window_view(x, n)[::hop]
    return np.einsum("ij,ij->i", frames, frames)


def _frame_losses(ref: Signal, est: Signal, cfg: StftConfig) -> np.ndarray:
    r, e = _aligned(ref, est)
    n, hop = cfg.frame_len, cfg.hop
    if r.size < n:
        # short signals degenerate to a single frame
        n = hop = r.size
    ref_energy = _frame_energies(r, n, hop)
    err_energy = _frame_energies(e - r, n, hop)
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
    """Energy-ratio SNR in dB, capped at 120 for exact matches."""
    r, e = _aligned(ref, est)
    ref_energy = float(np.sum(r**2))
    if ref_energy == 0.0:
        raise ValueError("snr undefined for a zero reference")
    err_energy = float(np.sum((e - r) ** 2))
    if err_energy == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, 10.0 * math.log10(ref_energy / err_energy))


def evaluate(
    ref: Signal, est: Signal, cfg: StftConfig, with_per_frame: bool = False
) -> EvalReport:
    r = correlation(ref, est)
    losses = _frame_losses(ref, est, cfg)
    loss = float(np.mean(losses))
    return EvalReport(
        correlation=r,
        tir_loss=loss,
        tir_esc=loss * (1.0 - r * r),
        snr_db=snr_db(ref, est),
        per_frame=losses if with_per_frame else None,
    )


def summarize(reports: Sequence[EvalReport]) -> str:
    """Mean and standard deviation rows over a batch, as CSV."""
    if not reports:
        raise ValueError("no reports to summarize")
    rows = np.array(
        [[r.correlation, r.tir_loss, r.tir_esc, r.snr_db] for r in reports]
    )
    mu = rows.mean(axis=0)
    sigma = rows.std(axis=0)
    lines = ["stat," + CSV_HEADER]
    lines.append("mean," + ",".join(f"{v:.12g}" for v in mu))
    lines.append("std," + ",".join(f"{v:.12g}" for v in sigma))
    return "\n".join(lines)
