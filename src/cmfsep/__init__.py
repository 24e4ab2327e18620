"""Phase-aware single-channel source separation via complex matrix
factorization reduced to NMF."""

from .cmf import (
    CmfResult,
    SplitQuad,
    cmf_factorize,
    merge_quad,
    split_complex,
    symmetrize_h,
)
from .config import SepConfig
from .metrics import EvalReport, correlation, evaluate, snr_db, tir_esc, tir_loss
from .nmf import NmfProblem, NmfState, nmf_step
from .separation import BasisSet, reconstruct, separate, train_bases
from .stft import Signal, StftConfig, dft, istft, stft

__all__ = [
    "BasisSet",
    "CmfResult",
    "EvalReport",
    "NmfProblem",
    "NmfState",
    "SepConfig",
    "Signal",
    "SplitQuad",
    "StftConfig",
    "cmf_factorize",
    "correlation",
    "dft",
    "evaluate",
    "istft",
    "merge_quad",
    "nmf_step",
    "reconstruct",
    "separate",
    "snr_db",
    "split_complex",
    "stft",
    "symmetrize_h",
    "tir_esc",
    "tir_loss",
    "train_bases",
]

__version__ = "0.1.0"
