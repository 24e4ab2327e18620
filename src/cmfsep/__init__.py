"""Phase-aware single-channel source separation via complex matrix
factorization reduced to NMF.

The package root exports the library: configs, signals, the transform,
factorization, separation and metrics. Solver internals (the split and
merge of a complex matrix, the NMF problem, state and step) live in
their modules, ``cmfsep.cmf``, ``cmfsep.nmf`` and ``cmfsep.linalg``."""

from .cmf import CmfResult, cmf_factorize
from .config import SepConfig
from .metrics import EvalReport, correlation, evaluate, snr_db, tir_esc, tir_loss
from .separation import BasisSet, reconstruct, separate, train_bases
from .stft import Signal, StftConfig, dft, istft, stft

__all__ = [
    "BasisSet",
    "CmfResult",
    "EvalReport",
    "SepConfig",
    "Signal",
    "StftConfig",
    "cmf_factorize",
    "correlation",
    "dft",
    "evaluate",
    "istft",
    "reconstruct",
    "separate",
    "snr_db",
    "stft",
    "tir_esc",
    "tir_loss",
    "train_bases",
]

__version__ = "0.1.0"
