"""Tunables for factorization and separation runs."""

import numbers
from dataclasses import dataclass, field

from .stft import StftConfig

__all__ = ["SepConfig"]


def _check_integer(name: str, value, least: int) -> None:
    """``value`` is a whole number (a numpy integer too) of at least
    ``least``: a float count passes a comparison and fails only later,
    in ``range`` or ``np.empty``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SepConfig:
    """Settings of a factorization or separation run.

    ``train_bases`` reads all five fields. ``separate`` and
    ``cmf_factorize`` read only ``iters``, ``tol`` and ``seed``:
    ``separate`` takes the rank and STFT settings from its basis sets,
    and passes the bases' ``StftConfig`` to ``reconstruct``, which takes
    no ``SepConfig``; ``cmf_factorize`` takes the rank from its argument.
    The command line builds ``stft_cfg`` from ``--frame`` and the sample
    rate of its input WAV files.
    """

    rank: int = 40
    iters: int = 500
    tol: float = 1e-6
    seed: int = 0
    stft_cfg: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        _check_integer("rank", self.rank, 1)
        _check_integer("iters", self.iters, 1)
        _check_integer("seed", self.seed, 0)
        # a NaN tol would never stop the loop; inf stops after one iteration
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
