"""Seeded synthetic speech stand-ins and the three benchmark workloads.

Each speaker is a set of band-limited complex spectral prototypes with
random magnitudes and phases; a signal is the inverse STFT of those
prototypes under random nonnegative gains, plus a little white noise.
The two speakers' bands overlap (100-2500 Hz and 1500-6000 Hz), so the
bases share frequency rows and separation is not trivial. The two
speakers are the same in every run: their prototypes come from a fixed
stream, because the fit error depends mostly on the prototypes: drawn
from the seed, its quartile spread over seeds was near 30 %. The seed draws
everything else (every gain, all noise, the solver's initialisation), so
each seed gives different signals and files, and the program receives
only those.

A workload's constructor is its set-up; ``job`` is the timed unit of
work; ``outcome`` scores and checks one job's output outside the timing.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cmfsep.cli as cli_mod
import cmfsep.separation as sep_mod
from cmfsep.bases_file import save_bases
from cmfsep.config import SepConfig
from cmfsep.io_wav import read_wav, write_wav
from cmfsep.linalg import frobenius_norm_sq
from cmfsep.metrics import evaluate
from cmfsep.stft import Signal, StftConfig, istft

RATE = 16000
STFT = StftConfig(sample_rate=RATE)
BAND_A = (100.0, 2500.0)
BAND_B = (1500.0, 6000.0)
NOISE = 1e-3  # white-noise standard deviation, against a 0.5 peak
SPEAKERS_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and the quality floors a correct job clears."""

    train_s: float = 3.0  # train: seconds of one speaker; short, so a run times ~10 jobs
    rank: int = 40  # per speaker
    train_iters: int = 500
    sep_s: float = 2.5  # separate: mixture seconds; short, so a run times ~12 jobs
    sep_iters: int = 500
    long_s: float = 120.0  # longform: mixture seconds
    long_iters: int = 20
    bases_s: float = 2.0  # set-up: training seconds per speaker
    bases_iters: int = 100
    prototypes: int = 16  # spectral prototypes per speaker
    max_rel_error: float = 0.15
    min_correlation: float = 0.85


@dataclass
class Outcome:
    """One job's output, reduced to what the benchmark checks and reports."""

    digest: str
    rel_error: float
    snr_db: float
    tir_esc: float
    correlations: list
    finite: bool

    def failures(self, sizes: Sizes) -> list:
        out = []
        values = [self.rel_error, self.snr_db, self.tir_esc, *self.correlations]
        if not self.finite or not all(math.isfinite(v) for v in values):
            out.append("non-finite output")
        if self.rel_error > sizes.max_rel_error:
            out.append(f"rel_error {self.rel_error:.4g} > {sizes.max_rel_error}")
        low = [c for c in self.correlations if c < sizes.min_correlation]
        if low:
            out.append(f"correlation {min(low):.4g} < {sizes.min_correlation}")
        return out


class FitCapture:
    """Keeps the input and result of the last ``cmf_factorize`` call made
    through ``cmfsep.separation``, for the relative error of a job's fit."""

    def __init__(self):
        self.last = None
        self._original = sep_mod.cmf_factorize

        def capture(z, *args, **kwargs):
            result = self._original(z, *args, **kwargs)
            self.last = (z, result)
            return result

        sep_mod.cmf_factorize = capture

    def take(self):
        """Return (relative error, result) of the last fit and forget it."""
        z, result = self.last
        self.last = None
        return result.final_error / frobenius_norm_sq(z), result

    def close(self):
        sep_mod.cmf_factorize = self._original


def _rng(seed: int, stream: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "little")
    return np.random.default_rng((seed, tag))


def _prototypes(rng, band, k: int) -> np.ndarray:
    freqs = np.arange(STFT.freq_bins) * RATE / STFT.frame_len
    bins = np.flatnonzero((freqs >= band[0]) & (freqs <= band[1]))
    protos = np.zeros((STFT.freq_bins, k), dtype=np.complex128)
    protos[bins] = rng.uniform(0.2, 1.0, (bins.size, k)) * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, (bins.size, k))
    )
    return protos


def _speech(rng, protos: np.ndarray, seconds: float) -> np.ndarray:
    n = int(round(seconds * RATE))
    frames = (n - STFT.frame_len) // STFT.hop + 3
    gains = rng.uniform(0.0, 1.0, (protos.shape[1], frames))
    x = istft(protos @ gains, STFT).samples[:n]
    return 0.5 * x / np.max(np.abs(x)) + NOISE * rng.standard_normal(n)


class _Speakers:
    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.protos_a = _prototypes(_rng(SPEAKERS_SEED, "protos-a"), BAND_A, sizes.prototypes)
        self.protos_b = _prototypes(_rng(SPEAKERS_SEED, "protos-b"), BAND_B, sizes.prototypes)

    def speech(self, speaker: str, seconds: float, use: str) -> np.ndarray:
        protos = self.protos_a if speaker == "a" else self.protos_b
        return _speech(_rng(self.seed, f"{use}-{speaker}"), protos, seconds)

    def mixture(self, seconds: float):
        """Two unit-energy sources summed and scaled to a 0.5 peak; returns
        (mixture, reference a, reference b) at that common scale."""
        a, b = (self.speech(s, seconds, "mix") for s in "ab")
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        scale = 0.5 / np.max(np.abs(a + b))
        return scale * (a + b), scale * a, scale * b

    def bases(self, sizes: Sizes):
        cfg = SepConfig(rank=sizes.rank, iters=sizes.bases_iters, seed=self.seed, stft_cfg=STFT)
        return tuple(
            sep_mod.train_bases(
                [Signal(self.speech(s, sizes.bases_s, "bases"), RATE)], s, cfg
            )
            for s in "ab"
        )


def _digest(*arrays_or_bytes) -> str:
    h = hashlib.sha256()
    for item in arrays_or_bytes:
        h.update(item if isinstance(item, bytes) else np.ascontiguousarray(item).tobytes())
    return h.hexdigest()


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _scores(refs, ests):
    reports = [evaluate(Signal(r, RATE), e, STFT) for r, e in zip(refs, ests)]
    return (
        float(np.mean([r.snr_db for r in reports])),
        float(np.mean([r.tir_esc for r in reports])),
        [r.correlation for r in reports],
    )


class Train:
    """``train_bases`` on one speaker: the full block NMF with X updates."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.audio_s = sizes.train_s
        self.signal = Signal(_Speakers(seed, sizes).speech("a", sizes.train_s, "train"), RATE)
        self.cfg = SepConfig(rank=sizes.rank, iters=sizes.train_iters, seed=seed, stft_cfg=STFT)

    def job(self):
        return sep_mod.train_bases([self.signal], "a", self.cfg)

    def outcome(self, bases, fit: FitCapture) -> Outcome:
        rel_error, result = fit.take()
        # the fit's resynthesis of its own input is this workload's estimate
        est = istft(result.x @ result.h, STFT)
        snr, tir, corr = _scores([self.signal.samples], [est])
        return Outcome(
            digest=_digest(bases.x_train),
            rel_error=rel_error,
            snr_db=snr,
            tir_esc=tir,
            correlations=corr,
            finite=_finite(bases.x_train, est.samples),
        )


class Separate:
    """Library ``separate`` against fixed bases: H updates only."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        speakers = _Speakers(seed, sizes)
        self.audio_s = sizes.sep_s
        self.bases = speakers.bases(sizes)
        mix, *self.refs = speakers.mixture(sizes.sep_s)
        self.mix = Signal(mix, RATE)
        # tol=0 runs every iteration, so each seed does the same work
        self.cfg = SepConfig(
            rank=2 * sizes.rank, iters=sizes.sep_iters, tol=0.0, seed=seed, stft_cfg=STFT
        )

    def job(self):
        return sep_mod.separate(self.mix, *self.bases, self.cfg)

    def outcome(self, ests, fit: FitCapture) -> Outcome:
        rel_error, _ = fit.take()
        snr, tir, corr = _scores(self.refs, ests)
        return Outcome(
            digest=_digest(*(e.samples for e in ests)),
            rel_error=rel_error,
            snr_db=snr,
            tir_esc=tir,
            correlations=corr,
            finite=_finite(*(e.samples for e in ests)),
        )


class Longform:
    """The ``cmfsep`` command on a long mixture: WAV and CMFB input, a
    short solve, WAV output, then ``eval`` of each estimate."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        speakers = _Speakers(seed, sizes)
        self.audio_s = sizes.long_s
        self.seed = seed
        self.dir = workdir
        mix, ref_a, ref_b = speakers.mixture(sizes.long_s)
        for name, b in zip(("bases_a", "bases_b"), speakers.bases(sizes)):
            save_bases(self.path(f"{name}.cmfb"), b)
        write_wav(self.path("mix.wav"), Signal(mix, RATE), "pcm16")
        write_wav(self.path("ref_a.wav"), Signal(ref_a, RATE), "float32")
        write_wav(self.path("ref_b.wav"), Signal(ref_b, RATE), "float32")
        self.iters = sizes.long_iters

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def _cli(self, *argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_mod.cli_main(list(argv))
        if code != cli_mod.EXIT_OK:
            raise RuntimeError(f"cmfsep {argv[0]} exited with {code}")
        return out.getvalue()

    def job(self):
        self._cli(
            "separate", "--mix", self.path("mix.wav"),
            "--bases-a", self.path("bases_a.cmfb"), "--bases-b", self.path("bases_b.cmfb"),
            "--out-dir", self.path("out"), "--iters", str(self.iters), "--seed", str(self.seed),
        )
        return [
            self._cli("eval", "--ref", self.path(f"ref_{s}.wav"), "--est", self.path(f"out/est_{s}.wav"))
            for s in "ab"
        ]

    def outcome(self, reports, fit: FitCapture) -> Outcome:
        rel_error, _ = fit.take()
        scores = [json.loads(r) for r in reports]
        paths = [self.path(f"out/est_{s}.wav") for s in "ab"]
        wavs = [Path(p).read_bytes() for p in paths]
        samples = [read_wav(p).samples.samples for p in paths]
        return Outcome(
            digest=_digest(*wavs, *(r.encode() for r in reports)),
            rel_error=rel_error,
            snr_db=float(np.mean([s["snr_db"] for s in scores])),
            tir_esc=float(np.mean([s["tir_esc"] for s in scores])),
            correlations=[s["correlation"] for s in scores],
            finite=_finite(*samples),
        )


WORKLOADS = {"train": Train, "separate": Separate, "longform": Longform}
