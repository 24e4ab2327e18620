"""Span recorder and layer instrumentation for the traced benchmark run.

Spans are recorded from outside the program: ``instrument`` replaces the
names that cmfsep's modules use to call one another with timing wrappers,
so the program's source is untouched. Each span holds its name, start and
end (``time.perf_counter`` seconds), the index of its parent span, the job
it belongs to and an optional work count (frames, bytes, iterations).
Spans are kept in memory and written out by the caller when the run ends.
"""

import functools
import os
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import cmfsep.cli as cli_mod
import cmfsep.cmf as cmf_mod
import cmfsep.nmf as nmf_mod
import cmfsep.separation as sep_mod
from cmfsep.config import SepConfig


@dataclass
class Span:
    name: str
    index: int
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[int] = None
    count: float = 0.0
    stopped_early: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while a job is open; records nothing between jobs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: Optional[int] = None
        self._stack: list[int] = []

    @property
    def active(self) -> bool:
        return self.job is not None

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, len(self.spans), time.perf_counter(), parent=parent, job=self.job)
        self._stack.append(span.index)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def job_spans(self, job: int) -> list[Span]:
        return [s for s in self.spans if s.job == job]

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "job": s.job,
                "count": s.count,
                "stopped_early": s.stopped_early,
            }
            for s in self.spans
        ]


# Work counts, set on a span from the wrapped call's arguments and result.
def _frames_out(span, args, kwargs, result):
    span.count = result.shape[1]


def _frames_in(span, args, kwargs, result):
    span.count = args[0].shape[1]


def _file_bytes(span, args, kwargs, result):
    span.count = os.path.getsize(args[0])


def _iterations(span, args, kwargs, result):
    span.count = len(result.objective_history)
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    span.stopped_early = span.count < (cfg or SepConfig()).iters


def _timed(recorder: Recorder, name: str, fn, measure=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if measure is not None:
            measure(span, args, kwargs, result)
        return result

    return wrapper


# (module, attribute, span name, measure). Each entry is a name one of
# cmfsep's modules looks up at call time, so wrapping it there times every
# call made through that module.
_PATCHES = [
    (sep_mod, "stft", "stft.stft", _frames_out),
    (sep_mod, "istft", "stft.istft", _frames_in),
    (cmf_mod, "split_complex", "cmf.split", None),
    (cmf_mod, "assemble_zc", "cmf.split", None),
    (cmf_mod, "nmf_step", "nmf.step", None),
    (nmf_mod, "frobenius_norm_sq", "nmf.objective", None),
    (cmf_mod, "symmetrize_h", "nmf.coupling", None),
    (sep_mod, "cmf_factorize", "cmf.factorize", _iterations),
    (sep_mod, "train_bases", "separation.train_bases", None),
    (sep_mod, "estimate_weights", "separation.estimate_weights", None),
    (sep_mod, "complex_matmul_real", "separation.reconstruct", None),
    (sep_mod, "reconstruct", "separation.reconstruct", None),
    (sep_mod, "separate", "separation.separate", None),
    (cli_mod, "separate", "separation.separate", None),
    (cli_mod, "evaluate", "metrics.evaluate", None),
    (cli_mod, "read_wav", "io_wav.read", _file_bytes),
    (cli_mod, "write_wav", "io_wav.write", _file_bytes),
    (cli_mod, "load_bases", "bases_file.load", _file_bytes),
    (cli_mod, "cli_main", "cli", None),
]


def instrument(recorder: Recorder):
    """Wrap every layer boundary in ``_PATCHES``; return an undo function."""
    saved = []
    for module, attr, name, measure in _PATCHES:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _timed(recorder, name, original, measure))
    # block assembly runs in a property of the object assemble_zc returns
    prop = cmf_mod.BlockMatrix.assembled
    saved.append((cmf_mod.BlockMatrix, "assembled", prop))
    cmf_mod.BlockMatrix.assembled = property(
        _timed(recorder, "cmf.split", prop.fget)
    )

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


def _totals(spans: list[Span]) -> dict[str, float]:
    """Wall time per span name. No layer calls itself, so spans of one
    name never nest."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def _self_times(spans: list[Span]) -> dict[str, float]:
    """Per name: span durations minus the time their direct children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(s.index, 0.0)
    return out


def _counts(spans: list[Span], name: str) -> float:
    return sum(s.count for s in spans if s.name == name)


def job_layers(recorder: Recorder, job: int) -> dict[str, float]:
    """Per-layer figures of one traced job, keyed by metric name."""
    spans = recorder.job_spans(job)
    total = _totals(spans)
    own = _self_times(spans)
    steps = sum(1 for s in spans if s.name == "nmf.step")
    step_s = total.get("nmf.step", 0.0)
    return {
        "stft.stft_s": total.get("stft.stft", 0.0),
        "stft.istft_s": total.get("stft.istft", 0.0),
        "stft.frames": _counts(spans, "stft.stft") + _counts(spans, "stft.istft"),
        "cmf.split_s": total.get("cmf.split", 0.0),
        "cmf.factorize_s": total.get("cmf.factorize", 0.0),
        "cmf.iterations": _counts(spans, "cmf.factorize"),
        "cmf.stopped_early": sum(1 for s in spans if s.stopped_early),
        "nmf.step_s": step_s,
        "nmf.step_ms": 1000.0 * step_s / steps if steps else 0.0,
        "nmf.objective_s": total.get("nmf.objective", 0.0),
        "nmf.coupling_s": total.get("nmf.coupling", 0.0),
        "nmf.update_self_s": own.get("nmf.step", 0.0),
        "separation.train_bases_s": total.get("separation.train_bases", 0.0),
        "separation.estimate_weights_s": total.get("separation.estimate_weights", 0.0),
        "separation.reconstruct_s": total.get("separation.reconstruct", 0.0),
        "metrics.evaluate_s": total.get("metrics.evaluate", 0.0),
        "io_wav.read_s": total.get("io_wav.read", 0.0),
        "io_wav.write_s": total.get("io_wav.write", 0.0),
        "io_wav.bytes": _counts(spans, "io_wav.read") + _counts(spans, "io_wav.write"),
        "bases_file.load_s": total.get("bases_file.load", 0.0),
        "bases_file.bytes": _counts(spans, "bases_file.load"),
        "cli.self_s": own.get("cli", 0.0),
    }


def median_layers(per_job: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(j[k] for j in per_job) for k in per_job[0]}
