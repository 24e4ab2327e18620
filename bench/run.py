"""Benchmark for cmfsep: set-up, timed jobs, correctness checks, metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload train|separate|longform --seed N \
        --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout; nothing needs to be
installed. One run sets the workload up at least three times and for at
least a second (``setup_s`` is the median), runs the workload's job once
untimed to warm up, then repeats it until ``--seconds`` are used, checking
every job's output. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit, the error rate and the environment. The full
result, with the spans of a traced run, is written to ``.bench_out/`` in
the checkout. The exit code is 0 only when every job passed its checks.

``--trace 0`` reports the end-to-end metrics, timed with no instrumentation
beyond one wrapper that keeps the last factorization for its error.
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics (medians over the traced jobs), the tracing overhead, and the
per-iteration NMF time of one job rerun in a child process with BLAS
limited to one thread.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 3  # at least this many set-ups per run, and
SETUP_MIN_S = 1.0  # repeated until they took this long in total
MAX_SETUPS = 50
CHILD_TIMEOUT_S = 100
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# end-to-end metric -> unit; a per-layer metric's unit follows from its name
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "audio_s_per_s": "s/s",
    "peak_rss_mb": "MB",
    "rel_error": "ratio",
    "sep_snr_db": "dB",
    "sep_tir_esc": "ratio",
}
PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_ms_1t": "ms", ".bytes": "bytes"}


def _layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def use_sources() -> bool:
    """Put the checkout's ``src`` and this directory on the import path;
    False when the checkout holds no cmfsep sources."""
    if not (SRC / "cmfsep" / "__init__.py").is_file():
        return False
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads or "default",
        "cpu_count": os.cpu_count(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run of one workload: set-up, jobs and their checks."""

    def __init__(self, workload, seed, sizes, workdir: Path, setups=SETUPS, setup_min_s=SETUP_MIN_S):
        from spans import Recorder
        from workloads import WORKLOADS, FitCapture

        self.sizes = sizes
        setup_times = []
        while len(setup_times) < setups or (
            sum(setup_times) < setup_min_s and len(setup_times) < MAX_SETUPS
        ):
            t0 = time.perf_counter()
            self.work = WORKLOADS[workload](seed, sizes, workdir)
            setup_times.append(time.perf_counter() - t0)
        self.setup_s = statistics.median(setup_times)
        self.fit = FitCapture()
        self.recorder = Recorder()
        self.durations = {False: [], True: []}
        self.outcomes = []
        self.failed = 0

    def job(self, traced: bool, index: int, timed: bool = True):
        """Run and check one job; a job that raises or fails a check counts
        as failed and its time is dropped, as is an untimed job's."""
        self.recorder.job = index if traced else None
        t0 = time.perf_counter()
        try:
            raw = self.work.job()
            elapsed = time.perf_counter() - t0
            self.recorder.job = None
            outcome = self.work.outcome(raw, self.fit)
            problems = outcome.failures(self.sizes)
        except Exception:
            traceback.print_exc()
            problems = ["raised an exception"]
        finally:
            self.recorder.job = None
        if not problems and self.outcomes and outcome.digest != self.outcomes[0].digest:
            problems.append("output differs from the first job's")
        if problems:
            self.failed += 1
            print(f"job {index} failed: {'; '.join(problems)}", file=sys.stderr)
            return
        if timed:
            self.durations[traced].append(elapsed)
        self.outcomes.append(outcome)

    def loop(self, seconds: float, trace: bool) -> int:
        """Run one untimed warm-up job, then repeat the job while the next
        one is expected to end within ``seconds``; at least two timed jobs
        (one of each kind when tracing). Returns the number of jobs run."""
        self.job(False, 0, timed=False)
        start = time.perf_counter()
        index = 1
        while True:
            self.job(trace and index % 2 == 0, index)
            index += 1
            times = self.durations[False] + self.durations[True]
            if index >= 3 and (
                not times or time.perf_counter() - start + statistics.median(times) > seconds
            ):
                break
        return index

    def close(self):
        self.fit.close()


def _single_thread_step_ms(workload: str, seed: int, sizes) -> float:
    """Per-iteration NMF time of one traced job in a child process whose
    BLAS is limited to one thread; raises if the child fails."""
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1",
        "--single-thread-child", json.dumps(asdict(sizes)),
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["nmf.step_ms"]


def _child(workload: str, seed: int, sizes) -> int:
    from spans import instrument, job_layers

    with tempfile.TemporaryDirectory(dir=_work_root()) as tmp:
        run = Run(workload, seed, sizes, Path(tmp), setups=1, setup_min_s=0.0)
        run.job(False, 0, timed=False)
        undo = instrument(run.recorder)
        try:
            run.job(True, 1)
        finally:
            undo()
            run.close()
    if run.failed:
        return 1
    print(json.dumps({"nmf.step_ms": job_layers(run.recorder, 1)["nmf.step_ms"]}))
    return 0


def _work_root() -> Path:
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def _report(metrics: dict) -> dict:
    """Metric name -> value and unit; a value a failed run could not
    measure is null."""
    return {
        k: {"value": float(v) if math.isfinite(v) else None, "unit": u}
        for k, (v, u) in metrics.items()
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """Run one workload and return the full result (metrics, jobs, spans)."""
    from spans import instrument, job_layers, median_layers

    with tempfile.TemporaryDirectory(dir=_work_root()) as tmp:
        run = Run(workload, seed, sizes, Path(tmp))
        undo = instrument(run.recorder) if trace else (lambda: None)
        try:
            attempted = run.loop(seconds, trace)
        finally:
            undo()
            run.close()
    peak_rss_mb = _peak_rss_mb()
    untraced = run.durations[False]
    job_s = statistics.median(untraced) if untraced else float("nan")
    result = {"workload": workload, "seed": seed, "trace": int(trace), "env": environment()}
    if trace:
        traced_jobs = sorted({s.job for s in run.recorder.spans})
        layers = median_layers([job_layers(run.recorder, j) for j in traced_jobs])
        layers["trace.overhead_s"] = statistics.median(run.durations[True]) - job_s
        attempted += 1
        try:
            layers["nmf.step_ms_1t"] = _single_thread_step_ms(workload, seed, sizes)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"single-thread job failed: {exc}", file=sys.stderr)
            run.failed += 1
            layers["nmf.step_ms_1t"] = float("nan")
        metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}
        result["spans"] = run.recorder.to_json()
    else:
        first = run.outcomes[0] if run.outcomes else None
        quality = (first.rel_error, first.snr_db, first.tir_esc) if first else (float("nan"),) * 3
        values = [
            run.setup_s, job_s, run.work.audio_s / job_s, peak_rss_mb, *quality,
        ]
        metrics = {k: (v, u) for (k, u), v in zip(END_TO_END.items(), values)}
    result.update(
        attempted=attempted,
        failed=run.failed,
        correct=run.failed == 0,
        job_durations_s={"untraced": untraced, "traced": run.durations[True]},
        metrics=_report(metrics),
    )
    return result


def _print_summary(result: dict) -> None:
    print(
        f"cmfsep benchmark: workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']} jobs={result['attempted']} failed={result['failed']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':32s} {rate:.6g} ratio")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "separate", "longform"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--single-thread-child", metavar="SIZES_JSON", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not use_sources():
        print(f"error: no cmfsep sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import Sizes

    if args.single_thread_child is not None:
        sizes = Sizes(**json.loads(args.single_thread_child))
        return _child(args.workload, args.seed, sizes)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Sizes())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1))
    _print_summary(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
