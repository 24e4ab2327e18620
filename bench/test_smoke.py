"""Fast smoke test of the benchmark at tiny sizes.

Every workload, untraced and traced, must pass its own checks and report
every metric that BENCHMARK.json names, with that metric's unit. Run with

    python -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

assert run.use_sources()
from workloads import Sizes  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = Sizes(
    train_s=1.0,
    rank=4,
    train_iters=10,
    sep_s=1.0,
    sep_iters=10,
    long_s=2.0,
    long_iters=5,
    bases_s=1.0,
    bases_iters=10,
    prototypes=4,
    max_rel_error=1.0,
    min_correlation=0.0,
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = run.measure(workload, seed=3, seconds=0.0, trace=bool(trace), sizes=TINY)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = SPEC["command"][1:] + ["--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
