import ast
import importlib
import inspect
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cmfsep

MODULES = ["cmfsep"] + [
    f"cmfsep.{m.name}" for m in pkgutil.iter_modules(cmfsep.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


class TestPublicNames:
    """The package root exports the library; solver internals have one
    home, their module."""

    def test_root_exports_the_library(self):
        assert sorted(cmfsep.__all__) == [
            "BasisSet", "CmfResult", "EvalReport", "SepConfig", "Signal", "StftConfig",
            "cmf_factorize", "correlation", "dft", "evaluate", "istft", "reconstruct",
            "separate", "snr_db", "stft", "tir_esc", "tir_loss", "train_bases",
        ]

    @pytest.mark.parametrize(
        "module, name",
        [
            ("cmfsep.cmf", "nmf_step"),
            ("cmfsep.cmf", "symmetrize_h"),
            ("cmfsep.nmf", "NmfProblem"),
            ("cmfsep.nmf", "NmfState"),
            ("cmfsep.linalg", "split_complex"),
            ("cmfsep.linalg", "merge_quad"),
            ("cmfsep.linalg", "SplitQuad"),
        ],
    )
    def test_solver_internals_live_in_their_module(self, module, name):
        assert name in importlib.import_module(module).__all__
        assert name not in cmfsep.__all__

    @pytest.mark.parametrize("name", MODULES[1:])
    def test_each_module_exports_only_its_own(self, name):
        # a class or function is exported by the module that defines it,
        # never re-exported by another submodule
        module = importlib.import_module(name)
        borrowed = [
            n
            for n in module.__all__
            if (inspect.isclass(getattr(module, n)) or inspect.isfunction(getattr(module, n)))
            and getattr(module, n).__module__ != name
        ]
        assert borrowed == []


def _run_fresh(code: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this cmfsep."""
    src = str(Path(cmfsep.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


class TestRuntimeFootprint:
    """scipy is a test dependency only: no cmfsep module imports it."""

    def test_import_loads_no_scipy(self, tmp_path):
        code = (
            "import sys, cmfsep, cmfsep.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        r = _run_fresh(code, tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_cli_round_trip_without_scipy(self, tmp_path):
        # a None entry makes every `import scipy...` raise ImportError
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from cmfsep.cli import cli_main\n"
            "from cmfsep.io_wav import write_wav\n"
            "from cmfsep.stft import Signal\n"
            "t = np.arange(8000) / 16000\n"
            "write_wav('x.wav', Signal(0.5 * np.sin(2 * np.pi * 440 * t), 16000))\n"
            "assert cli_main(['factorize', '--in', 'x.wav', '--rank', '2',"
            " '--iters', '5', '--seed', '0']) == 0\n"
            "assert cli_main(['eval', '--ref', 'x.wav', '--est', 'x.wav']) == 0\n"
        )
        r = _run_fresh(code, tmp_path)
        assert r.returncode == 0, r.stderr
        assert '"snr_db"' in r.stdout


class TestNoEnvironmentInput:
    """A run is set by its arguments alone: no cmfsep module reads the
    environment."""

    def test_no_module_reads_the_environment(self):
        names = {"environ", "environb", "getenv", "getenvb"}
        reads = []
        for path in sorted(Path(cmfsep.__file__).resolve().parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and node.attr in names:
                    reads.append(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    if any(alias.name in names for alias in node.names):
                        reads.append(f"{path.name}:{node.lineno}")
        assert reads == []


class TestHarness:
    """The project's pytest settings report every test of a run."""

    def test_a_failing_property_test_does_not_stop_the_run(self, tmp_path):
        # when a property test fails, Hypothesis imports libcst to write
        # its patch file, and libcst's mypy_extensions deprecation warning
        # must not become an error that ends the run there
        shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
        (tmp_path / "test_probe.py").write_text(
            "from hypothesis import given, strategies as st\n"
            "\n"
            "@given(st.integers())\n"
            "def test_fails(n):\n"
            "    assert n < 0\n"
            "\n"
            "def test_passes():\n"
            "    pass\n"
        )
        r = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert "INTERNALERROR" not in r.stdout + r.stderr
        assert "FAILED test_probe.py::test_fails" in r.stdout
        assert "1 failed, 1 passed" in r.stdout
