import importlib
import pkgutil

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
