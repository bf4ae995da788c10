"""The public surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import txpeg.demos

MODULES = ["txpeg", "txpeg.core", "txpeg.states", "txpeg.combinators",
           "txpeg.leftrec", "txpeg.grammar", "txpeg.cli", "txpeg.logmodel"] + [
    f"txpeg.demos.{m.name}" for m in pkgutil.iter_modules(txpeg.demos.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_every_demo_module_is_covered():
    assert {"txpeg.demos.indent", "txpeg.demos.namespaces",
            "txpeg.demos.examply"} <= set(MODULES)
