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


@pytest.mark.xfail(strict=True, raises=AttributeError, reason=(
    "`from .leftrec import leftrec` in txpeg/__init__.py rebinds txpeg.leftrec "
    "from the submodule to the LeftRec class (CHANGES.md, FOUND: on "
    "__init__.py); ROADMAP item 1's leftover moves LeftRec into "
    "combinators.py, which ends the clash"))
def test_importing_the_leftrec_submodule_binds_the_module():
    import txpeg.leftrec as L

    assert L.LeftRec.__name__ == "LeftRec"
