"""The package's public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import synchrad

MODULES = ["synchrad"] + [f"synchrad.{m.name}" for m in pkgutil.iter_modules(synchrad.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"
