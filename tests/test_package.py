"""The package's public surface: every exported name resolves, and every
public function or class a module defines is exported."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import synchrad

MODULES = ["synchrad"] + [f"synchrad.{m.name}" for m in pkgutil.iter_modules(synchrad.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


@pytest.mark.parametrize(
    "module_name", [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
)
def test_every_public_definition_is_exported(module_name):
    module = importlib.import_module(module_name)
    defined = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module_name
    ]
    unlisted = sorted(set(defined) - set(module.__all__))
    assert not unlisted, f"{module_name} defines public names missing from __all__: {unlisted}"


def test_cli_imports_no_scipy_integrate_or_optimize():
    # the program needs only scipy.special; scipy.integrate and scipy.optimize
    # would add about half a second to every command's start
    code = (
        "import sys, synchrad.cli; "
        "print([m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.optimize'))])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
