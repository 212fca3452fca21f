"""The package's public surface: every exported name resolves, every public
function or class a module defines is exported, no public name takes a
quadrature resolution the program owns, and domain checks reject NaN."""

import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import synchrad
from synchrad import decoherence, ir_model, packets
from synchrad.units import C_AU, BeamParams

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


# Quadrature rules and config fields that the program owns: none of these
# names takes them as a parameter or field.
_DELETED = {
    "synchrad.decoherence.s_averaged": {"n_exact", "per_decade", "n_theta"},
    "synchrad.decoherence.s_ultrarel": {"per_decade", "n_theta"},
    "synchrad.decoherence.localization_time": {"rel_tol", "t_lo", "t_hi"},
    "synchrad.corrections.p_const_velocity": {"n_polar", "n_azimuth"},
    "synchrad.ir_model.soft_spectral_density": {"n_polar", "n_azimuth"},
    "synchrad.ir_model.total_soft_count": {"points_per_decade"},
    "synchrad.ir_model.VelocityJump": {"t_jump", "tau_in"},
    "synchrad.semiclassical.spectral_sum": {"n_exact"},
    "synchrad.packets.relative_fluctuation": {"poisson", "delta_n1"},
    "synchrad.packets.WavePacketSpec": {"alpha1", "alpha2", "delta_l", "delta_perp"},
}


@pytest.mark.parametrize("qualname", sorted(_DELETED))
def test_signatures_hold_no_deleted_parameter(qualname):
    module_name, _, name = qualname.rpartition(".")
    params = set(inspect.signature(getattr(importlib.import_module(module_name), name)).parameters)
    assert not params & _DELETED[qualname]


_BEAM = BeamParams.from_gamma_radius(2.0, 1000.0)
_JUMP = ir_model.VelocityJump(v1=np.array([0.1 * C_AU, 0.0, 0.0]), v2=np.array([0.12 * C_AU, 0.0, 0.0]))
_NAN_CALLS = {
    "s_averaged-t": lambda: decoherence.s_averaged(1.0, 0.5, math.nan, _BEAM),
    "s_ultrarel-t": lambda: decoherence.s_ultrarel(1.0, 0.5, math.nan, _BEAM),
    "localization_width-t": lambda: decoherence.localization_width(_BEAM, math.nan, "transverse"),
    "localization_time-target": lambda: decoherence.localization_time(_BEAM, math.nan, "transverse"),
    "spreading_time-delta_n1": lambda: packets.spreading_time(_BEAM, math.nan),
    "decoherence_field-r": lambda: decoherence.decoherence_field(_BEAM, 1.0, [0.0, math.nan], 0.5),
    "total_soft_count-omega_max": lambda: ir_model.total_soft_count(_JUMP, 1e-6, math.inf),
}


@pytest.mark.parametrize("case", sorted(_NAN_CALLS))
def test_domain_checks_reject_nan_and_inf(case):
    # written as `not x > 0`, a domain check cannot let NaN through
    with pytest.raises(synchrad.DomainError):
        _NAN_CALLS[case]()
