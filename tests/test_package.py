"""The package's public surface: every exported name resolves, every public
function or class a module defines is exported, no public name takes a
quadrature resolution the program owns or a deleted parameter, deleted names
stay gone, domain checks reject NaN, the benchmark's tracer finds every name
it wraps, every exported name is reached by the program, the benchmark or
the acceptance tests, and no module keeps an unused import or an
unreferenced private name."""

import ast
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import synchrad
from synchrad import corrections, decoherence, ir_model, packets, semiclassical
from synchrad.semiclassical import PhotonMode
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


# Quadrature rules and config fields that the program owns, and parameters
# and fields that nothing read: none of these names takes them.
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
    "synchrad.packets.LandauLevelState": {"n2"},
    "synchrad.corrections.corrected_photon_number": {"packet", "velocity_law_factory"},
    "synchrad.corrections.PExponent": {"context", "uv_sensitive", "t1", "t2"},
    "synchrad.decoherence.CoherenceKernel": {"beam", "t", "theta0"},
}


@pytest.mark.parametrize("qualname", sorted(_DELETED))
def test_signatures_hold_no_deleted_parameter(qualname):
    module_name, _, name = qualname.rpartition(".")
    params = set(inspect.signature(getattr(importlib.import_module(module_name), name)).parameters)
    assert not params & _DELETED[qualname]


# Deleted public names: nothing reached them, or their one caller (the CLI)
# now does their work itself
_GONE = [
    "synchrad.corrections.GaussianPacket",
    "synchrad.packets.WavePacketSpec",
    "synchrad.packets.packet_width_estimate",
    "synchrad.units.critical_harmonic",
    "synchrad.critical_harmonic",
    "synchrad.decoherence.coherence_kernel",
    "synchrad.decoherence.DecoherenceField",
    "synchrad.decoherence.decoherence_field",
    "synchrad.semiclassical.schott_harmonic_rate",
    "synchrad.semiclassical.momentum_loss_rate",
    "synchrad.ir_model.shifted_pole_photon_number",
    "synchrad.units.beam_to_lab",
    "synchrad.beam_to_lab",
]


@pytest.mark.parametrize("qualname", _GONE)
def test_deleted_names_are_gone(qualname):
    module_name, _, name = qualname.rpartition(".")
    assert not hasattr(importlib.import_module(module_name), name)


_BEAM = BeamParams.from_gamma_radius(2.0, 1000.0)
_JUMP = ir_model.VelocityJump(v1=np.array([0.1 * C_AU, 0.0, 0.0]), v2=np.array([0.12 * C_AU, 0.0, 0.0]))
_V0, _V0_NAN = np.array([0.1 * C_AU, 0.0, 0.0]), np.array([math.nan, 0.0, 0.0])
_Q = np.array([0.0, 0.0, 0.01])
_LAW = corrections.PiecewiseConstantVelocity(_V0, _V0, t_jump=0.0)
_MODE = PhotonMode(alpha=1, q=_Q)
_MODE_SUM = corrections.ModeSum(n_radial=6, n_polar=6, n_azimuth=6)
_NAN_CALLS = {
    "s_averaged-t": lambda: decoherence.s_averaged(1.0, 0.5, math.nan, _BEAM),
    "s_ultrarel-t": lambda: decoherence.s_ultrarel(1.0, 0.5, math.nan, _BEAM),
    "s_averaged-t-inf": lambda: decoherence.s_averaged([0.0, 1.0, 10.0], 0.5, math.inf, _BEAM),
    "s_ultrarel-t-inf": lambda: decoherence.s_ultrarel(1.0, 0.5, math.inf, _BEAM),
    "s_averaged-r": lambda: decoherence.s_averaged(math.nan, 0.5, 1.0, _BEAM),
    "s_averaged-r-inf": lambda: decoherence.s_averaged([0.0, math.inf], 0.5, 1.0, _BEAM),
    # S is even in r, so a negative separation would read as |r|
    "s_averaged-r-negative": lambda: decoherence.s_averaged(-5.0, 0.5, 1.0, _BEAM),
    "s_averaged-theta0": lambda: decoherence.s_averaged(5.0, math.nan, 1.0, _BEAM),
    "s_averaged-theta0-inf": lambda: decoherence.s_averaged(5.0, math.inf, 1.0, _BEAM),
    "s_ultrarel-r": lambda: decoherence.s_ultrarel(math.nan, 0.5, 1.0, _BEAM),
    "s_ultrarel-r-negative": lambda: decoherence.s_ultrarel(-5.0, 0.5, 1.0, _BEAM),
    "s_ultrarel-r-inf": lambda: decoherence.s_ultrarel(math.inf, 0.5, 1.0, _BEAM),
    "s_ultrarel-theta0": lambda: decoherence.s_ultrarel(5.0, math.nan, 1.0, _BEAM),
    "s_ultrarel-theta0-inf": lambda: decoherence.s_ultrarel(5.0, math.inf, 1.0, _BEAM),
    # sin(epsilon) is the window edge in cos(theta), so epsilon lies in (0, pi/2]
    "s_ultrarel-epsilon": lambda: decoherence.s_ultrarel(5.0, 0.5, 1.0, _BEAM, epsilon=math.nan),
    "s_ultrarel-epsilon-zero": lambda: decoherence.s_ultrarel(5.0, 0.5, 1.0, _BEAM, epsilon=0.0),
    "s_ultrarel-epsilon-negative": lambda: decoherence.s_ultrarel(5.0, 0.5, 1.0, _BEAM, epsilon=-0.1),
    "s_ultrarel-epsilon-above-half-pi": lambda: decoherence.s_ultrarel(5.0, 0.5, 1.0, _BEAM, epsilon=2.0),
    "s_ultrarel-epsilon-inf": lambda: decoherence.s_ultrarel(5.0, 0.5, 1.0, _BEAM, epsilon=math.inf),
    "schott_angular_rate-n": lambda: semiclassical.schott_angular_rate(math.nan, 0.5, _BEAM),
    "schott_angular_rate-n-inf": lambda: semiclassical.schott_angular_rate([1.0, math.inf], 0.5, _BEAM),
    "schott_angular_rate-theta": lambda: semiclassical.schott_angular_rate(1.0, math.nan, _BEAM),
    "schott_angular_rate-theta-inf": lambda: semiclassical.schott_angular_rate(1.0, [0.5, math.inf], _BEAM),
    "larmor_frequency-H0": lambda: packets.larmor_frequency(math.nan),
    "larmor_frequency-H0-inf": lambda: packets.larmor_frequency(math.inf),
    "LandauLevelState-n1": lambda: packets.LandauLevelState(n1=math.nan, sigma=0.5),
    "LandauLevelState-n1-inf": lambda: packets.LandauLevelState(n1=math.inf, sigma=0.5),
    "localization_width-t": lambda: decoherence.localization_width(_BEAM, math.nan, "transverse"),
    "localization_width-t-inf": lambda: decoherence.localization_width(_BEAM, math.inf, "transverse"),
    "localization_time-target": lambda: decoherence.localization_time(_BEAM, math.nan, "transverse"),
    "spreading_time-delta_n1": lambda: packets.spreading_time(_BEAM, math.nan),
    "spreading_time-delta_n1-inf": lambda: packets.spreading_time(_BEAM, math.inf),
    "total_soft_count-omega_max": lambda: ir_model.total_soft_count(_JUMP, 1e-6, math.inf),
    "ModeSum-q_c": lambda: corrections.ModeSum(q_c=math.nan),
    "ModeSum-q_c-inf": lambda: corrections.ModeSum(q_c=math.inf),
    "p_general-t1": lambda: corrections.p_general(
        _Q, corrections.UniformVelocityAmplitudes(_V0), 1.005, math.nan, 2.0, _MODE_SUM
    ),
    "p_general-mode_q": lambda: corrections.p_general(
        np.array([math.nan, 0.0, 0.0]), corrections.UniformVelocityAmplitudes(_V0), 1.005, 1.0, 2.0, _MODE_SUM
    ),
    "UniformVelocityAmplitudes-v0": lambda: corrections.UniformVelocityAmplitudes(_V0_NAN),
    "UniformVelocityAmplitudes-Z": lambda: corrections.UniformVelocityAmplitudes(_V0, Z=math.nan),
    "p_const_velocity-q": lambda: corrections.p_const_velocity(_V0, np.array([math.nan, 0.0, 0.0]), t1=1.0),
    "p_const_velocity-Z": lambda: corrections.p_const_velocity(_V0, _Q, Z=math.nan, t1=1.0),
    "p_const_velocity-v0": lambda: corrections.p_const_velocity(_V0_NAN, _Q, t1=1.0),
    "p_const_velocity-q_c-zero": lambda: corrections.p_const_velocity(_V0, _Q, q_c=0.0, t1=1.0),
    "p_const_velocity-q_c": lambda: corrections.p_const_velocity(_V0, _Q, q_c=math.nan, t1=1.0),
    "p_const_velocity-gamma-below-one": lambda: corrections.p_const_velocity(_V0, _Q, gamma=0.5, t1=1.0),
    "p_const_velocity-gamma": lambda: corrections.p_const_velocity(_V0, _Q, gamma=math.nan, t1=1.0),
    "p_const_velocity-dt": lambda: corrections.p_const_velocity(_V0, _Q, t1=math.nan),
    "p_const_velocity-dt-inf": lambda: corrections.p_const_velocity(_V0, _Q, t1=math.inf),
    # at v0 = 0 the exponent is 0 without any geometry, but the lag is still checked
    "p_const_velocity-dt-at-rest": lambda: corrections.p_const_velocity(np.zeros(3), _Q, t1=math.nan),
    "p_nonrel_asymptotic-q_c-zero": lambda: corrections.p_nonrel_asymptotic(0.1 * C_AU, 1.0, 0.0, 1.0),
    "p_nonrel_asymptotic-q_c": lambda: corrections.p_nonrel_asymptotic(0.1 * C_AU, 1.0, math.nan, 1.0),
    "p_nonrel_asymptotic-dt": lambda: corrections.p_nonrel_asymptotic(0.1 * C_AU, 1.0, C_AU, math.nan),
    "p_nonrel_asymptotic-q_c-inf": lambda: corrections.p_nonrel_asymptotic(0.1 * C_AU, 1.0, math.inf, 1.0),
    "p_nonrel_asymptotic-v0_mag": lambda: corrections.p_nonrel_asymptotic(math.nan, 1.0, C_AU, 1.0),
    "p_nonrel_asymptotic-Z": lambda: corrections.p_nonrel_asymptotic(0.1 * C_AU, math.nan, C_AU, 1.0),
    "PiecewiseConstantVelocity-v1": lambda: corrections.PiecewiseConstantVelocity(_V0_NAN, _V0, 0.5),
    "PiecewiseConstantVelocity-v2": lambda: corrections.PiecewiseConstantVelocity(_V0, _V0_NAN, 0.5),
    "PiecewiseConstantVelocity-v2-inf": lambda: corrections.PiecewiseConstantVelocity(_V0, np.array([math.inf, 0.0, 0.0]), 0.5),
    "PiecewiseConstantVelocity-t_jump": lambda: corrections.PiecewiseConstantVelocity(_V0, _V0, math.nan),
    "PiecewiseConstantVelocity-t_jump-inf": lambda: corrections.PiecewiseConstantVelocity(_V0, _V0, math.inf),
    "corrected_photon_number-Z": lambda: corrections.corrected_photon_number(_LAW, _MODE, 1.0, Z=math.nan),
    "corrected_photon_number-t": lambda: corrections.corrected_photon_number(_LAW, _MODE, math.nan),
    "corrected_photon_number-t-inf": lambda: corrections.corrected_photon_number(_LAW, _MODE, math.inf),
    "corrected_photon_number-nodes-zero": lambda: corrections.corrected_photon_number(
        _LAW, _MODE, 1.0, nodes_per_piece=0
    ),
    "corrected_photon_number-nodes-fraction": lambda: corrections.corrected_photon_number(
        _LAW, _MODE, 1.0, nodes_per_piece=2.5
    ),
}


@pytest.mark.parametrize("case", sorted(_NAN_CALLS))
def test_domain_checks_reject_nan_and_inf(case):
    # written as `not x > 0`, a domain check cannot let NaN through
    with pytest.raises(synchrad.DomainError):
        _NAN_CALLS[case]()


def test_bench_tracer_finds_every_hook(monkeypatch):
    # bench/tracing.py wraps program names by attribute and reads
    # _profile's arguments; a rename or a new signature would leave the
    # benchmark's per-layer metrics reading 0
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    profile, j0 = decoherence._profile, scipy.special.j0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer.absent == []
        table = decoherence._mode_table(_BEAM, 16, 8, 8)
        decoherence._profile(table, np.array([0.0, 1.0]), 0.3)
        assert tracer.counts["decoherence.profile.evals"] == 2 * len(table[0])
        assert tracer.counts["special.j0.elems"] == 2 * len(table[0])
    finally:
        tracer.uninstall()
    assert decoherence._profile is profile and scipy.special.j0 is j0


# Static checks over the program's source, in place of a linter: what a
# deletion leaves behind is an unused import or an orphaned private helper.
_SOURCES = sorted(Path(synchrad.__file__).parent.glob("*.py"))
_ROOT = Path(__file__).resolve().parents[1]
_TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in _SOURCES}


# Exported names that no command, benchmark workload or acceptance test
# reaches, kept on purpose, each with its reason
_KEPT = {
    "synchrad.__version__": "the package's version attribute, a Python packaging convention",
    "synchrad.semiclassical.rate_integrand": (
        "the paper's coherent-state rate integrand; whether it stays is open with the owner"
    ),
    "synchrad.semiclassical.CircularOrbit": (
        "the circular orbit as a velocity law, rate_integrand's test input; open with the owner"
    ),
}
_CONSUMERS = [*sorted((_ROOT / "bench").glob("*.py")), _ROOT / "tests" / "test_acceptance.py"]


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("filename", sorted(_TREES))
def test_no_unused_module_imports(filename):
    tree = _TREES[filename]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{filename} imports names it never uses: {unused}"


def _definitions(tree):
    """(name, node) of each module-level function, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                yield name, node


def _references(imports: bool):
    """(name, statement) of each reference in the package by name or
    attribute, and by import if `imports`, with the module-level statement it
    sits in, so a definition's own body does not count."""
    for tree in _TREES.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    yield node.id, stmt
                elif isinstance(node, ast.Attribute):
                    yield node.attr, stmt
                elif imports and isinstance(node, ast.alias):
                    yield node.name, stmt


def _used(name, definition, references) -> bool:
    return any(ref == name and stmt is not definition for ref, stmt in references)


def test_every_exported_name_is_reached():
    # reached: used by the program outside its own definition (a re-export is
    # not a use), or named by the benchmark or an acceptance test; anything
    # else is surface that only its own unit tests reach
    outside = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for path in _CONSUMERS
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    references = list(_references(imports=False))
    unreached = []
    for filename, tree in _TREES.items():
        module = "synchrad" if filename == "__init__.py" else f"synchrad.{filename[:-3]}"
        definitions = dict(_definitions(tree))  # a re-exported name has none here
        for name in sorted(_exported(tree) - outside):
            if not _used(name, definitions.get(name), references):
                unreached.append(f"{module}.{name}")
    assert sorted(unreached) == sorted(_KEPT), "exported names nothing reaches, or a stale _KEPT"


def test_every_private_name_is_referenced():
    references = list(_references(imports=True))
    orphans = [
        f"{filename}:{name}"
        for filename, tree in _TREES.items()
        for name, definition in _definitions(tree)
        if name.startswith("_") and not name.startswith("__")
        and not _used(name, definition, references)
    ]
    assert not orphans, f"private names that nothing references: {orphans}"
