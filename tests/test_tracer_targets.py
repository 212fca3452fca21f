"""The benchmark's traced run finds every program name it wraps.

bench/tracing.py replaces module attributes of the program by name; a
renamed or moved target is only reported as absent there, and the metrics
built on it read 0.  This runs all four CLI commands and one corrected
photon number under the tracer and asserts that nothing is absent and that
every per-layer metric those layers feed is positive."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from synchrad import cli, corrections, semiclassical
from synchrad.units import C_AU


# a beam no other test uses, so decohere builds its own mode table
_BEAM = "beam.gamma = 3.7\nbeam.radius_bohr = 1700.0\n"
_CONFIGS = {
    "decohere": "decohere.t_au = 1e6\ndecohere.r_points = 16\n",
    "spectrum": "spectrum.harmonics = 1,2\nspectrum.thetas = 0.5, 1.2\n",
    "ir": "ir.v1 = 10.0, 0, 0\nir.v2 = 12.0, 0, 0\nir.points = 8\n",
    "packet": "",
}


def test_traced_run_finds_every_target_and_counts_every_layer(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for command, lines in _CONFIGS.items():
            config = cli.parse_config(f"command = {command}\n{_BEAM}{lines}")
            cli.run(config, str(tmp_path / command))
        v1 = np.array([0.1 * C_AU, 0.0, 0.0])
        law = corrections.PiecewiseConstantVelocity(v1, 1.2 * v1, t_jump=0.5)
        mode = semiclassical.PhotonMode(alpha=1, q=np.array([0.0, 3.0 / C_AU, 0.0]))
        provider = lambda t1, t2: corrections.p_const_velocity(v1, mode.q, t1=t1, t2=t2).value
        number = corrections.corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=8)
    finally:
        tracer.uninstall()
    assert math.isfinite(number)
    assert tracer.absent == []
    metrics = tracing.per_layer_metrics(tracer)
    zero = sorted(name for name, metric in metrics.items() if not metric["value"] > 0)
    # J_n' comes from two jv calls (semiclassical._bessel_pair): no layer calls jvp
    assert zero == ["special.jvp.elems"]
