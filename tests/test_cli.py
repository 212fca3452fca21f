"""Config parsing, command execution, artifacts, and exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrad import cli, ir_model
from synchrad.cli import ConfigError, _parse_int_list, main, parse_config, run
from synchrad.decoherence import Width
from synchrad.semiclassical import (
    classical_power,
    schott_angular_rate,
    total_photon_rate,
    total_power,
)
from synchrad.units import C_AU, BeamParams


FIAN_CONFIG = """
# machine parameters in lab units
command = spectrum
beam.energy_gev = 0.68
beam.radius_m = 2.0
spectrum.harmonics = 1:3
spectrum.thetas = 0.5, 1.0
"""


def test_parse_lab_frame_round_trip():
    config = parse_config(FIAN_CONFIG)
    assert config.command == "spectrum"
    assert config.beam.gamma == pytest.approx(0.68 / 0.00051099895, rel=1e-12)
    assert config.beam.gamma == pytest.approx(1330.7, rel=1e-3)
    assert config.beam.R == pytest.approx(2.0 * 1.8897261e10, rel=1e-12)


def test_parse_gamma_and_beta_forms():
    cfg = parse_config("command = packet\nbeam.gamma = 4.0\nbeam.radius_bohr = 100.0\n")
    assert cfg.beam.gamma == 4.0
    cfg = parse_config("command = packet\nbeam.beta = 0.6\nbeam.radius_bohr = 50.0\n")
    assert cfg.beam.gamma == pytest.approx(1.25, rel=1e-12)
    with pytest.raises(ConfigError, match="beta"):
        parse_config("command = packet\nbeam.beta = 1.5\nbeam.radius_bohr = 50.0\n")


def test_parse_errors_name_key_and_line():
    with pytest.raises(ConfigError, match="'command'"):
        parse_config("beam.gamma = 2.0\nbeam.radius_bohr = 10.0\n")
    with pytest.raises(ConfigError, match="line 2.*bogus"):
        parse_config("command = packet\nbogus.key = 1\n")
    with pytest.raises(ConfigError, match="line 4.*duplicate"):
        parse_config(
            "command = packet\nbeam.gamma = 2.0\nbeam.radius_bohr = 1.0\nbeam.gamma = 3.0\n"
        )
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("command = packet\njust a line\n")
    with pytest.raises(ConfigError, match="command must be one of"):
        parse_config("command = explode\nbeam.gamma = 2.0\nbeam.radius_bohr = 1.0\n")
    with pytest.raises(ConfigError, match="missing beam"):
        parse_config("command = packet\n")
    with pytest.raises(ConfigError, match="radius_m"):
        parse_config("command = packet\nbeam.energy_gev = 0.5\n")
    # keys from another command's section are rejected
    with pytest.raises(ConfigError, match="does not belong"):
        parse_config(
            "command = packet\nbeam.gamma = 2.0\nbeam.radius_bohr = 1.0\nir.v1 = 1,0,0\n"
        )


def test_spectrum_run_artifacts(tmp_path):
    config = parse_config(
        "command = spectrum\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        "spectrum.harmonics = 1,2\nspectrum.thetas = 0.5, 1.2\n"
    )
    paths = run(config, str(tmp_path))
    assert sorted(p.rsplit("/", 1)[-1] for p in paths) == ["spectrum.csv", "spectrum.json"]
    lines = (tmp_path / "spectrum.csv").read_text().split("\n")
    assert lines[0] == "n,theta_rad,rate_au"
    assert len(lines) == 6 and lines[-1] == ""
    n, theta, rate = lines[1].split(",")
    assert (int(n), float(theta)) == (1, 0.5)
    assert float(rate) == pytest.approx(
        schott_angular_rate(1, 0.5, config.beam), rel=1e-14
    )
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["total_power_au"] == pytest.approx(
        classical_power(config.beam), rel=1e-2
    )
    assert payload["classical_power_au"] == pytest.approx(
        classical_power(config.beam), rel=1e-14
    )
    assert payload["total_photon_rate_au"] > 0.0


def test_ir_run_zero_jump_gives_zero_spectrum(tmp_path):
    config = parse_config(
        "command = ir\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        "ir.v1 = 13.7, 0, 0\nir.v2 = 13.7, 0, 0\nir.points = 8\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run(config, str(tmp_path))
    rows = (tmp_path / "ir.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 8
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)
    payload = json.loads((tmp_path / "ir.json").read_text())
    assert payload["total_count"] == 0.0
    assert payload["lambda_smallness"] == 0.0


def test_ir_run_populated_spectrum(tmp_path):
    config = parse_config(
        "command = ir\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        "ir.v1 = 13.7, 0, 0\nir.v2 = 16.4, 0, 0\n"
        "ir.omega_min = 1e-7\nir.omega_max = 1e-3\nir.points = 16\n"
    )
    run(config, str(tmp_path))
    rows = (tmp_path / "ir.csv").read_text().strip().split("\n")[1:]
    omegas = np.array([float(r.split(",")[0]) for r in rows])
    dens = np.array([float(r.split(",")[1]) for r in rows])
    assert omegas[0] == pytest.approx(1e-7) and omegas[-1] == pytest.approx(1e-3)
    assert np.all(dens >= 0.0) and dens.max() > 0.0
    payload = json.loads((tmp_path / "ir.json").read_text())
    assert payload["delta_au"] == pytest.approx(payload["delta_closed_form_au"], rel=0.01)
    assert payload["total_count"] > 0.0


def test_packet_run_artifacts(tmp_path):
    config = parse_config(
        "command = packet\nbeam.energy_gev = 0.68\nbeam.radius_m = 2.0\n"
    )
    run(config, str(tmp_path))
    payload = json.loads((tmp_path / "packet.json").read_text())
    assert payload["n1_mean"] == pytest.approx(3.446e15, rel=1e-3)
    assert payload["arc_m"] == pytest.approx(payload["drho_m"] / math.sqrt(2.0), rel=1e-12)


def test_decohere_run_artifacts(tmp_path):
    config = parse_config(
        "command = decohere\nbeam.gamma = 10.0\nbeam.radius_bohr = 1000.0\n"
        "decohere.t_au = 1e6\ndecohere.r_points = 16\n"
    )
    run(config, str(tmp_path))
    header, *rows = (tmp_path / "decohere.csv").read_text().strip().split("\n")
    assert header == "r_bohr,theta0_rad,S"
    assert len(rows) == 2 * 17  # both axes, r = 0 prepended to the log grid
    first = rows[0].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 0.0
    payload = json.loads((tmp_path / "decohere.json").read_text())
    assert 0.0 < payload["width_transverse_bohr"] < payload["width_longitudinal_bohr"]


def test_decohere_json_reports_width_certification(tmp_path):
    # FIAN_60 at t = 1e8 a.u.: both widths are limited by the analysis window
    for t, certified in (("1e8", False), ("1e10", True)):
        out = tmp_path / t
        text = (
            "command = decohere\nbeam.energy_gev = 0.68\nbeam.radius_m = 2.0\n"
            f"decohere.t_au = {t}\n"
        )
        run(parse_config(text), str(out))
        payload = json.loads((out / "decohere.json").read_text())
        for axis in ("transverse", "longitudinal"):
            rel_error = payload[f"width_{axis}_rel_error"]
            assert isinstance(rel_error, float) and math.isfinite(rel_error)
            assert payload[f"width_{axis}_certified"] is certified
            assert (rel_error <= 1e-3) is certified


def test_thread_environment_is_ignored(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("command = packet\nbeam.gamma = 2.0\nbeam.radius_bohr = 100.0\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, SYNCHRAD_THREADS="abc", PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "synchrad.cli", "--config", str(cfg), "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


@pytest.mark.parametrize(
    "command, lines",
    [("packet", []), ("ir", ["ir.v1 = 10.0, 0.0, 0.0", "ir.v2 = 12.0, 0.0, 0.0"])],
    ids=["packet", "ir"],
)
def test_packet_starts_without_scipy(tmp_path, command, lines):
    # each runner imports its own command module, and neither packets nor
    # ir_model needs scipy
    cfg = tmp_path / "cfg"
    cfg.write_text("\n".join([f"command = {command}", "beam.gamma = 2.0", "beam.radius_bohr = 100.0", *lines]))
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; from synchrad import cli; status = cli.main(sys.argv[1:]); "
        "print(status, 'scipy' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "--config", str(cfg), "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stderr.split()[-2:] == ["0", "False"]
    assert (tmp_path / f"{command}.json").exists()


def test_run_is_deterministic(tmp_path):
    text = (
        "command = spectrum\nbeam.gamma = 3.0\nbeam.radius_bohr = 500.0\n"
        "spectrum.harmonics = 1:4\n"
    )
    a, b = tmp_path / "a", tmp_path / "b"
    run(parse_config(text), str(a))
    run(parse_config(text), str(b))
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
    assert (a / "spectrum.json").read_bytes() == (b / "spectrum.json").read_bytes()


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("command = packet\nbeam.gamma = 2.0\nbeam.radius_bohr = 100.0\n")
    assert main(["--config", str(good), "--out", str(tmp_path / "out")]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["status"] == "ok"
    assert any(p.endswith("packet.json") for p in status["artifacts"])

    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ConfigError"

    bad = tmp_path / "bad.cfg"
    bad.write_text("command = explode\n")
    assert main(["--config", str(bad)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert "explode" in diag["message"]

    # valid parse but invalid physics: runtime failure exits 3
    runtime = tmp_path / "runtime.cfg"
    runtime.write_text(
        "command = packet\nbeam.gamma = 1.0\nbeam.radius_bohr = 100.0\n"
    )
    assert main(["--config", str(runtime), "--out", str(tmp_path / "out2")]) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag["command"] == "packet"

    # an unknown flag is a usage error
    assert main(["--config", str(good), "--threads", "0"]) == 2
    assert main(["--config", str(good), "--threads", "4"]) == 2


@pytest.mark.parametrize(
    "line",
    [
        "decohere.r_min = 0",
        "decohere.r_min = -1e-3",
        "decohere.r_min = nan",
        "decohere.r_min = inf",
        "decohere.r_max = 1e-3",
        "decohere.r_max = 1e-4",
        "decohere.r_max = inf",
        "decohere.r_points = 0",
        "decohere.r_points = nan",
        "decohere.r_points = 1e300",
        "decohere.r_points = 3.9",
        "decohere.t_au = 0",
        "decohere.t_au = -5",
        "decohere.t_au = nan",
        "decohere.t_au = inf",
    ],
)
def test_decohere_rejects_bad_input_as_config_error(tmp_path, capsys, line):
    lines = {"decohere.t_au": "1e6"}
    key, value = (p.strip() for p in line.split("="))
    lines[key] = value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "command = decohere\nbeam.gamma = 10.0\nbeam.radius_bohr = 1000.0\n"
        + "".join(f"{k} = {v}\n" for k, v in lines.items())
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ConfigError"
    assert key.split(".")[1] in diag["message"]
    with pytest.raises(ConfigError):
        run(parse_config(cfg.read_text()), str(tmp_path / "out"))


@pytest.mark.parametrize(
    "command, line",
    [
        ("spectrum", "spectrum.harmonics = 0:2"),
        ("spectrum", "spectrum.harmonics = 3, -1"),
        ("spectrum", "spectrum.thetas = 0.5, nan"),
        ("spectrum", "spectrum.thetas = inf"),
        ("spectrum", "spectrum.harmonics = nan"),
        ("spectrum", "spectrum.harmonics = 2, inf"),
        ("spectrum", "spectrum.harmonics = 1:1e300"),
        ("spectrum", "spectrum.harmonics = 2.7, 3.2"),
        ("spectrum", "spectrum.harmonics = 1:3.9"),
        ("ir", "ir.omega_min = 0"),
        ("ir", "ir.omega_min = -1e-8"),
        ("ir", "ir.omega_min = nan"),
        ("ir", "ir.omega_min = inf"),
        ("ir", "ir.omega_max = 1e-8"),
        ("ir", "ir.omega_max = 1e-9"),
        ("ir", "ir.omega_max = inf"),
        ("ir", "ir.omega_max = nan"),
        ("ir", "ir.points = 0"),
        ("ir", "ir.points = -3"),
        ("ir", "ir.points = 65537"),
        ("ir", "ir.points = 1e300"),
        ("ir", "ir.points = 2.7"),
        ("ir", "ir.use_delta = no"),
    ],
)
def test_spectrum_and_ir_reject_bad_input_as_config_error(tmp_path, capsys, command, line):
    lines = {"ir": {"ir.v1": "13.7, 0, 0", "ir.v2": "16.4, 0, 0", "ir.points": "4"}}.get(command, {})
    key, value = (p.strip() for p in line.split("="))
    lines[key] = value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        f"command = {command}\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        + "".join(f"{k} = {v}\n" for k, v in lines.items())
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ConfigError"
    assert key.split(".")[1] in diag["message"]
    with pytest.raises(ConfigError):
        run(parse_config(cfg.read_text()), str(tmp_path / "out"))


@pytest.mark.parametrize(
    "harmonics, n_thetas, named",
    [
        # one value above each cap: 2^16 + 1 harmonics, 2^16 + 1 angles, and
        # 48,771 x 43 = 2^21 + 1 rows of spectrum.csv
        ("1:65536, 1", None, "harmonics"),
        ("1", 65537, "thetas"),
        ("1:48771", 43, "rows"),
    ],
    ids=["harmonics", "thetas", "table"],
)
def test_spectrum_rejects_lists_above_the_caps(tmp_path, capsys, harmonics, n_thetas, named):
    text = (
        "command = spectrum\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        f"spectrum.harmonics = {harmonics}\n"
    )
    if n_thetas is not None:
        text += "spectrum.thetas = " + ", ".join(["0.5"] * n_thetas) + "\n"
    cfg = tmp_path / "cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ConfigError" and named in diag["message"]
    assert not (out / "spectrum.csv").exists() and not (out / "spectrum.json").exists()


@pytest.mark.parametrize(
    "command, first, second, where",
    [
        # 48,771 x 43 = 2^21 + 1 rows of spectrum.csv
        ("spectrum", "spectrum.harmonics = 1:48771", "spectrum.thetas = 0.5" + ", 0.5" * 42,
         ("line 4", "line 5")),
        ("ir", "ir.omega_min = 1e-3", "ir.omega_max = 1e-3", ("line 4", "line 7")),
        ("ir", None, "ir.omega_max = 1e-9", ("default", "line 6")),
        ("decohere", "decohere.r_min = 10", "decohere.r_max = 1", ("line 4", "line 6")),
        ("decohere", "decohere.r_min = 1e8", None, ("line 4", "default")),
    ],
    ids=["spectrum-rows", "ir-omega", "ir-omega-default", "decohere-r", "decohere-r-default"],
)
def test_two_key_errors_name_both_keys_and_lines(tmp_path, capsys, command, first, second, where):
    required = {"ir": ["ir.v1 = 13.7, 0, 0", "ir.v2 = 16.4, 0, 0"], "decohere": ["decohere.t_au = 1e6"]}
    lines = ["command = " + command, "beam.gamma = 2.0", "beam.radius_bohr = 1000.0"]
    lines += [line for line in [first, *required.get(command, []), second] if line is not None]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ConfigError"
    keys = [k for k in cli._KEYS if k.startswith(command) and k in diag["message"]]
    assert len(keys) == 2
    for key, place in zip(keys, where):
        assert f"{key!r} ({place})" in diag["message"]
    assert not out.exists()


def test_spectrum_harmonic_list_may_fill_its_cap():
    assert _parse_int_list("1:65536", "spectrum.harmonics", 1) == list(range(1, 65537))
    assert len(_parse_int_list("1:32768, 32769:65536", "spectrum.harmonics", 1)) == 65536


@pytest.mark.parametrize(
    "beam",
    [
        "beam.gamma = nan\nbeam.radius_bohr = 1000.0",
        "beam.gamma = inf\nbeam.radius_bohr = 1000.0",
        "beam.gamma = 2.0\nbeam.radius_bohr = nan",
        "beam.gamma = 2.0\nbeam.radius_bohr = inf",
        "beam.gamma = 2.0\nbeam.radius_bohr = 1000.0\nbeam.z = nan",
        "beam.energy_gev = nan\nbeam.radius_m = 2.0",
        "beam.energy_gev = inf\nbeam.radius_m = 2.0",
        "beam.energy_gev = 0.68\nbeam.radius_m = nan",
        "beam.energy_gev = 0.68\nbeam.radius_m = 2.0\nbeam.z = inf",
        # finite, but far below units.R_MIN_BOHR: v / R would overflow
        "beam.gamma = 2.0\nbeam.radius_bohr = 1e-308",
    ],
)
def test_non_finite_beam_is_config_error(tmp_path, capsys, beam):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"command = spectrum\n{beam}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "beam, key, line",
    [
        (
            "beam.energy_gev = 0.68\nbeam.radius_m = 2.0\nbeam.gamma = abc\nbeam.beta = 7",
            "beam.gamma",
            4,
        ),
        ("beam.gamma = abc\nbeam.beta = 0.6\nbeam.radius_bohr = 1000.0", "beam.gamma", 2),
        ("beam.gamma = 2.0\nbeam.radius_bohr = 1000.0\nbeam.radius_m = abc", "beam.radius_m", 4),
    ],
)
def test_keys_of_another_beam_form_are_config_errors(tmp_path, capsys, beam, key, line):
    # the first beam form set (energy, then beta, then gamma) is the beam;
    # a key of another form is an error naming its key and line, never ignored
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"command = spectrum\n{beam}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ConfigError"
    assert f"line {line}: key {key!r}" in diag["message"]
    assert not (tmp_path / "out").exists()


def test_non_finite_result_exits_3_without_writing_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("synchrad.semiclassical.total_power", lambda beam: math.nan)
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "command = spectrum\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        "spectrum.harmonics = 1\nspectrum.thetas = 0.5\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    diag = json.loads(out)
    assert diag["command"] == "spectrum" and "total_power_au" in diag["message"]
    assert not (tmp_path / "out" / "spectrum.json").exists()


def test_overflow_exits_3_without_writing_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("synchrad.semiclassical.classical_power", lambda beam: math.exp(1e3))
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "command = spectrum\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        "spectrum.harmonics = 1\nspectrum.thetas = 0.5\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "OverflowError" and diag["command"] == "spectrum"
    assert not (tmp_path / "out" / "spectrum.json").exists()


@pytest.mark.parametrize(
    "line",
    [
        "ir.v1 = nan, 0, 1",
        "ir.v2 = 16.4, inf, 0",
        "ir.v1 = 137.1, 0, 0",
        "ir.v2 = 0, 100, 100",
        "ir.q_c = nan",
        "ir.q_c = inf",
        "ir.q_c = 0",
        "ir.q_c = -1",
    ],
)
def test_ir_rejects_bad_jump_before_writing(tmp_path, capsys, line):
    lines = {"ir.v1": "13.7, 0, 0", "ir.v2": "16.4, 0, 0", "ir.points": "4"}
    key, value = (p.strip() for p in line.split("="))
    lines[key] = value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "command = ir\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        + "".join(f"{k} = {v}\n" for k, v in lines.items())
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ConfigError"
    assert key in diag["message"]
    assert not (out / "ir.csv").exists() and not (out / "ir.json").exists()


@pytest.mark.parametrize("command", ["spectrum", "packet"])
@pytest.mark.parametrize(
    "beam",
    [
        "beam.gamma = 1e80\nbeam.radius_bohr = 1000.0",
        "beam.gamma = 1e160\nbeam.radius_bohr = 1000.0",
        "beam.gamma = 1.000001e12\nbeam.radius_bohr = 1000.0",
        "beam.energy_gev = 1e80\nbeam.radius_m = 2.0",
    ],
)
def test_huge_gamma_is_config_error(tmp_path, capsys, command, beam):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"command = {command}\n{beam}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ConfigError" and "gamma" in diag["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, lines, key",
    [
        ("spectrum", "beam.gamma = 2.0\nbeam.radius_bohr = 1000.0\nbeam.z = 1e300", "charge"),
        ("packet", "beam.gamma = 2.0\nbeam.radius_bohr = 1e300", "radius"),
        (
            "ir",
            "beam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
            "ir.v1 = 13.7, 0, 0\nir.v2 = 16.4, 0, 0\nir.omega_max = 1e300",
            "omega_max",
        ),
        # omega0**2 = (v / R)**2 in total_power would overflow
        ("spectrum", "beam.gamma = 2.0\nbeam.radius_bohr = 1e-200", "radius"),
        ("packet", "beam.gamma = 2.0\nbeam.radius_bohr = 1e-200", "radius"),
        ("decohere", "beam.gamma = 2.0\nbeam.radius_bohr = 1e-200\ndecohere.t_au = 1e6", "radius"),
        (
            "ir",
            "beam.gamma = 2.0\nbeam.radius_bohr = 1e-200\nir.v1 = 13.7, 0, 0\nir.v2 = 16.4, 0, 0",
            "radius",
        ),
    ],
)
def test_absurd_finite_inputs_are_config_errors(tmp_path, capsys, command, lines, key):
    # Z**2, R**2, (v / R)**2 and (omega / c)**2 would overflow: the bounds
    # beside units.GAMMA_MAX reject these at the boundary
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"command = {command}\n{lines}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ConfigError" and key in diag["message"]
    assert not list((tmp_path / "out").glob("*"))


def test_unlocalized_widths_are_written_as_null(tmp_path, capsys):
    # at t = 1e-3 a.u. the packet is not localized: each width is +inf,
    # written as JSON null, and the run succeeds
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "command = decohere\nbeam.gamma = 10.0\nbeam.radius_bohr = 1000.0\n"
        "decohere.t_au = 1e-3\ndecohere.r_points = 4\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "decohere.json").read_text(), parse_constant=_reject_non_finite)
    for axis in ("transverse", "longitudinal"):
        assert payload[f"width_{axis}_bohr"] is None
        assert payload[f"width_{axis}_certified"] is True
        assert payload[f"width_{axis}_rel_error"] == 0.0
    assert (out / "decohere.csv").exists()


def test_jump_from_rest_writes_a_null_smallness(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "command = ir\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        "ir.v1 = 0, 0, 0\nir.v2 = 16.4, 0, 0\nir.points = 4\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "ir.json").read_text(), parse_constant=_reject_non_finite)
    assert payload["lambda_smallness"] is None
    assert sorted(payload) == ["delta_au", "delta_closed_form_au", "lambda_smallness", "total_count"]
    assert payload["total_count"] > 0.0


def test_a_nan_width_still_exits_3(tmp_path, capsys, monkeypatch):
    # only +inf is a valid answer written as null; NaN is a runtime failure
    monkeypatch.setattr(
        "synchrad.decoherence.localization_width", lambda beam, t, axis: Width(math.nan)
    )
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "command = decohere\nbeam.gamma = 10.0\nbeam.radius_bohr = 1000.0\n"
        "decohere.t_au = 1e6\ndecohere.r_points = 4\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().out)["command"] == "decohere"
    assert not (out / "decohere.json").exists()


def test_spectrum_totals_at_the_largest_gamma(tmp_path, capsys):
    # every accepted gamma takes the one path of the totals: at GAMMA_MAX the
    # JSON carries them bit for bit, within 1e-8 of Lienard's power
    cfg = tmp_path / "cfg"
    cfg.write_text("command = spectrum\nbeam.gamma = 1e12\nbeam.radius_bohr = 1000.0\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "spectrum.json").read_text())
    beam = BeamParams.from_gamma_radius(gamma=1e12, R=1000.0)
    assert payload["total_power_au"] == total_power(beam)
    assert payload["total_photon_rate_au"] == total_photon_rate(beam)
    assert abs(payload["total_power_au"] / payload["classical_power_au"] - 1.0) <= 1e-8


def test_ir_run_computes_the_level_shift_once(tmp_path, monkeypatch):
    calls = []
    shift = ir_model.delta_shift
    monkeypatch.setattr(ir_model, "delta_shift", lambda jump: calls.append(1) or shift(jump))
    config = parse_config(
        "command = ir\nbeam.gamma = 2.0\nbeam.radius_bohr = 1000.0\n"
        "ir.v1 = 13.7, 0, 0\nir.v2 = 16.4, 0, 0\nir.points = 8\n"
    )
    run(config, str(tmp_path))
    assert len(calls) == 1


def test_readme_documents_the_config_keys():
    # the README's CLI section names every key parse_config accepts, and no
    # command.key (artifact names aside) that it rejects as unknown
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command-line interface\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\b(?:beam|spectrum|ir|decohere|packet)\.(?!csv\b|json\b)\w+", section))
    assert sorted({*cli._KEYS, *cli._BEAM_KEYS} - named) == []
    for key in sorted(named):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = 1\n")
        assert "unknown key" not in str(err.value), key


def _reject_non_finite(name):
    raise ValueError(f"{name} in JSON output")


_BASE = {
    "spectrum": {"spectrum.harmonics": "1,2", "spectrum.thetas": "0.5"},
    "ir": {"ir.v1": "13.7, 0, 0", "ir.v2": "16.4, 0, 0", "ir.points": "4"},
    "decohere": {"decohere.t_au": "1e6", "decohere.r_points": "4"},
    "packet": {},
}
_OWN_KEYS = {
    "spectrum": ["spectrum.harmonics", "spectrum.thetas"],
    "ir": ["ir.v1", "ir.v2", "ir.q_c", "ir.omega_min", "ir.omega_max", "ir.points", "ir.use_delta"],
    "decohere": ["decohere.t_au", "decohere.r_min", "decohere.r_max", "decohere.r_points"],
    "packet": [],
}
_BEAM_KEYS = ["beam.gamma", "beam.radius_bohr", "beam.z", "beam.beta"]
_JUNK_KEYS = [
    "bogus", "beam.spin", "beam.energy_gev", "decohere.t_au", "spectrum.thetas", "command"
]
_NUMBERS = st.one_of(
    st.floats(-20.0, 200.0).map(repr),
    st.sampled_from(["0", "-1", "-0.0", "nan", "-nan", "inf", "-inf", "1e300", "-1e300"]),
)
_WORDS = st.sampled_from(["", "  ", "abc", "true", "1,2", "1:x", "0x10", "1e", "#"])
_SCALARS = st.one_of(_NUMBERS, _NUMBERS, _WORDS)
_TRIPLES = st.lists(_SCALARS, min_size=3, max_size=3).map(", ".join)


@st.composite
def _fuzzed_configs(draw):
    command = draw(st.sampled_from(sorted(_BASE)))
    lines = {"command": command, "beam.gamma": "2.0", "beam.radius_bohr": "1000.0"}
    lines.update(_BASE[command])
    keys = draw(st.lists(st.sampled_from(_OWN_KEYS[command] + _BEAM_KEYS), max_size=3, unique=True))
    if draw(st.sampled_from([False, False, False, True])):
        keys.append(draw(st.sampled_from(_JUNK_KEYS)))
    for key in keys:
        lines[key] = draw(_TRIPLES if key in ("ir.v1", "ir.v2") else _SCALARS)
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


@settings(max_examples=200, deadline=None)
@given(text=_fuzzed_configs())
def test_main_on_fuzzed_configs_exits_cleanly(text):
    # exit 0, 2 or 3; no exception escapes; stdout ends in one JSON line and
    # every JSON artifact is strict JSON (no NaN or Infinity)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        out = Path(tmp) / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        json.loads(stdout.getvalue().strip().splitlines()[-1])
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_non_finite)
