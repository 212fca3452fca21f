"""Config parsing, command execution, artifacts, and exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from synchrad import ir_model
from synchrad.cli import ConfigError, main, parse_config, run
from synchrad.semiclassical import classical_power, schott_angular_rate
from synchrad.units import C_AU


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
    rows = (tmp_path / "decohere.csv").read_text().strip().split("\n")[1:]
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


def test_main_deterministic_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "command = spectrum\nbeam.gamma = 2.0\nbeam.radius_bohr = 500.0\n"
        "spectrum.harmonics = 1,2\nspectrum.thetas = 0.3\n"
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", str(cfg), "--out", str(out1), "--deterministic"]) == 0
    capsys.readouterr()
    assert main(["--config", str(cfg), "--out", str(out2), "--deterministic"]) == 0
    capsys.readouterr()
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


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
    ],
)
def test_non_finite_beam_is_config_error(tmp_path, capsys, beam):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"command = spectrum\n{beam}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"
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
