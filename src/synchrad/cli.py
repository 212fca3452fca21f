"""Batch front end: parse a flat key=value config, run one command, and emit
CSV/JSON artifacts.

Commands: spectrum (per-harmonic angular rates and radiated totals), ir
(velocity-jump soft-photon spectrum), decohere (decoherence exponent and
localization widths), packet (Landau-level packet report).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import decoherence, ir_model, packets, semiclassical
from .errors import DomainError, SynchradError, UncertifiedWidthWarning
from .units import C_AU, OMEGA_MAX_AU, BeamParams, LabInput, beam_from_lab

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

_COMMANDS = ("spectrum", "ir", "decohere", "packet")


class ConfigError(SynchradError):
    """Malformed or invalid configuration document."""


@dataclass
class RunConfig:
    command: str
    beam: BeamParams
    params: dict = field(default_factory=dict)


_KNOWN_KEYS = {
    "command",
    "beam.energy_gev",
    "beam.radius_m",
    "beam.gamma",
    "beam.beta",
    "beam.radius_bohr",
    "beam.z",
    "spectrum.harmonics",
    "spectrum.thetas",
    "ir.v1",
    "ir.v2",
    "ir.q_c",
    "ir.omega_min",
    "ir.omega_max",
    "ir.points",
    "ir.use_delta",
    "decohere.t_au",
    "decohere.r_min",
    "decohere.r_max",
    "decohere.r_points",
}


_MAX_POINTS = 1 << 16  # longest grid, harmonic list or angle list a config may ask for
_MAX_TABLE_ROWS = 1 << 21  # most (harmonic, angle) rows of spectrum.csv


def _parse_float(raw: str, key: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key {key!r} needs a number, got {raw!r}")


def _parse_vector(raw: str, key: str, line: int) -> np.ndarray:
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"line {line}: key {key!r} needs three comma-separated numbers")
    return np.array([_parse_float(p, key, line) for p in parts])


def _parse_int(raw: str, key: str, line: int) -> int:
    number = _parse_float(raw, key, line)
    if not math.isfinite(number):
        raise ConfigError(f"line {line}: key {key!r} needs a finite number, got {raw!r}")
    return int(number)


def _parse_int_list(raw: str, key: str, line: int) -> list[int]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            bounds = part.split(":")
            if len(bounds) != 2:
                raise ConfigError(f"line {line}: bad range {part!r} in {key!r}")
            a, b = (_parse_int(x, key, line) for x in bounds)
            if b - a >= _MAX_POINTS:
                raise ConfigError(
                    f"line {line}: range {part!r} in {key!r} is longer than {_MAX_POINTS}"
                )
            out.extend(range(a, b + 1))
        else:
            out.append(_parse_int(part, key, line))
        if len(out) > _MAX_POINTS:
            raise ConfigError(f"line {line}: key {key!r} lists more than {_MAX_POINTS} values")
    if not out:
        raise ConfigError(f"line {line}: key {key!r} is empty")
    return out


def parse_config(text: str) -> RunConfig:
    """Parse a flat key=value document (one pair per line, # comments) into a
    validated RunConfig.  Errors name the offending key and line."""
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (value, lineno)

    if "command" not in pairs:
        raise ConfigError("missing required key 'command'")
    command, cmd_line = pairs.pop("command")
    if command not in _COMMANDS:
        raise ConfigError(
            f"line {cmd_line}: command must be one of {', '.join(_COMMANDS)}, got {command!r}"
        )

    beam = _parse_beam(pairs)
    params: dict = {}
    for key, (value, lineno) in pairs.items():
        section, _, name = key.partition(".")
        if section == "beam":
            continue
        if section != command:
            raise ConfigError(
                f"line {lineno}: key {key!r} does not belong to command {command!r}"
            )
        params[name] = (value, lineno)
    return RunConfig(command=command, beam=beam, params=params)


def _parse_beam(pairs: dict) -> BeamParams:
    def take(key):
        return pairs.get(key, (None, 0))

    z_raw, z_line = take("beam.z")
    Z = _parse_float(z_raw, "beam.z", z_line) if z_raw is not None else 1.0
    e_raw, e_line = take("beam.energy_gev")
    g_raw, g_line = take("beam.gamma")
    b_raw, b_line = take("beam.beta")
    try:
        if e_raw is not None:
            r_raw, r_line = take("beam.radius_m")
            if r_raw is None:
                raise ConfigError("beam.energy_gev requires beam.radius_m")
            return beam_from_lab(
                LabInput(
                    energy_GeV=_parse_float(e_raw, "beam.energy_gev", e_line),
                    radius_m=_parse_float(r_raw, "beam.radius_m", r_line),
                    Z=Z,
                )
            )
        if g_raw is not None or b_raw is not None:
            r_raw, r_line = take("beam.radius_bohr")
            if r_raw is None:
                raise ConfigError("beam.gamma/beam.beta requires beam.radius_bohr")
            R = _parse_float(r_raw, "beam.radius_bohr", r_line)
            if b_raw is not None:
                beta = _parse_float(b_raw, "beam.beta", b_line)
                if not (0.0 <= beta < 1.0):
                    raise ConfigError(
                        f"line {b_line}: beam.beta must satisfy 0 <= beta < 1, got {beta}"
                    )
                gamma = 1.0 / math.sqrt(1.0 - beta**2)
            else:
                gamma = _parse_float(g_raw, "beam.gamma", g_line)
            return BeamParams.from_gamma_radius(gamma=gamma, R=R, Z=Z)
    except ConfigError:
        raise
    except ValueError as exc:  # DomainError of the beam record included
        raise ConfigError(f"invalid beam parameters: {exc}")
    raise ConfigError("missing beam block: set beam.energy_gev or beam.gamma/beam.beta")


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def _param(params, name, default=None, kind=float):
    if name not in params:
        if default is None:
            raise ConfigError(f"missing required key '{name}'")
        return default
    value, lineno = params[name]
    if kind is float:
        return _parse_float(value, name, lineno)
    if kind is int:
        number = _parse_int(value, name, lineno)
        if number > _MAX_POINTS:
            raise ConfigError(f"line {lineno}: key {name!r} is above {_MAX_POINTS}")
        return number
    return value


def _inf_as_null(value: float):
    """JSON null for a valid +inf (an unlocalized packet's width, the smallness
    of a jump from rest); anything else, NaN included, goes to _write_json."""
    return None if value == math.inf else value


def _write_json(path, payload) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise DomainError(f"{os.path.basename(path)}: non-finite result in {payload!r}")
    with open(path, "w", newline="\n") as f:
        f.write(text + "\n")


def _run_spectrum(config: RunConfig, out_dir: str) -> list[str]:
    params = config.params
    if "harmonics" in params:
        value, lineno = params["harmonics"]
        harmonics = _parse_int_list(value, "spectrum.harmonics", lineno)
        if min(harmonics) < 1:
            raise ConfigError(
                f"line {lineno}: spectrum.harmonics must be at least 1, got {min(harmonics)}"
            )
    else:
        harmonics = list(range(1, 11))
    if "thetas" in params:
        value, lineno = params["thetas"]
        parts = value.split(",")
        if len(parts) > _MAX_POINTS:
            raise ConfigError(
                f"line {lineno}: key 'spectrum.thetas' lists more than {_MAX_POINTS} values"
            )
        thetas = [_parse_float(p, "spectrum.thetas", lineno) for p in parts]
        if not all(math.isfinite(theta) for theta in thetas):
            raise ConfigError(f"line {lineno}: spectrum.thetas must be finite, got {value!r}")
    else:
        thetas = list(np.linspace(0.0, math.pi, 19))
    if len(harmonics) * len(thetas) > _MAX_TABLE_ROWS:
        raise ConfigError(
            f"spectrum: {len(harmonics)} harmonics x {len(thetas)} thetas is more than "
            f"{_MAX_TABLE_ROWS} rows"
        )
    rates = semiclassical.schott_angular_rate(
        np.asarray(harmonics, dtype=float)[:, None], np.asarray(thetas, dtype=float), config.beam
    )
    csv_path = os.path.join(out_dir, "spectrum.csv")
    with open(csv_path, "w", newline="\n") as f:
        f.write("n,theta_rad,rate_au\n")
        for n, row in zip(harmonics, rates.tolist()):
            for theta, rate in zip(thetas, row):
                f.write(f"{n},{theta:.16e},{rate:.16e}\n")
    json_path = os.path.join(out_dir, "spectrum.json")
    _write_json(
        json_path,
        {
            "gamma": config.beam.gamma,
            "total_power_au": semiclassical.total_power(config.beam),
            "classical_power_au": semiclassical.classical_power(config.beam),
            "total_photon_rate_au": semiclassical.total_photon_rate(config.beam),
        },
    )
    return [csv_path, json_path]


def _run_ir(config: RunConfig, out_dir: str) -> list[str]:
    params = config.params
    if "v1" not in params or "v2" not in params:
        raise ConfigError("ir command requires ir.v1 and ir.v2")
    v1 = _parse_vector(params["v1"][0], "ir.v1", params["v1"][1])
    v2 = _parse_vector(params["v2"][0], "ir.v2", params["v2"][1])
    q_c = _param(params, "q_c", default=C_AU)
    for name, v in (("v1", v1), ("v2", v2)):
        if not (np.all(np.isfinite(v)) and np.linalg.norm(v) < C_AU):
            raise ConfigError(
                f"ir.{name} must be finite with speed below c = {C_AU}, got {params[name][0]!r}"
            )
    if not (math.isfinite(q_c) and q_c > 0):
        raise ConfigError(f"ir.q_c must be positive and finite, got {q_c!r}")
    jump = ir_model.VelocityJump(v1=v1, v2=v2, q_c=q_c, Z=config.beam.Z)
    omega_min = _param(params, "omega_min", default=1e-8)
    omega_max = _param(params, "omega_max", default=1e-2)
    points = _param(params, "points", default=64, kind=int)
    if not (math.isfinite(omega_min) and omega_min > 0):
        raise ConfigError(f"ir.omega_min must be positive and finite, got {omega_min!r}")
    if not (omega_min < omega_max <= OMEGA_MAX_AU):
        raise ConfigError(
            f"ir.omega_max must be above omega_min = {omega_min!r} and at most "
            f"{OMEGA_MAX_AU:g}, got {omega_max!r}"
        )
    if points < 1:
        raise ConfigError(f"ir.points must be at least 1, got {points}")
    use_delta = _param(params, "use_delta", default="true", kind=str).lower() != "false"
    delta = ir_model.delta_shift(jump)
    shift = delta if use_delta else 0.0
    grid = np.exp(np.linspace(math.log(omega_min), math.log(omega_max), points))
    csv_path = os.path.join(out_dir, "ir.csv")
    density = ir_model.soft_spectral_density(jump, grid, delta_override=shift)
    with open(csv_path, "w", newline="\n") as f:
        f.write("omega_au,dN_domega\n")
        for w, dens in zip(grid, density):
            f.write(f"{w:.16e},{dens:.16e}\n")
    json_path = os.path.join(out_dir, "ir.json")
    _write_json(
        json_path,
        {
            "delta_au": delta,
            "delta_closed_form_au": ir_model.delta_shift_closed_form(jump),
            "lambda_smallness": _inf_as_null(jump.smallness),
            "total_count": ir_model.total_soft_count(
                jump, omega_min, omega_max, delta_override=shift
            ),
        },
    )
    return [csv_path, json_path]


def _run_decohere(config: RunConfig, out_dir: str) -> list[str]:
    params = config.params
    t = _param(params, "t_au")
    r_min = _param(params, "r_min", default=1e-3)
    r_max = _param(params, "r_max", default=1e7)
    r_points = _param(params, "r_points", default=128, kind=int)
    if not (math.isfinite(t) and t > 0):
        raise ConfigError(f"decohere.t_au must be positive and finite, got {t!r}")
    if not (math.isfinite(r_min) and r_min > 0):
        raise ConfigError(f"decohere.r_min must be positive and finite, got {r_min!r}")
    if not (math.isfinite(r_max) and r_max > r_min):
        raise ConfigError(
            f"decohere.r_max must be finite and above r_min = {r_min!r}, got {r_max!r}"
        )
    if r_points < 1:
        raise ConfigError(f"decohere.r_points must be at least 1, got {r_points}")
    r = np.concatenate(
        [[0.0], np.exp(np.linspace(math.log(r_min), math.log(r_max), r_points))]
    )
    csv_path = os.path.join(out_dir, "decohere.csv")
    # both axes in one field: transverse rows first, then longitudinal
    decoherence.decoherence_field(
        config.beam, t, np.tile(r, 2), np.repeat([math.pi / 2.0, 0.0], len(r))
    ).to_csv(csv_path)
    payload = {"t_au": t}
    # an uncertified width is reported in the JSON rather than on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UncertifiedWidthWarning)
        for axis in ("transverse", "longitudinal"):
            width = decoherence.localization_width(config.beam, t, axis)
            payload[f"width_{axis}_bohr"] = _inf_as_null(width)
            payload[f"width_{axis}_certified"] = width.certified
            payload[f"width_{axis}_rel_error"] = width.rel_error
    json_path = os.path.join(out_dir, "decohere.json")
    _write_json(json_path, payload)
    return [csv_path, json_path]


def _run_packet(config: RunConfig, out_dir: str) -> list[str]:
    json_path = os.path.join(out_dir, "packet.json")
    _write_json(json_path, packets.packet_report(config.beam))
    return [json_path]


_RUNNERS = {
    "spectrum": _run_spectrum,
    "ir": _run_ir,
    "decohere": _run_decohere,
    "packet": _run_packet,
}


def run(config: RunConfig, out_dir: str = ".") -> list[str]:
    """Execute the configured command; returns the artifact paths written."""
    os.makedirs(out_dir, exist_ok=True)
    return _RUNNERS[config.command](config, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="synchrad", description="Synchrotron emission and decoherence toolkit"
    )
    parser.add_argument("--config", required=True, help="path to key=value config file")
    parser.add_argument("--out", default=".", help="output directory for artifacts")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code

    try:
        with open(args.config) as f:
            config = parse_config(f.read())
    except OSError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}))
        return 2
    except SynchradError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2

    try:
        artifacts = run(config, args.out)
    except (SynchradError, ArithmeticError) as exc:
        # an overflow (ArithmeticError) is a non-finite result: it exits 3 as a NaN does
        print(
            json.dumps(
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "command": config.command,
                }
            )
        )
        # a config the parser accepts can still be rejected by its command
        return 2 if isinstance(exc, ConfigError) else 3
    print(json.dumps({"status": "ok", "artifacts": sorted(artifacts)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
