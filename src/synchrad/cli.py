"""Batch front end: parse a flat key=value config, run one command, and emit
CSV/JSON artifacts.

Commands: spectrum (per-harmonic angular rates and radiated totals), ir
(velocity-jump soft-photon spectrum), decohere (decoherence exponent and
localization widths), packet (Landau-level packet report).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

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


# The three beam forms, each a value key and its radius key, in the order a
# config's keys pick one: lab energy, then beta, then gamma.
_BEAM_FORMS = (
    ("beam.energy_gev", "beam.radius_m"),
    ("beam.beta", "beam.radius_bohr"),
    ("beam.gamma", "beam.radius_bohr"),
)
_BEAM_KEYS = {"beam.z"}.union(*_BEAM_FORMS)
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
    if not number.is_integer():  # NaN and the infinities included
        raise ConfigError(f"line {line}: key {key!r} needs a whole number, got {raw!r}")
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


def _parse_float_list(raw: str, key: str, line: int) -> list[float]:
    parts = raw.split(",")
    if len(parts) > _MAX_POINTS:
        raise ConfigError(f"line {line}: key {key!r} lists more than {_MAX_POINTS} values")
    return [_parse_float(p, key, line) for p in parts]


# acceptance tests, each with what it asks for in an error message
_POSITIVE = (lambda x: math.isfinite(x) and x > 0, "a positive finite number")
_COUNT = (lambda n: 1 <= n <= _MAX_POINTS, f"a count from 1 to {_MAX_POINTS}")
_SUBLUMINAL = (
    lambda v: math.hypot(*v) < C_AU,  # ir_model.VelocityJump's test; NaN and inf fail it
    f"finite components with speed below c = {C_AU}",
)

# Every command key: (parser, default or None when required, acceptance test,
# what it asks for).  parse_config applies the row to each key of the command.
_KEYS = {
    "spectrum.harmonics": (
        _parse_int_list, tuple(range(1, 11)), lambda ns: min(ns) >= 1, "harmonics of at least 1"
    ),
    "spectrum.thetas": (
        _parse_float_list,
        tuple(np.linspace(0.0, math.pi, 19)),
        lambda thetas: all(map(math.isfinite, thetas)),
        "finite angles",
    ),
    "ir.v1": (_parse_vector, None, *_SUBLUMINAL),
    "ir.v2": (_parse_vector, None, *_SUBLUMINAL),
    "ir.q_c": (_parse_float, C_AU, *_POSITIVE),
    "ir.omega_min": (_parse_float, 1e-8, *_POSITIVE),
    "ir.omega_max": (
        _parse_float, 1e-2, lambda w: w <= OMEGA_MAX_AU, f"a number at most {OMEGA_MAX_AU:g}"
    ),
    "ir.points": (_parse_int, 64, *_COUNT),
    "ir.use_delta": (
        lambda raw, key, line: raw.lower(), "true", lambda w: w in ("true", "false"),
        "true or false",
    ),
    "decohere.t_au": (_parse_float, None, *_POSITIVE),
    "decohere.r_min": (_parse_float, 1e-3, *_POSITIVE),
    "decohere.r_max": (_parse_float, 1e7, *_POSITIVE),
    "decohere.r_points": (_parse_int, 128, *_COUNT),
}

# Checks that span two keys of one command: the two keys, a test on their
# values, and what the error says of the values.  parse_config applies them
# after the single-key rows of _KEYS.
_KEY_PAIRS = (
    ("spectrum.harmonics", "spectrum.thetas", lambda ns, ts: len(ns) * len(ts) <= _MAX_TABLE_ROWS,
     lambda ns, ts: f"at most {_MAX_TABLE_ROWS} rows, got {len(ns)} harmonics x {len(ts)} thetas"),
    ("ir.omega_min", "ir.omega_max", lambda lo, hi: lo < hi,
     lambda lo, hi: f"omega_min below omega_max, got {lo!r} and {hi!r}"),
    ("decohere.r_min", "decohere.r_max", lambda lo, hi: lo < hi,
     lambda lo, hi: f"r_min below r_max, got {lo!r} and {hi!r}"),
)


def parse_config(text: str) -> RunConfig:
    """Parse a flat key=value document (one pair per line, # comments) into a
    RunConfig whose params hold the command's keys, by name, as typed and
    checked values, defaults filled in.  Errors name the offending key and
    line."""
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key != "command" and key not in _KEYS and key not in _BEAM_KEYS:
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
    for key, (_, lineno) in pairs.items():
        if key.partition(".")[0] not in ("beam", command):
            raise ConfigError(
                f"line {lineno}: key {key!r} does not belong to command {command!r}"
            )
    params: dict = {}
    for key, (parse, default, accept, needs) in _KEYS.items():
        section, _, name = key.partition(".")
        if section != command:
            continue
        if key not in pairs:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            params[name] = default
            continue
        raw, lineno = pairs[key]
        value = parse(raw, key, lineno)
        if not accept(value):
            raise ConfigError(f"line {lineno}: key {key!r} needs {needs}, got {raw!r}")
        params[name] = value
    for first, second, accept, got in _KEY_PAIRS:
        if first.partition(".")[0] != command:
            continue
        values = [params[key.partition(".")[2]] for key in (first, second)]
        if not accept(*values):
            where = [f"line {pairs[key][1]}" if key in pairs else "default" for key in (first, second)]
            raise ConfigError(
                f"keys {first!r} ({where[0]}) and {second!r} ({where[1]}) need {got(*values)}"
            )
    return RunConfig(command=command, beam=beam, params=params)


def _parse_beam(pairs: dict) -> BeamParams:
    form = next((form for form in _BEAM_FORMS if form[0] in pairs), None)
    if form is None:
        raise ConfigError("missing beam block: set beam.energy_gev or beam.gamma/beam.beta")
    lead, radius = form
    for key, (_, lineno) in pairs.items():
        if key in _BEAM_KEYS and key not in (*form, "beam.z"):
            raise ConfigError(
                f"line {lineno}: key {key!r} belongs to another beam form than {lead} + {radius}"
            )
    if radius not in pairs:
        raise ConfigError(f"{lead} requires {radius}")

    def value(key):
        raw, lineno = pairs[key]
        return _parse_float(raw, key, lineno)

    Z = value("beam.z") if "beam.z" in pairs else 1.0
    try:
        if lead == "beam.energy_gev":
            return beam_from_lab(LabInput(energy_GeV=value(lead), radius_m=value(radius), Z=Z))
        R = value(radius)
        if lead == "beam.beta":
            beta = value(lead)
            if not (0.0 <= beta < 1.0):
                raise ConfigError(
                    f"line {pairs[lead][1]}: beam.beta must satisfy 0 <= beta < 1, got {beta}"
                )
            gamma = 1.0 / math.sqrt(1.0 - beta**2)
        else:
            gamma = value(lead)
        return BeamParams.from_gamma_radius(gamma=gamma, R=R, Z=Z)
    except ValueError as exc:  # DomainError of the beam record included
        raise ConfigError(f"invalid beam parameters: {exc}")


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


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


def _write_csv(path, header: str, rows) -> None:
    """LF-terminated CSV of one or more rows: an int column as written, any
    other column as %.16e."""
    rows = iter(rows)
    first = next(rows)
    line = ",".join("%d" if isinstance(v, int) else "%.16e" for v in first) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        f.writelines(line % row for row in itertools.chain([first], rows))


def _run_spectrum(config: RunConfig, out_dir: str) -> list[str]:
    from . import semiclassical

    harmonics, thetas = config.params["harmonics"], config.params["thetas"]
    rates = semiclassical.schott_angular_rate(
        np.asarray(harmonics, dtype=float)[:, None], np.asarray(thetas, dtype=float), config.beam
    )
    csv_path = os.path.join(out_dir, "spectrum.csv")
    rows = (
        (n, theta, rate)
        for n, row in zip(harmonics, rates.tolist())
        for theta, rate in zip(thetas, row)
    )
    _write_csv(csv_path, "n,theta_rad,rate_au", rows)
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
    from . import ir_model

    params = config.params
    omega_min, omega_max = params["omega_min"], params["omega_max"]
    jump = ir_model.VelocityJump(
        v1=params["v1"], v2=params["v2"], q_c=params["q_c"], Z=config.beam.Z
    )
    delta = ir_model.delta_shift(jump)
    shift = delta if params["use_delta"] == "true" else 0.0
    grid = np.exp(np.linspace(math.log(omega_min), math.log(omega_max), params["points"]))
    csv_path = os.path.join(out_dir, "ir.csv")
    density = ir_model.soft_spectral_density(jump, grid, delta_override=shift)
    _write_csv(csv_path, "omega_au,dN_domega", zip(grid.tolist(), density.tolist()))
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
    from . import decoherence

    params = config.params
    t, r_min, r_max = params["t_au"], params["r_min"], params["r_max"]
    r = np.concatenate(
        [[0.0], np.exp(np.linspace(math.log(r_min), math.log(r_max), params["r_points"]))]
    )
    axes = ("transverse", "longitudinal")
    rows = []  # transverse rows first, then longitudinal
    for axis in axes:
        theta0 = decoherence._AXIS_ANGLE[axis]
        s = decoherence.s_averaged(r, theta0, t, config.beam)
        rows.extend(zip(r.tolist(), itertools.repeat(theta0), s.tolist()))
    csv_path = os.path.join(out_dir, "decohere.csv")
    _write_csv(csv_path, "r_bohr,theta0_rad,S", rows)
    payload = {"t_au": t}
    # an uncertified width is reported in the JSON rather than on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UncertifiedWidthWarning)
        for axis in axes:
            width = decoherence.localization_width(config.beam, t, axis)
            payload[f"width_{axis}_bohr"] = _inf_as_null(width)
            payload[f"width_{axis}_certified"] = width.certified
            payload[f"width_{axis}_rel_error"] = width.rel_error
    json_path = os.path.join(out_dir, "decohere.json")
    _write_json(json_path, payload)
    return [csv_path, json_path]


def _run_packet(config: RunConfig, out_dir: str) -> list[str]:
    from . import packets

    json_path = os.path.join(out_dir, "packet.json")
    _write_json(json_path, packets.packet_report(config.beam))
    return [json_path]


# Each runner imports its own command module, so a command starts without
# the scipy import that only the others need (packet and ir need none).
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
        return 3
    print(json.dumps({"status": "ok", "artifacts": sorted(artifacts)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
