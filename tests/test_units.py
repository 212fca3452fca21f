"""Unit-system boundary: conversions, beam parameter derivation, validation."""

import dataclasses
import math

import pytest

from synchrad.errors import DomainError
from synchrad.units import (
    C_AU,
    ELECTRON_REST_GEV,
    FIAN_60,
    GAMMA_MAX,
    BeamParams,
    LabInput,
    beam_from_lab,
)


def test_fian_reference_gamma():
    beam = beam_from_lab(FIAN_60)
    assert beam.gamma == pytest.approx(0.68 / ELECTRON_REST_GEV, rel=1e-12)
    assert beam.gamma == pytest.approx(1330.73, rel=1e-4)


def test_derived_fields_consistent():
    beam = BeamParams.from_gamma_radius(gamma=3.0, R=100.0)
    assert beam.beta == pytest.approx(math.sqrt(1 - 1 / 9), rel=1e-14, abs=0.0)
    assert beam.v0 == pytest.approx(beam.beta * C_AU, rel=1e-14)
    assert beam.omega0 == pytest.approx(beam.v0 / beam.R, rel=1e-14, abs=0.0)
    # orbital frequency = field strength / (gamma m c), with m = |e| = 1
    assert beam.omega0 == pytest.approx(beam.H0 / (beam.gamma * C_AU), rel=1e-14, abs=0.0)


def test_beam_stores_only_its_inputs():
    # the derived quantities follow from Z, gamma and R by the formulas the
    # record once stored, bit for bit
    beam = BeamParams.from_gamma_radius(gamma=3.7, R=123.0, Z=2.0)
    assert [f.name for f in dataclasses.fields(beam)] == ["Z", "gamma", "R"]
    beta = math.sqrt(max(0.0, 1.0 - 1.0 / 3.7**2))
    omega0 = beta * C_AU / 123.0
    assert (beam.beta, beam.v0, beam.omega0) == (beta, beta * C_AU, omega0)
    assert (beam.H0, beam.gamma_m2) == (3.7 * C_AU * omega0, 1.0 / 3.7**2)


def test_direct_construction_is_checked():
    with pytest.raises(DomainError):
        BeamParams(Z=1.0, gamma=math.nan, R=1.0)
    with pytest.raises(DomainError):
        BeamParams(Z=1.0, gamma=2.0, R=0.0)


def test_gamma_one_is_at_rest():
    beam = BeamParams.from_gamma_radius(gamma=1.0, R=10.0)
    assert beam.beta == 0.0
    assert beam.omega0 == 0.0


def test_validation_errors():
    with pytest.raises(DomainError):
        LabInput(energy_GeV=1e-5, radius_m=1.0)
    with pytest.raises(DomainError):
        LabInput(energy_GeV=1.0, radius_m=0.0)
    with pytest.raises(DomainError):
        BeamParams.from_gamma_radius(gamma=0.5, R=1.0)
    with pytest.raises(DomainError):
        BeamParams.from_gamma_radius(gamma=2.0, R=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(DomainError):
        LabInput(energy_GeV=bad, radius_m=1.0)
    with pytest.raises(DomainError):
        LabInput(energy_GeV=1.0, radius_m=bad)
    with pytest.raises(DomainError):
        LabInput(energy_GeV=1.0, radius_m=1.0, Z=bad)
    with pytest.raises(DomainError):
        BeamParams.from_gamma_radius(gamma=bad, R=1.0)
    with pytest.raises(DomainError):
        BeamParams.from_gamma_radius(gamma=2.0, R=bad)
    with pytest.raises(DomainError):
        BeamParams.from_gamma_radius(gamma=2.0, R=1.0, Z=bad)


def test_gamma_is_bounded():
    assert BeamParams.from_gamma_radius(gamma=GAMMA_MAX, R=1.0).gamma == GAMMA_MAX
    for gamma in (1.000001 * GAMMA_MAX, 1e80, 1e160):
        with pytest.raises(DomainError, match="gamma"):
            BeamParams.from_gamma_radius(gamma=gamma, R=1.0)
    LabInput(energy_GeV=0.5 * GAMMA_MAX * ELECTRON_REST_GEV, radius_m=1.0)
    with pytest.raises(DomainError, match="gamma"):
        LabInput(energy_GeV=2.0 * GAMMA_MAX * ELECTRON_REST_GEV, radius_m=1.0)
