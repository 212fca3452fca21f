"""Quantized transverse levels, packet widths, and spreading times."""

import math

import pytest

from synchrad.errors import DomainError
from synchrad.packets import (
    LandauLevelState,
    energy_level,
    larmor_frequency,
    level_spacing,
    mean_principal_number,
    packet_report,
    packet_widths,
    relative_fluctuation,
    spreading_time,
)
from synchrad.units import (
    AU_TIME_SECONDS,
    BOHR_PER_METER,
    C_AU,
    FIAN_60,
    BeamParams,
    beam_from_lab,
)

FIAN = beam_from_lab(FIAN_60)


def test_ground_level_is_rest_energy():
    # n1 = 0, sigma = -1/2, p = 0: the oscillator term vanishes exactly
    state = LandauLevelState(n1=0, sigma=-0.5)
    assert energy_level(state, H0=10.0) == C_AU**2


def test_energy_monotone_in_quantum_numbers():
    H0 = 5.0
    energies = [
        energy_level(LandauLevelState(n1=n, sigma=-0.5), H0) for n in range(6)
    ]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    ps = [0.0, 1.0, 5.0, 50.0]
    with_p = [energy_level(LandauLevelState(n1=1, sigma=0.5, p=p), H0) for p in ps]
    assert all(b > a for a, b in zip(with_p, with_p[1:]))
    # spin raises the level by one oscillator quantum
    up = energy_level(LandauLevelState(n1=3, sigma=0.5), H0)
    dn = energy_level(LandauLevelState(n1=4, sigma=-0.5), H0)
    assert up == pytest.approx(dn, rel=1e-15)


def test_level_state_validation():
    with pytest.raises(DomainError):
        LandauLevelState(n1=-1, sigma=0.5)
    with pytest.raises(DomainError):
        LandauLevelState(n1=0, sigma=1.0)
    with pytest.raises(DomainError):
        larmor_frequency(0.0)


def test_spacing_approaches_rotation_frequency():
    # for the mean level of a relativistic beam the spacing is omega0 = 2 wL / gamma
    beam = FIAN
    n1 = int(mean_principal_number(beam))
    spacing = level_spacing(n1, beam.H0)
    assert spacing == pytest.approx(2.0 * larmor_frequency(beam.H0) / beam.gamma, rel=1e-6, abs=0.0)
    assert spacing == pytest.approx(beam.omega0, rel=1e-6, abs=0.0)


def test_spacing_matches_small_level_difference():
    # at modest n1 the direct difference is still representable: cross-check
    H0 = 2.0
    for n1 in (0, 1, 10):
        ea = energy_level(LandauLevelState(n1=n1, sigma=-0.5), H0)
        eb = energy_level(LandauLevelState(n1=n1 + 1, sigma=-0.5), H0)
        assert level_spacing(n1, H0) == pytest.approx(eb - ea, rel=1e-9)


def test_mean_number_independent_oracle():
    # n1_mean = (gamma^2 - 1) c^2 / (4 wL) with wL = gamma c omega0 / (2 c)
    # reduces to gamma beta c R / 2; check against that independent form
    for gamma, R in ((2.0, 500.0), (10.0, 1e4), (FIAN.gamma, FIAN.R)):
        beam = BeamParams.from_gamma_radius(gamma, R)
        beta = math.sqrt(1 - 1 / gamma**2)
        assert mean_principal_number(beam) == pytest.approx(
            gamma * beta * C_AU * R / 2.0, rel=1e-12
        )
    # doubling the radius at fixed gamma doubles the mean number
    b1 = BeamParams.from_gamma_radius(3.0, 1000.0)
    b2 = BeamParams.from_gamma_radius(3.0, 2000.0)
    assert mean_principal_number(b2) == pytest.approx(
        2.0 * mean_principal_number(b1), rel=1e-12
    )


def test_packet_width_identities():
    beam = FIAN
    n1 = mean_principal_number(beam)
    drho, dphi, arc = packet_widths(beam)
    assert drho == pytest.approx(beam.R / math.sqrt(n1), rel=1e-14)
    assert dphi == pytest.approx(1.0 / math.sqrt(2.0 * n1), rel=1e-14, abs=0.0)
    # the azimuthal arc and radial width differ by exactly sqrt(2)
    assert arc == pytest.approx(drho / math.sqrt(2.0), rel=1e-12)
    with pytest.raises(DomainError):
        packet_widths(BeamParams.from_gamma_radius(1.0, 100.0))


def test_fian_benchmark_magnitudes():
    # 0.68 GeV on a 2 m orbit: n1_mean ~ 3.4e15 so the radial width is tens
    # of nanometers and the fractional level spread is ~2e-8
    n1 = mean_principal_number(FIAN)
    assert n1 == pytest.approx(3.446e15, rel=1e-3)
    drho, _, _ = packet_widths(FIAN)
    assert drho / BOHR_PER_METER == pytest.approx(3.41e-8, rel=0.01)
    assert relative_fluctuation(FIAN) == pytest.approx(1.0 / math.sqrt(n1), rel=1e-12, abs=0.0)


def test_spreading_time_scaling():
    beam = FIAN
    tau1, tau1_s = spreading_time(beam, 100.0)
    tau2, _ = spreading_time(beam, 200.0)
    assert tau1 == pytest.approx(2.0 * tau2, rel=1e-14)
    assert tau1_s == pytest.approx(tau1 * AU_TIME_SECONDS, rel=1e-14)
    assert tau1 == pytest.approx(beam.gamma * beam.R**2 / 100.0, rel=1e-14)
    with pytest.raises(DomainError):
        spreading_time(beam, 0.0)


def test_relative_fluctuation_contracts():
    with pytest.raises(DomainError):
        relative_fluctuation(BeamParams.from_gamma_radius(1.0, 100.0))


def test_packet_report_contents():
    report = packet_report(FIAN)
    assert set(report) == {
        "gamma",
        "n1_mean",
        "drho_m",
        "dphi",
        "arc_m",
        "tau1_s",
        "lambda",
    }
    assert report["gamma"] == pytest.approx(FIAN.gamma)
    assert report["arc_m"] == pytest.approx(report["drho_m"] / math.sqrt(2.0), rel=1e-12, abs=0.0)
    assert report["lambda"] == pytest.approx(1.0 / math.sqrt(report["n1_mean"]), rel=1e-12, abs=0.0)
    assert report["tau1_s"] > 0.0
