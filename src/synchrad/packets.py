"""Quantized transverse motion of the orbiting electron: Landau-level
energies, the mean oscillator quantum number of the beam, packet widths, and
the spreading time of a superposition of neighboring levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .units import AU_TIME_SECONDS, BOHR_PER_METER, C_AU, BeamParams

__all__ = [
    "LandauLevelState",
    "larmor_frequency",
    "energy_level",
    "level_spacing",
    "mean_principal_number",
    "packet_widths",
    "spreading_time",
    "relative_fluctuation",
    "packet_report",
]


@dataclass(frozen=True)
class LandauLevelState:
    """One transverse-motion eigenstate: principal oscillator number n1, spin
    projection sigma, longitudinal momentum p (a.u.).  The energy is
    degenerate in the orbit-center oscillator number n2, so the state does
    not carry it."""

    n1: int
    sigma: float
    p: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.n1) and self.n1 >= 0 and self.n1 == int(self.n1)):
            raise DomainError(f"n1 must be a nonnegative integer, got {self.n1}")
        if self.sigma not in (-0.5, 0.5):
            raise DomainError(f"sigma must be +/- 1/2, got {self.sigma}")


def larmor_frequency(H0: float) -> float:
    """omega_L = H0 / (2 m c) in atomic units (m = |e| = 1)."""
    if not 0 < H0 < math.inf:
        raise DomainError(f"field strength must be positive and finite, got {H0}")
    return H0 / (2.0 * C_AU)


def energy_level(state: LandauLevelState, H0: float) -> float:
    """Transverse-motion energy
    sqrt(m^2 c^4 + p^2 c^2 + 4 omega_L m c^2 (n1 + sigma + 1/2))."""
    wl = larmor_frequency(H0)
    return math.sqrt(
        C_AU**4 + state.p**2 * C_AU**2 + 4.0 * wl * C_AU**2 * (state.n1 + state.sigma + 0.5)
    )


def level_spacing(n1: int, H0: float, sigma: float = -0.5, p: float = 0.0) -> float:
    """E(n1 + 1) - E(n1) at fixed sigma and p; approaches 2 omega_L / gamma
    for highly excited levels."""
    a = LandauLevelState(n1=n1, sigma=sigma, p=p)
    b = LandauLevelState(n1=n1 + 1, sigma=sigma, p=p)
    ea, eb = energy_level(a, H0), energy_level(b, H0)
    # difference-of-squares form avoids the catastrophic cancellation of
    # eb - ea (the spacing is ~1e-16 of the energy for accelerator beams)
    return 4.0 * larmor_frequency(H0) * C_AU**2 / (eb + ea)


def mean_principal_number(beam: BeamParams) -> float:
    """Mean oscillator number of the beam: the p = 0 level whose energy is
    gamma m c^2, i.e. n1_mean = (gamma^2 - 1) m c^2 / (4 omega_L)."""
    wl = larmor_frequency(beam.H0) if beam.H0 > 0 else None
    if wl is None:
        return 0.0
    return (beam.gamma**2 - 1.0) * C_AU**2 / (4.0 * wl)


def packet_widths(beam: BeamParams) -> tuple[float, float, float]:
    """Ground-level packet widths: (radial rms width Delta_rho, azimuthal
    angle spread Delta_phi, azimuthal arc R * Delta_phi), all for the mean
    level.  Delta_rho = R / sqrt(n1_mean) and Delta_phi = 1 / sqrt(2 n1_mean),
    so R * Delta_phi = Delta_rho / sqrt(2) holds identically."""
    n1 = mean_principal_number(beam)
    if n1 <= 0:
        raise DomainError("packet widths undefined for gamma = 1 (no excitation)")
    drho = beam.R / math.sqrt(n1)
    dphi = 1.0 / math.sqrt(2.0 * n1)
    return drho, dphi, beam.R * dphi


def spreading_time(beam: BeamParams, delta_n1: float) -> tuple[float, float]:
    """Time for a superposition spanning delta_n1 levels to spread over the
    orbit: gamma * R^2 / delta_n1.  Returns (a.u., seconds)."""
    if not 0 < delta_n1 < math.inf:
        raise DomainError(f"delta_n1 must be positive and finite, got {delta_n1}")
    tau = beam.gamma * beam.R**2 / delta_n1
    return tau, tau * AU_TIME_SECONDS


def relative_fluctuation(beam: BeamParams) -> float:
    """Relative level-number spread lambda = delta_n1 / n1_mean under the
    independent-emission (Poisson) assumption delta_n1 = sqrt(n1_mean)."""
    n1 = mean_principal_number(beam)
    if n1 <= 0:
        raise DomainError("fluctuation undefined for gamma = 1")
    return math.sqrt(n1) / n1


def packet_report(beam: BeamParams) -> dict:
    """JSON-ready summary of the packet quantities in mixed units."""
    n1 = mean_principal_number(beam)
    drho, dphi, arc = packet_widths(beam)
    lam = relative_fluctuation(beam)
    _, tau1_s = spreading_time(beam, math.sqrt(n1))
    return {
        "gamma": beam.gamma,
        "n1_mean": n1,
        "drho_m": drho / BOHR_PER_METER,
        "dphi": dphi,
        "arc_m": arc / BOHR_PER_METER,
        "tau1_s": tau1_s,
        "lambda": lam,
    }
