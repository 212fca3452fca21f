"""Quantized transverse motion of the orbiting electron: Landau-level
energies, the mean oscillator quantum number of the beam, packet widths, and
the spreading time of a superposition of neighboring levels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError
from .units import AU_TIME_SECONDS, BOHR_PER_METER, C_AU, BeamParams

__all__ = [
    "LandauLevelState",
    "WavePacketSpec",
    "larmor_frequency",
    "energy_level",
    "level_spacing",
    "mean_principal_number",
    "packet_widths",
    "packet_width_estimate",
    "spreading_time",
    "relative_fluctuation",
    "packet_report",
]


@dataclass(frozen=True)
class LandauLevelState:
    """One transverse-motion eigenstate: principal oscillator number n1,
    orbit-center oscillator number n2, spin projection sigma, longitudinal
    momentum p (a.u.)."""

    n1: int
    n2: int
    sigma: float
    p: float = 0.0

    def __post_init__(self):
        if self.n1 < 0 or self.n1 != int(self.n1):
            raise DomainError(f"n1 must be a nonnegative integer, got {self.n1}")
        if self.n2 < 0 or self.n2 != int(self.n2):
            raise DomainError(f"n2 must be a nonnegative integer, got {self.n2}")
        if self.sigma not in (-0.5, 0.5):
            raise DomainError(f"sigma must be +/- 1/2, got {self.sigma}")


@dataclass(frozen=True)
class WavePacketSpec:
    """Gaussian superposition parameters: mean oscillator numbers and the
    longitudinal width delta0 entering the momentum law
    c_p = (2 pi delta0^2)^(1/4) exp(-p^2 delta0^2 / 4)."""

    n1_mean: float
    n2_mean: float
    delta0: float

    def __post_init__(self):
        if self.n1_mean < 0 or self.n2_mean < 0:
            raise DomainError("mean oscillator numbers must be nonnegative")
        if self.delta0 <= 0:
            raise DomainError("longitudinal width delta0 must be positive")
        if self.n2_mean > 0.01 * self.n1_mean:
            warnings.warn(
                "packet construction assumes n2_mean << n1_mean", stacklevel=2
            )

    def momentum_amplitude(self, p: float) -> float:
        return (2.0 * math.pi * self.delta0**2) ** 0.25 * math.exp(
            -(p**2) * self.delta0**2 / 4.0
        )


def larmor_frequency(H0: float) -> float:
    """omega_L = H0 / (2 m c) in atomic units (m = |e| = 1)."""
    if H0 <= 0:
        raise DomainError("field strength must be positive")
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
    a = LandauLevelState(n1=n1, n2=0, sigma=sigma, p=p)
    b = LandauLevelState(n1=n1 + 1, n2=0, sigma=sigma, p=p)
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


def packet_width_estimate(beam: BeamParams) -> float:
    """Order-of-magnitude radial width sqrt(R / (gamma v0)); smaller than the
    packet_widths value by sqrt(2 c / c) bookkeeping, kept as the rough
    estimate variant."""
    if beam.v0 <= 0:
        raise DomainError("estimate undefined for a beam at rest")
    return math.sqrt(beam.R / (beam.gamma * beam.v0))


def spreading_time(beam: BeamParams, delta_n1: float) -> tuple[float, float]:
    """Time for a superposition spanning delta_n1 levels to spread over the
    orbit: gamma * R^2 / delta_n1.  Returns (a.u., seconds)."""
    if not delta_n1 > 0:
        raise DomainError("delta_n1 must be positive")
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
