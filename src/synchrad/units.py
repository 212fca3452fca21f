"""Atomic-unit system, physical constants, and the beam/orbit parameter record.

Internally everything is in Hartree atomic units (hbar = |e| = m_e = 1,
c = 137.035999).  The CLI boundary converts from GeV / meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Speed of light in atomic units.
C_AU = 137.035999
# CODATA 2018 conversion constants.
BOHR_PER_METER = 1.8897261e10
ELECTRON_REST_GEV = 0.00051099895
AU_TIME_SECONDS = 2.4188843265857e-17
# Largest accepted Lorentz factor: far above any storage ring (LEP reached
# about 2e5) and far below where gamma**4 overflows a float (about 1e77).
GAMMA_MAX = 1e12
# Largest accepted |Z|, orbit radius (bohr) and photon frequency (a.u.): far
# above any nucleus, any orbit (the observable universe spans about 1e37 bohr)
# and the electron rest energy c**2, and far below where Z**2, R**2,
# GAMMA_MAX * R**2 or (omega / c)**2 overflow a float.
Z_MAX = 1e6
R_MAX_BOHR = 1e40
OMEGA_MAX_AU = 1e12
# Smallest accepted orbit radius (bohr): far below a nucleus (about 2e-5
# bohr), and far above where the orbital frequency c / R, its square in the
# radiated power or the harmonic wavenumbers up to 50 GAMMA_MAX**3 overflow.
R_MIN_BOHR = 1e-10


@dataclass(frozen=True)
class LabInput:
    """Laboratory-frame machine parameters."""

    energy_GeV: float
    radius_m: float
    Z: float = 1.0

    def __post_init__(self):
        if not (ELECTRON_REST_GEV <= self.energy_GeV <= GAMMA_MAX * ELECTRON_REST_GEV):
            raise DomainError(
                f"total energy {self.energy_GeV} GeV outside [{ELECTRON_REST_GEV}, "
                f"{GAMMA_MAX * ELECTRON_REST_GEV}] (rest energy to gamma = {GAMMA_MAX:g})"
            )
        if not (math.isfinite(self.radius_m) and self.radius_m > 0):
            raise DomainError(f"orbit radius must be positive and finite, got {self.radius_m}")
        if not math.isfinite(self.Z):
            raise DomainError(f"charge number must be finite, got {self.Z}")


@dataclass(frozen=True)
class BeamParams:
    """Beam and orbit parameters in atomic units.

    Derived fields (beta, v0, omega0, H0) satisfy
    beta = sqrt(1 - 1/gamma^2), v0 = beta*c, omega0 = v0/R, H0 = gamma*c*omega0,
    so omega0 = H0/(gamma*m*c) holds identically (e = m = 1).  gamma_m2 is
    1/gamma^2 from gamma: 1 - beta^2 from the rounded beta is off by about
    gamma^2 times the double epsilon, and beta rounds to 1 above 1.35e8.
    """

    Z: float
    gamma: float
    R: float
    beta: float
    v0: float
    omega0: float
    H0: float

    @classmethod
    def from_gamma_radius(cls, gamma: float, R: float, Z: float = 1.0) -> "BeamParams":
        if not (1.0 <= gamma <= GAMMA_MAX):
            raise DomainError(f"gamma must satisfy 1 <= gamma <= {GAMMA_MAX:g}, got {gamma}")
        if not (R_MIN_BOHR <= R <= R_MAX_BOHR):
            raise DomainError(
                f"orbit radius must satisfy {R_MIN_BOHR:g} <= R <= {R_MAX_BOHR:g} bohr, got {R}"
            )
        if not abs(Z) <= Z_MAX:
            raise DomainError(f"charge number must satisfy |Z| <= {Z_MAX:g}, got {Z}")
        beta = math.sqrt(max(0.0, 1.0 - 1.0 / gamma**2))
        v0 = beta * C_AU
        omega0 = v0 / R
        H0 = gamma * C_AU * omega0
        return cls(Z=Z, gamma=gamma, R=R, beta=beta, v0=v0, omega0=omega0, H0=H0)

    @property
    def gamma_m2(self) -> float:
        return 1.0 / self.gamma**2


def beam_from_lab(inp: LabInput) -> BeamParams:
    """Convert laboratory GeV / meter inputs to an atomic-unit beam record."""
    gamma = inp.energy_GeV / ELECTRON_REST_GEV
    R = inp.radius_m * BOHR_PER_METER
    return BeamParams.from_gamma_radius(gamma=gamma, R=R, Z=inp.Z)


FIAN_60 = LabInput(energy_GeV=0.68, radius_m=2.0, Z=1.0)
