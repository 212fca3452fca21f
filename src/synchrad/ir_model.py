"""Velocity-jump emitter: the radiative level shift that regularizes the
infrared divergence, and the resulting soft-photon spectra.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import sphere_rule
from .semiclassical import PhotonMode, transverse_polarization_pairs
from .units import C_AU

__all__ = [
    "VelocityJump",
    "delta_shift",
    "delta_shift_closed_form",
    "soft_photon_number",
    "soft_spectral_density",
    "total_soft_count",
]


# Sphere rules (n_polar, n_azimuth): the level shift's angular integral and
# the soft spectral density's direction sum
_SHIFT_SPHERE = (64, 48)
_DENSITY_SPHERE = (48, 32)
# Log-frequency nodes per decade of total_soft_count's trapezoid rule
_COUNT_PER_DECADE = 24


@dataclass(frozen=True)
class VelocityJump:
    """A particle moving at v1 that suddenly switches to v2; q_c is the
    ultraviolet cutoff momentum."""

    v1: np.ndarray
    v2: np.ndarray
    q_c: float = C_AU
    Z: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "v1", np.asarray(self.v1, dtype=float))
        object.__setattr__(self, "v2", np.asarray(self.v2, dtype=float))
        if not (np.all(np.isfinite(self.v1)) and np.all(np.isfinite(self.v2))):
            raise DomainError(f"velocities must be finite, got v1 = {self.v1}, v2 = {self.v2}")
        if np.linalg.norm(self.v1) >= C_AU or np.linalg.norm(self.v2) >= C_AU:
            raise DomainError("speeds must be below c")
        if not (math.isfinite(self.q_c) and self.q_c > 0):
            raise DomainError(f"cutoff momentum must be positive and finite, got {self.q_c}")
        if not math.isfinite(self.Z):
            raise DomainError(f"charge number must be finite, got {self.Z}")
        v1n = np.linalg.norm(self.v1)
        dv = np.linalg.norm(self.v2 - self.v1)
        if v1n > 0 and dv > 0.3 * v1n:
            warnings.warn(
                f"velocity jump |dv|/|v1| = {dv / v1n:.2f} exceeds 0.3; the "
                "small-jump expansion is unreliable",
                stacklevel=2,
            )

    @property
    def delta_v(self) -> np.ndarray:
        return self.v2 - self.v1

    @property
    def smallness(self) -> float:
        """The expansion parameter lambda = v1 . dv / v1^2."""
        v1sq = float(self.v1 @ self.v1)
        if v1sq == 0:
            return math.inf
        return float(self.v1 @ self.delta_v) / v1sq


def delta_shift(jump: VelocityJump) -> float:
    """Radiative energy shift that displaces the soft-photon poles: the mode
    sum up to the cutoff q_c,

        Z^2 q_c / (2 pi^2 c) int dOmega [n' x v1]^2 / (c - n'.v1),

    with the angular integral on the sphere rule _SHIFT_SPHERE."""
    v1 = jump.v1
    if np.allclose(v1, 0.0):
        return 0.0
    nvec, weights = sphere_rule(*_SHIFT_SPHERE)
    cross = float(np.dot(v1, v1)) - (nvec @ v1) * (nvec @ v1)
    ang = float(np.sum(weights * cross / (C_AU - nvec @ v1)))
    return jump.Z**2 * jump.q_c / (2.0 * math.pi**2 * C_AU) * ang


def delta_shift_closed_form(jump: VelocityJump) -> float:
    """Nonrelativistic closed form 4 Z^2 v1^2 q_c / (3 pi c^2)."""
    v1sq = float(jump.v1 @ jump.v1)
    return 4.0 * jump.Z**2 * v1sq * jump.q_c / (3.0 * math.pi * C_AU**2)


def _two_pole(ev2, ev1, qv2, qv1, omega, delta):
    """The two-pole bracket

        | e.v2/(omega - q.v2 + Delta) - e.v1/(omega - q.v1 + Delta) |^2

    from the projections ev = e.v and qv = q.v of both velocities, without
    the Z^2 g_q^2 / c^2 prefactor; the arguments broadcast."""
    return np.abs(ev2 / (omega - qv2 + delta) - ev1 / (omega - qv1 + delta)) ** 2


def soft_photon_number(
    jump: VelocityJump, mode: PhotonMode, delta_override: float | None = None
) -> float:
    """Infrared-finite per-mode photon number for the velocity jump:

        Z^2 g_q^2 / c^2 * | e.v2/(omega - q.v2 + Delta)
                            - e.v1/(omega - q.v1 + Delta) |^2

    Passing delta_override = 0 recovers the classical two-pole expression.
    """
    delta = delta_shift(jump) if delta_override is None else delta_override
    mdv = float(np.linalg.norm(jump.delta_v))
    if mdv > 0 and mode.omega > mdv * C_AU:
        warnings.warn(
            "soft_photon_number: omega above the soft regime m|dv|c",
            stacklevel=2,
        )
    v1, v2, e, q = jump.v1, jump.v2, mode.e_vec, mode.q
    bracket = _two_pole(e @ v2, e @ v1, q @ v2, q @ v1, mode.omega, delta)
    return jump.Z**2 * mode.g_squared / C_AU**2 * float(bracket)


def soft_spectral_density(
    jump: VelocityJump,
    omega: float | np.ndarray,
    delta_override: float | None = None,
) -> float | np.ndarray:
    """Photon count per unit frequency, integrated over directions and
    summed over polarizations:

        dN/domega = int dOmega sum_alpha q^2/((2 pi)^3 c) n_{alpha q}

    omega is a scalar (returns a float) or a 1-D array (returns an array of
    the same length); the sphere rule (_DENSITY_SPHERE) and the polarization
    pair are built once for all frequencies.
    """
    omegas = np.asarray(omega, dtype=float)
    if omegas.ndim > 1:
        raise DomainError("soft_spectral_density takes a scalar or a 1-D array of omega")
    if not np.all(omegas > 0):
        raise DomainError("soft_spectral_density requires omega > 0")
    delta = delta_shift(jump) if delta_override is None else delta_override
    nvec, weights = sphere_rule(*_DENSITY_SPHERE)
    # e.v for both polarizations on a leading axis of length 2
    pairs = np.stack(transverse_polarization_pairs(nvec))
    ev2, ev1 = pairs @ jump.v2, pairs @ jump.v1

    out = []
    for w in np.atleast_1d(omegas).tolist():
        qmag = w / C_AU
        qv = qmag * nvec
        g2 = 2.0 * math.pi * C_AU**2 / w
        total = _two_pole(ev2, ev1, qv @ jump.v2, qv @ jump.v1, w, delta).sum(axis=0)
        n_ang = jump.Z**2 * g2 / C_AU**2 * total
        dens = qmag**2 / ((2.0 * math.pi) ** 3 * C_AU)
        out.append(float(np.sum(weights * dens * n_ang)))
    return out[0] if omegas.ndim == 0 else np.array(out)


def total_soft_count(
    jump: VelocityJump,
    omega_min: float,
    omega_max: float | None = None,
    delta_override: float | None = None,
) -> float:
    """Integral of the spectral density from omega_min up to omega_max
    (default c q_c), by the trapezoid rule on a logarithmic frequency grid of
    24 nodes per decade (at least 16)."""
    if omega_max is None:
        omega_max = C_AU * jump.q_c
    if not (0 < omega_min < omega_max < math.inf):
        raise DomainError("need 0 < omega_min < omega_max < inf")
    m = max(16, int(_COUNT_PER_DECADE * math.log10(omega_max / omega_min)))
    grid = np.exp(np.linspace(math.log(omega_min), math.log(omega_max), m))
    delta = delta_shift(jump) if delta_override is None else delta_override
    vals = soft_spectral_density(jump, grid, delta_override=delta)
    return float(np.trapezoid(vals * grid, np.log(grid)))
