"""Velocity-jump emitter: the radiative level shift that regularizes the
infrared divergence, and the resulting soft-photon spectra.

The integrals over photon directions are in closed form, exact at every
speed below c; 3-vector products are math.fsum sums, which round alike on
every CPU.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .numerics import _atanh_minus_identity, _log_panels
from .units import C_AU

if TYPE_CHECKING:
    from .semiclassical import PhotonMode

__all__ = [
    "VelocityJump",
    "delta_shift",
    "delta_shift_closed_form",
    "soft_photon_number",
    "soft_spectral_density",
    "total_soft_count",
]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return math.fsum((a * b).tolist())


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
        v1n, v2n = math.hypot(*self.v1), math.hypot(*self.v2)
        # soft_spectral_density's 1 - |b_i|^2 is (c - |v_i| s)(c + |v_i| s) / c^2
        # with 0 < s <= 1, so speeds below c by this measure keep it positive
        if not (v1n < C_AU and v2n < C_AU):  # NaN and inf included
            raise DomainError(f"speeds must be finite and below c, got {self.v1}, {self.v2}")
        if not (math.isfinite(self.q_c) and self.q_c > 0):
            raise DomainError(f"cutoff momentum must be positive and finite, got {self.q_c}")
        if not math.isfinite(self.Z):
            raise DomainError(f"charge number must be finite, got {self.Z}")
        dv = math.hypot(*self.delta_v)
        if v1n > 0 and dv > 0.3 * v1n:
            msg = f"velocity jump |dv|/|v1| = {dv / v1n:.2f} exceeds 0.3"
            warnings.warn(f"{msg}; the small-jump expansion is unreliable", stacklevel=2)

    @property
    def delta_v(self) -> np.ndarray:
        return self.v2 - self.v1

    @property
    def smallness(self) -> float:
        """The expansion parameter lambda = v1 . dv / v1^2."""
        v1sq = _dot(self.v1, self.v1)
        return _dot(self.v1, self.delta_v) / v1sq if v1sq else math.inf


def delta_shift(jump: VelocityJump) -> float:
    """Radiative energy shift that displaces the soft-photon poles: the mode
    sum up to the cutoff q_c,

        Z^2 q_c / (2 pi^2 c) int dOmega [n' x v1]^2 / (c - n'.v1)
          = (Z^2 q_c / pi) 2 [beta^2 atanh(beta) - (atanh(beta) - beta)] / beta

    with beta = |v1| / c; the bracket, as beta^3 - (1 - beta^2)(atanh(beta)
    - beta), cancels neither at small beta nor as beta -> 1."""
    beta = math.hypot(*jump.v1) / C_AU
    bracket = beta**3 - (1.0 - beta) * (1.0 + beta) * float(_atanh_minus_identity(beta))
    return jump.Z**2 * jump.q_c / math.pi * 2.0 * bracket / beta if beta > 0 else 0.0


def delta_shift_closed_form(jump: VelocityJump) -> float:
    """Nonrelativistic closed form 4 Z^2 v1^2 q_c / (3 pi c^2)."""
    v1sq = _dot(jump.v1, jump.v1)
    return 4.0 * jump.Z**2 * v1sq * jump.q_c / (3.0 * math.pi * C_AU**2)


def soft_photon_number(
    jump: VelocityJump, mode: PhotonMode, delta_override: float | None = None
) -> float:
    """Infrared-finite per-mode photon number for the velocity jump:

        Z^2 g_q^2 / c^2 * | e.v2/(omega - q.v2 + Delta)
                            - e.v1/(omega - q.v1 + Delta) |^2

    The amplitude is formed over one denominator, (D1 e.dv + e.v1 q.dv) /
    (D1 D2) with D_i = omega - q.v_i + Delta and dv = v2 - v1, so the two
    near-equal pole terms of a small jump never cancel.  Passing
    delta_override = 0 recovers the classical two-pole expression.
    """
    delta = delta_shift(jump) if delta_override is None else delta_override
    mdv = math.hypot(*jump.delta_v)
    if mdv > 0 and mode.omega > mdv * C_AU:
        warnings.warn("soft_photon_number: omega above the soft regime m|dv|c", stacklevel=2)
    v1, v2, dv, e, q, omega = jump.v1, jump.v2, jump.delta_v, mode.e_vec, mode.q, mode.omega
    d1, d2 = omega - _dot(q, v1) + delta, omega - _dot(q, v2) + delta
    amp = (d1 * _dot(e, dv) + _dot(e, v1) * _dot(q, dv)) / (d1 * d2)
    return jump.Z**2 * mode.g_squared / C_AU**2 * amp**2


def soft_spectral_density(
    jump: VelocityJump,
    omega: float | np.ndarray,
    delta_override: float | None = None,
) -> float | np.ndarray:
    """Photon count per unit frequency, integrated over directions and
    summed over polarizations, in closed form:

        dN/domega = int dOmega sum_alpha q^2/((2 pi)^3 c) n_{alpha q}
                  = 2 Z^2 (eta / beta_rel - 1) / (pi c omega)

    Both poles are (omega + Delta)(1 - n.b_i) with b_i = (v_i / c) omega /
    (omega + Delta), so this is Weinberg's soft factor (Weinberg 1965, Phys.
    Rev. 140, B516; Jackson sec. 15.2) at b1, b2: eta = atanh(beta_rel) is
    their relative rapidity, and beta_rel^2 = (|db|^2 (1 - |b1|^2) +
    (b1.db)^2) / (1 - |b1|^2 - b1.db)^2 with db = b2 - b1 does not cancel
    for small jumps.  Above beta_rel = 1/2, eta = asinh(gamma_rel beta_rel),
    finite where beta_rel rounds to 1.  omega is a scalar (returns a float)
    or a 1-D array (returns an array); Delta must be finite and >= 0.
    """
    omegas = np.asarray(omega, dtype=float)
    if omegas.ndim > 1 or not np.all((omegas > 0) & (omegas < math.inf)):
        raise DomainError("soft_spectral_density takes a scalar or a 1-D array of 0 < omega < inf")
    delta = delta_shift(jump) if delta_override is None else delta_override
    if not 0.0 <= delta < math.inf:
        raise DomainError(f"the level shift must be finite and >= 0, got {delta}")
    w = np.atleast_1d(omegas)
    s = w / (w + delta)  # b_i = (v_i / c) s
    speeds = (math.hypot(*jump.v1) * s, math.hypot(*jump.v2) * s)
    u1, u2 = ((C_AU - x) * (C_AU + x) / C_AU**2 for x in speeds)  # 1 - |b_i|^2
    s2 = s * s / C_AU**2
    b1_db = _dot(jump.v1, jump.delta_v) * s2
    num = _dot(jump.delta_v, jump.delta_v) * s2 * u1 + b1_db * b1_db
    beta_rel = np.sqrt(num) / (u1 - b1_db)
    # each branch of eta / beta_rel - 1 sees arguments it takes without a warning
    small = np.minimum(beta_rel, 0.5)
    excess = np.where(
        beta_rel < 0.5,
        _atanh_minus_identity(small) / np.where(small > 0, small, 1.0),
        np.arcsinh(np.sqrt(num / (u1 * u2))) / np.maximum(beta_rel, 0.5) - 1.0,
    )
    dens = 2.0 * jump.Z**2 * excess / (math.pi * C_AU * w)
    return float(dens[0]) if omegas.ndim == 0 else dens


def total_soft_count(
    jump: VelocityJump,
    omega_min: float,
    omega_max: float | None = None,
    delta_override: float | None = None,
) -> float:
    """Integral of the spectral density from omega_min up to omega_max
    (default c q_c), on 6-point Gauss-Legendre panels of a quarter decade in
    log omega: numerics._log_panels, the radiated totals' panel rule."""
    if omega_max is None:
        omega_max = C_AU * jump.q_c
    if not (0 < omega_min < omega_max < math.inf):
        raise DomainError("need 0 < omega_min < omega_max < inf")
    omega, weights = _log_panels(omega_min, omega_max, 4)
    return math.fsum((soft_spectral_density(jump, omega, delta_override) * weights).tolist())
