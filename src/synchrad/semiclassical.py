"""Photon modes and rates from the exact coherent-state solution for a
classical current: the photon mode and its polarization basis, the circular
orbit as a velocity law, the correlation-integral rate, the Schott
per-harmonic angular distribution, and radiated totals.

Motion is a velocity law: position(t) and velocity(t) on arrays of times and
breakpoints(t_end); its photon number |Q(t)|^2 in a mode is
corrections.corrected_photon_number(law, mode, t, Z).

Angle convention: theta is the polar angle measured from the magnetic-field
axis, so cos(Theta) = sin(theta) relative to the orbital-plane inclination
Theta used in the underlying per-harmonic distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.special

from .errors import DomainError, RangeError
from .numerics import gauss_nodes
from .units import C_AU, BeamParams

__all__ = [
    "CircularOrbit",
    "PhotonMode",
    "transverse_polarization_pairs",
    "rate_integrand",
    "schott_angular_rate",
    "schott_harmonic_rate",
    "spectral_sum",
    "total_power",
    "total_photon_rate",
    "momentum_loss_rate",
    "classical_power",
]

# Largest gamma at which the totals are tested against Lienard's power; above
# about 3e4, jv at the tail's harmonic orders is inaccurate and they go wrong.
# J_n and J_n' both come from jv at orders n -/+ 1 (DLMF 10.6.1), so the
# bound is set by jv alone.
TOTALS_GAMMA_MAX = 1e4


@dataclass(frozen=True)
class CircularOrbit:
    """Velocity law of a circular orbit of radius R in the xy plane, field
    along z, from t = 0; position and velocity take a time or an array of
    times and return shape (..., 3).  A photon momentum in the xz plane
    reproduces the standard period-averaged correlation integrand."""

    beam: BeamParams

    def position(self, t) -> np.ndarray:
        wt = self.beam.omega0 * np.asarray(t, dtype=float)
        return self.beam.R * np.stack([np.sin(wt), -np.cos(wt), np.zeros_like(wt)], axis=-1)

    def velocity(self, t) -> np.ndarray:
        wt = self.beam.omega0 * np.asarray(t, dtype=float)
        return self.beam.v0 * np.stack([np.cos(wt), np.sin(wt), np.zeros_like(wt)], axis=-1)

    def breakpoints(self, t_end: float):
        """Quadrature pieces: one per whole orbital period, then the rest."""
        period = 2.0 * math.pi / self.beam.omega0
        return [0.0, *np.arange(period, t_end, period).tolist(), t_end]


def transverse_polarization_pairs(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized transverse basis for unit directions n[..., 3]:
    e1 = z x n / |z x n| (x_hat where n lies along z) and e2 = n x e1."""
    e1 = np.cross(np.array([0.0, 0.0, 1.0]), n)
    norms = np.linalg.norm(e1, axis=-1, keepdims=True)
    polar = norms[..., 0] < 1e-14
    e1 = np.where(polar[..., None], np.array([1.0, 0.0, 0.0]), e1 / np.where(norms == 0, 1.0, norms))
    return e1, np.cross(n, e1)


def _photon_momentum(q) -> np.ndarray:
    """q as a float array; DomainError unless it is a finite, nonzero 3-vector."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3,) or not 0.0 < float(q @ q) < math.inf:
        raise DomainError(f"photon momentum must be a finite, nonzero 3-vector, got {q}")
    return q


@dataclass(frozen=True)
class PhotonMode:
    """Photon mode: polarization index (1 or 2) and momentum 3-vector."""

    alpha: int
    q: np.ndarray

    def __post_init__(self):
        if self.alpha not in (1, 2):
            raise DomainError(f"polarization index must be 1 or 2, got {self.alpha}")
        object.__setattr__(self, "q", _photon_momentum(self.q))

    @property
    def omega(self) -> float:
        return C_AU * float(np.linalg.norm(self.q))

    @property
    def g_squared(self) -> float:
        # g_q^2 = 2 pi c^2 / omega with unit normalization volume
        return 2.0 * math.pi * C_AU**2 / self.omega

    @property
    def e_vec(self) -> np.ndarray:
        return transverse_polarization_pairs(self.q / np.linalg.norm(self.q))[self.alpha - 1]


# ---------------------------------------------------------------------------
# Correlation-integral rate
# ---------------------------------------------------------------------------


def rate_integrand(law, q: np.ndarray, t: float, Z: float, tau):
    """Integrand of the polarization-summed rate correlation integral at lag
    tau, on a velocity law (position(t) and velocity(t) on arrays), with the
    shape of tau: a numpy complex for a scalar tau."""
    q = _photon_momentum(q)
    q2 = float(q @ q)
    omega = C_AU * math.sqrt(q2)
    tau = np.asarray(tau, dtype=float)
    a = t - np.abs(tau) / 2.0 + tau / 2.0
    b = t - np.abs(tau) / 2.0 - tau / 2.0
    va, vb = law.velocity(a), law.velocity(b)
    bracket = np.vecdot(va, vb) - np.vecdot(va, q) * np.vecdot(vb, q) / q2
    phase = omega * tau - np.vecdot(law.position(a) - law.position(b), q)
    g2 = 2.0 * math.pi * C_AU**2 / omega
    return (Z**2 / C_AU**2) * g2 * bracket * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# Schott per-harmonic distribution and totals
# ---------------------------------------------------------------------------


def _bessel_pair(n, x):
    """(J_n(x), J_n'(x)) from two Bessel calls, J_{n-1} and J_{n+1}, by DLMF
    10.6.1: J_n' = (J_{n-1} - J_{n+1}) / 2 is scipy's jvp(n, x, 1) bit for
    bit, and J_n = x (J_{n-1} + J_{n+1}) / (2n) adds two positive terms for
    0 < x < n, so it is as accurate as jv(n, x).  Needs n >= 1 and x > 0."""
    lo = scipy.special.jv(n - 1.0, x)
    hi = scipy.special.jv(n + 1.0, x)
    return x * (lo + hi) / (2.0 * n), (lo - hi) / 2.0


def _schott_bracket(n, u, s, s2, beta: float):
    """The Schott bracket cot^2(theta) J_n^2(x) + beta^2 J_n'^2(x) at
    x = n beta sin(theta), from u = cos(theta), s = sin(theta) and
    s2 = sin^2(theta); each caller rounds s and s2 its own way.  J_n and
    J_n' come from one _bessel_pair."""
    jn, jnp = _bessel_pair(n, n * beta * s)
    # products, not **: a numpy scalar's ** 2 calls pow, which can differ
    # from the array square in the last place
    return (u * u / s2) * (jn * jn) + beta**2 * (jnp * jnp)


def schott_angular_rate(n, theta, beam: BeamParams):
    """Photons per atomic time per steradian emitted into harmonic n at polar
    angle theta from the field axis:

        dN_n/(dt dOmega) = Z^2 n omega0 / (2 pi c)
                           * [cot^2(theta) J_n^2(n beta sin theta)
                              + beta^2 J_n'^2(n beta sin theta)]

    n and theta broadcast against each other; scalars give a float.  Each
    element equals the scalar call on it, bit for bit.
    """
    n, theta = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(theta, dtype=float))
    if np.any(n < 1):
        raise DomainError(f"harmonic must be >= 1, got {n.min():g}")
    pref = beam.Z**2 * n * beam.omega0 / (2.0 * math.pi * C_AU)
    s = np.sin(theta)
    # small-argument limit on the axis: only n = 1 survives, bracket -> beta^2 / 2
    axis = np.abs(s) < 1e-12
    s = np.where(axis, 1.0, s)
    bracket = _schott_bracket(n, np.cos(theta), s, s * s, beam.beta)
    rate = pref * np.where(axis, np.where(n == 1, beam.beta**2 / 2.0, 0.0), bracket)
    return float(rate) if rate.ndim == 0 else rate


_BLOCK = 16  # harmonics per Bessel evaluation: keeps the node arrays small


def _harmonic_grid(n_cap: int, n_exact: int, per_decade: int):
    """(n, weights, n_exact) for sums over harmonics 1..n_cap: the harmonics
    up to n_exact with unit weight, then the smooth tail on a log grid from
    n_exact + 1/2 to n_cap + 1/2 with trapezoid weights in log n, which keeps
    ultrarelativistic sums over ~gamma^3 harmonics tractable."""
    n_exact = min(n_exact, n_cap)
    exact = np.arange(1.0, n_exact + 1.0)
    if n_cap <= n_exact:
        return exact, np.ones(n_exact), n_exact
    lo, hi = n_exact + 0.5, n_cap + 0.5
    m = max(8, int(per_decade * math.log10(hi / lo)))
    tail = np.exp(np.linspace(math.log(lo), math.log(hi), m))
    h = math.log(hi / lo) / (m - 1)
    tw = np.full(m, h)
    tw[0] = tw[-1] = h / 2.0
    return np.concatenate([exact, tail]), np.concatenate([np.ones(n_exact), tw * tail]), n_exact


def _beaming_windows(n: np.ndarray, gamma: float, widths: float) -> np.ndarray:
    """Edge umax(n) = min(1, widths * sqrt(1/gamma^2 + (2/n)^(2/3))) in
    u = cos(theta) of a window of `widths` beaming widths about the orbital
    plane, one per harmonic in n."""
    # scalar math: numpy's ** can differ from it in the last place
    return np.array(
        [min(1.0, widths * math.sqrt(1.0 / gamma**2 + (2.0 / k) ** (2.0 / 3.0))) for k in n.tolist()]
    )


def _emission_blocks(
    n: np.ndarray, umax: np.ndarray, beam: BeamParams, n_theta: int, angle_below: float = 0.0
):
    """Yields (rows, u, wt, s, bracket) per block of up to _BLOCK harmonics
    n[rows]: the Schott bracket cot^2 J_n^2 + beta^2 J_n'^2 at n_theta Gauss
    nodes u = cos(theta) (weights wt, s = sin(theta)) over the window
    [0, umax] of each harmonic, one row per harmonic.  n may be continuous
    (the smooth spectral envelope); umax holds one window edge per harmonic,
    from _beaming_windows.  The window may cut only where J_n is negligible:
    by Kapteyn's inequality (DLMF 10.14.8) J_n(n z)^2 <= exp(-2n(atanh w - w))
    with w = sqrt(1 - z^2), z = beta sin(theta), and the bound falls as theta
    leaves the plane, so its value at the edge bounds the whole cut.

    Harmonics below angle_below take their Gauss nodes in the angle
    phi = pi/2 - theta from the orbital plane instead (u = sin(phi),
    wt = w_phi cos(phi)).  Near the axis the bracket goes as s^(2n-2), so an
    integrand with one more factor s has a branch point at u = 1 that Gauss
    nodes in u resolve only as n_theta^-(2n+1); in phi it is smooth."""
    for i in range(0, len(n), _BLOCK):
        nb = n[i : i + _BLOCK, None]
        edge = umax[i : i + _BLOCK, None]
        u, wt = gauss_nodes(0.0, edge, n_theta)
        angle = nb < angle_below
        if angle.any():
            phi, wphi = gauss_nodes(0.0, np.arcsin(edge), n_theta)
            u = np.where(angle, np.sin(phi), u)
            wt = np.where(angle, wphi * np.cos(phi), wt)
        s2 = 1.0 - u**2
        s = np.sqrt(s2)
        yield slice(i, i + len(nb)), u, wt, s, _schott_bracket(nb, u, s, s2, beam.beta)


@lru_cache(maxsize=8)
def _angular_integrals(beam: BeamParams, harmonics: bytes):
    """int_0^pi sin(theta) [cot^2 J_n^2 + beta^2 J_n'^2] dtheta, and the same
    with one more sin(theta) (the momentum moment), at each float64 harmonic
    packed in `harmonics`: two read-only arrays.  Keyed by value, so the
    totals of one beam share one Bessel pass.

    32 Gauss nodes per harmonic on the window min(4 beaming widths,
    10 sqrt(gamma/n)) of _emission_blocks.  At 4 widths the Kapteyn bound is
    below 1e-20 of every harmonic's integral for gamma in [1.01, 1e4]; the
    second edge binds only above n ~ 4 gamma^3, where the harmonic is a
    Gaussian in u of standard deviation sqrt(gamma/2n) and the edge lies
    e^-100 below its peak.  Harmonics below 8, whose window always reaches
    the axis, take their nodes in angle, for the momentum moment."""
    n = np.frombuffer(harmonics)
    umax = np.minimum(_beaming_windows(n, beam.gamma, 4.0), 10.0 * np.sqrt(beam.gamma / n))
    out = np.empty((2, len(n)))
    for rows, _, wt, s, bracket in _emission_blocks(n, umax, beam, 32, angle_below=8.0):
        # symmetric in u -> 2x half-range
        out[0, rows] = 2.0 * np.sum(wt * bracket, axis=1)
        out[1, rows] = 2.0 * np.sum(wt * (bracket * s), axis=1)
    out.setflags(write=False)
    return out


def schott_harmonic_rate(n: int, beam: BeamParams) -> float:
    """Photons per atomic time emitted into harmonic n, integrated over solid
    angle: 2 pi int_0^pi sin(theta) dN_n/(dt dOmega) dtheta.  Raises
    DomainError for n < 1, as schott_angular_rate does."""
    if not n >= 1:
        raise DomainError(f"harmonic must be >= 1, got {n:g}")
    if beam.beta == 0.0:
        return 0.0
    plain = _angular_integrals(beam, np.array([n], dtype=float).tobytes())[0]
    return beam.Z**2 * n * beam.omega0 / C_AU * float(plain[0])


def spectral_sum(
    per_n: Callable[[np.ndarray], np.ndarray],
    n_cap: int,
    n_exact: int = 512,
    per_decade: int = 48,
) -> float:
    """Sum per_n over harmonics n = 1..n_cap; per_n maps an array of
    harmonic numbers to the array of their terms and is called once.

    Harmonics up to n_exact are summed exactly; the smooth tail is converted
    to an integral on a log grid (midpoint-matched at n_exact + 1/2), see
    _harmonic_grid.
    """
    n, _, n_exact = _harmonic_grid(n_cap, n_exact, per_decade)
    terms = per_n(n)
    total = math.fsum(terms[:n_exact])
    if len(n) > n_exact:
        tail = n[n_exact:]
        total += float(np.trapezoid(terms[n_exact:] * tail, np.log(tail)))
    return total


def _default_cap(beam: BeamParams) -> int:
    return max(64, int(50 * beam.gamma**3))


def classical_power(beam: BeamParams) -> float:
    """Classical synchrotron power (2/3) Z^2 c beta^4 gamma^4 / R^2 (a.u.)."""
    return (2.0 / 3.0) * beam.Z**2 * C_AU * beam.beta**4 * beam.gamma**4 / beam.R**2


def _check_totals_range(beam: BeamParams) -> None:
    if beam.gamma > TOTALS_GAMMA_MAX:
        raise RangeError(
            f"gamma = {beam.gamma:g} is above {TOTALS_GAMMA_MAX:g}, where the "
            f"radiated totals are no longer accurate"
        )


def total_power(beam: BeamParams) -> float:
    """Radiated power: sum over harmonics of n omega0 times the harmonic rate.
    Raises RangeError above TOTALS_GAMMA_MAX, as do the other totals."""
    _check_totals_range(beam)
    if beam.beta == 0.0:
        return 0.0
    pref = beam.Z**2 * beam.omega0**2 / C_AU
    return spectral_sum(
        lambda n: pref * n * n * _angular_integrals(beam, n.tobytes())[0], _default_cap(beam)
    )


def total_photon_rate(beam: BeamParams) -> float:
    """Total photons per atomic time, summed over harmonics."""
    _check_totals_range(beam)
    if beam.beta == 0.0:
        return 0.0
    pref = beam.Z**2 * beam.omega0 / C_AU
    return spectral_sum(
        lambda n: pref * n * _angular_integrals(beam, n.tobytes())[0], _default_cap(beam)
    )


def momentum_loss_rate(beam: BeamParams) -> np.ndarray:
    """Period-averaged momentum radiated per atomic time, in the co-rotating
    basis (longitudinal along the instantaneous velocity, radial, field axis).

    The radial and axial components vanish by the symmetry of the averaged
    circular-orbit distribution; the longitudinal component approaches
    total_power/c as beta -> 1 (forward beaming).
    """
    _check_totals_range(beam)
    if beam.beta == 0.0:
        return np.zeros(3)
    pref = beam.Z**2 * beam.omega0**2 / C_AU**2
    longitudinal = spectral_sum(
        lambda n: pref * n * n * _angular_integrals(beam, n.tobytes())[1],
        _default_cap(beam),
    )
    return np.array([-longitudinal, 0.0, 0.0])

