"""Photon modes and rates from the exact coherent-state solution for a
classical current: the photon mode and its polarization basis, the circular
orbit as a velocity law, the correlation-integral rate, the Schott
per-harmonic angular distribution, and the two emission tables built on it.

Both tables take their harmonics from one grid builder, _harmonic_grid, and
the bracket from one array pass over all of them, _emission: the radiated
totals' angular integrals (_angular_integrals) and the decoherence
exponent's mode table (_mode_table), which decoherence sums over separations.

The radiated totals sum the angle-integrated Schott bracket over harmonics.
The unit-weight harmonics 1..512 take it from Schott's closed form (Schott
1912; Jackson sec. 14.6) with Miller's backward recurrence (DLMF 3.6(vi),
10.22.6), one jv element each.  The tail, 513..50 gamma^3, is an integral
over n on 6-point Gauss-Legendre panels of half a decade in log n, and each
of its nodes takes the bracket from a 32-node angular rule: two jv elements
per angular node below harmonic 1e6, and one airy element (Olver's uniform
expansion, DLMF 10.20) at and above it.  Power and photon rate of one beam
share one pass: 2,048 jv elements at gamma = 10, and 3,008 jv and 2,976
airy elements at gamma = 1e4.  Every gamma^-2 the bracket and the closed
form use is BeamParams.gamma_m2, taken from gamma, so the totals take one
path for every accepted gamma and agree with Lienard's power to 1.1e-7 over
[1.01, 1e12] (3.9e-9 from gamma = 10 up).

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

from .errors import ConvergenceError, DomainError, RangeError
from .numerics import _atanh_minus_identity, _log_panels, gauss_nodes, log_trapezoid
from .units import C_AU, BeamParams

__all__ = [
    "CircularOrbit",
    "PhotonMode",
    "transverse_polarization_pairs",
    "rate_integrand",
    "schott_angular_rate",
    "spectral_sum",
    "total_power",
    "total_photon_rate",
    "classical_power",
]


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
        # not a field: eq, hash and repr see alpha and q only
        e = transverse_polarization_pairs(self.q / math.hypot(*self.q))[self.alpha - 1]
        e.setflags(write=False)
        object.__setattr__(self, "_e_vec", e)

    @property
    def omega(self) -> float:
        return C_AU * math.hypot(*self.q)

    @property
    def g_squared(self) -> float:
        # g_q^2 = 2 pi c^2 / omega with unit normalization volume
        return 2.0 * math.pi * C_AU**2 / self.omega

    @property
    def e_vec(self) -> np.ndarray:
        """The polarization vector, read-only, formed once at construction."""
        return self._e_vec


# ---------------------------------------------------------------------------
# Correlation-integral rate
# ---------------------------------------------------------------------------


def rate_integrand(law, q: np.ndarray, t: float, Z: float, tau):
    """Integrand of the polarization-summed rate correlation integral at lag
    tau, on a velocity law (position(t) and velocity(t) on arrays), with the
    shape of tau: a numpy complex for a scalar tau."""
    q = _photon_momentum(q)
    q2 = math.fsum((q * q).tolist())
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


# Harmonics at and above which J_n and J_n' come from Olver's expansion
# (_olver_pair) rather than from jv: there the expansion's leading terms are
# within 1.3e-10 (J_n) and 7e-15 (J_n') of the peak values, while jv at
# large orders carries noise that the difference for J_n' amplifies.
_OLVER_N = 1e6


def _olver_pair(n, w, z):
    """(J_n(n z), J_n'(n z)) from the leading terms of Olver's uniform
    expansion (Olver 1954; DLMF 10.20.4, 10.20.7, 10.20.11), with
    w = sqrt(1 - z^2) in (0, 1) passed in so that callers can form it
    without cancellation:

        J_n  ~ phi Ai(n^(2/3) zeta) / n^(1/3)
        J_n' ~ -(2/z) phi^-1 [Ai'(n^(2/3) zeta) / n^(2/3)
                              + C_0(zeta) Ai(n^(2/3) zeta) / n^(4/3)]

    where (2/3) zeta^(3/2) = atanh w - w, phi = (4 zeta / w^2)^(1/4) and
    C_0 = 7/(48 zeta) + zeta^(1/2) (3/(8 w) - 7/(24 w^3)).  The dropped terms
    are of relative order n^(-4/3) in J_n and n^(-2) in J_n'."""
    zeta = np.cbrt(np.square(1.5 * _atanh_minus_identity(w)))
    c = np.cbrt(n)
    # Ai and Ai' underflow to 0 from 104 on; airy returns NaN for large arguments
    ai, aip, _, _ = scipy.special.airy(np.minimum(c * c * zeta, 200.0))
    phi = np.sqrt(np.sqrt(4.0 * zeta / (w * w)))
    c0 = 7.0 / (48.0 * zeta) + np.sqrt(zeta) * (3.0 / (8.0 * w) - 7.0 / (24.0 * (w * w * w)))
    return phi * ai / c, -(2.0 / z) / phi * (aip / (c * c) + c0 * ai / (n * c))


def _schott_bracket(n, u, s, s2, beam: BeamParams):
    """The Schott bracket cot^2(theta) J_n^2(x) + beta^2 J_n'^2(x) at
    x = n beta sin(theta), from u = cos(theta), s = sin(theta) and
    s2 = sin^2(theta); each caller rounds s and s2 its own way.  J_n and
    J_n' come from one _bessel_pair below harmonic _OLVER_N and from
    _olver_pair at and above it, element by element, with
    w^2 = 1 - beta^2 sin^2(theta) = gamma^-2 + beta^2 u^2.
    Where w rounds to 1 (beta sin(theta) below about 1e-8) the pair takes
    over again: there J_n(x) is far below the smallest double."""
    n, u, s, s2 = np.broadcast_arrays(n, u, s, s2)
    beta = beam.beta
    w = np.sqrt(beam.gamma_m2 + beta**2 * (u * u))
    olver = (n >= _OLVER_N) & (w < 1.0)
    jn, jnp = np.empty(n.shape), np.empty(n.shape)
    pair = ~olver
    jn[pair], jnp[pair] = _bessel_pair(n[pair], n[pair] * beta * s[pair])
    if olver.any():  # an empty _olver_pair still costs its 29-term series
        jn[olver], jnp[olver] = _olver_pair(n[olver], w[olver], beta * s[olver])
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
    element equals the scalar call on it, bit for bit.  DomainError unless
    every n is finite and >= 1 and every theta is finite.
    """
    n, theta = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(theta, dtype=float))
    bad = ~((n >= 1) & (n < math.inf) & np.isfinite(theta))
    if bad.any():
        n0, theta0 = n[bad][0], theta[bad][0]
        raise DomainError(f"need finite n >= 1 and finite theta, got n = {n0:g}, theta = {theta0:g}")
    pref = beam.Z**2 * n * beam.omega0 / (2.0 * math.pi * C_AU)
    s = np.sin(theta)
    # small-argument limit on the axis: only n = 1 survives, bracket -> beta^2 / 2
    axis = np.abs(s) < 1e-12
    s = np.where(axis, 1.0, s)
    bracket = _schott_bracket(n, np.cos(theta), s, s * s, beam)
    rate = pref * np.where(axis, np.where(n == 1, beam.beta**2 / 2.0, 0.0), bracket)
    return float(rate) if rate.ndim == 0 else rate


def _harmonic_grid(n_cap: int, n_exact: int, tail: Callable):
    """(n, weights, n_exact) for a sum over harmonics 1..n_cap: the harmonics
    up to n_exact with unit weight, then the smooth tail as an integral over
    n from n_exact + 1/2 to n_cap + 1/2 (the sum-to-integral midpoint match)
    on the rule tail(lo, hi) -> (nodes, weights).  spectral_sum's rule is
    6-point Gauss-Legendre panels of half a decade in log n (_log_panels),
    _mode_table's the trapezoid rule in log n (log_trapezoid)."""
    n_exact = min(n_exact, n_cap)
    exact = np.arange(1.0, n_exact + 1.0)
    if n_cap <= n_exact:
        return exact, np.ones(n_exact), n_exact
    nodes, weights = tail(n_exact + 0.5, n_cap + 0.5)
    return np.concatenate([exact, nodes]), np.concatenate([np.ones(n_exact), weights]), n_exact


def _beaming_windows(n: np.ndarray, beam: BeamParams, widths: float) -> np.ndarray:
    """Edge umax(n) = min(1, widths * sqrt(1/gamma^2 + (2/n)^(2/3))) in
    u = cos(theta) of a window of `widths` beaming widths about the orbital
    plane, one per harmonic in n."""
    # scalar math: numpy's ** can differ from it in the last place
    g2 = beam.gamma_m2
    return np.array(
        [min(1.0, widths * math.sqrt(g2 + (2.0 / k) ** (2.0 / 3.0))) for k in n.tolist()]
    )


def _emission(n: np.ndarray, umax: np.ndarray, beam: BeamParams, n_theta: int):
    """(u, wt, s, bracket), one row per harmonic in n (continuous n is the
    smooth spectral envelope): the Schott bracket cot^2 J_n^2 + beta^2 J_n'^2
    at n_theta Gauss nodes u = cos(theta), weights wt, s = sin(theta), over
    the window [0, umax] of each harmonic, from one gauss_nodes call and one
    _schott_bracket call.  The window may cut only where J_n is negligible:
    by Kapteyn's inequality (DLMF 10.14.8) J_n(n z)^2 <= exp(-2n(atanh w - w))
    with w = sqrt(1 - z^2), z = beta sin(theta), and the bound falls as theta
    leaves the plane, so its value at the edge bounds the whole cut."""
    u, wt = gauss_nodes(0.0, umax[:, None], n_theta)
    s2 = 1.0 - u**2
    s = np.sqrt(s2)
    return u, wt, s, _schott_bracket(n[:, None], u, s, s2, beam)


@lru_cache(maxsize=8)
def _angular_integrals(beam: BeamParams, harmonics: bytes):
    """int_0^pi sin(theta) [cot^2 J_n^2 + beta^2 J_n'^2] dtheta at each
    float64 harmonic packed in `harmonics`, from an angular rule: a read-only
    array.  The totals take it on the tail's panel nodes (the exact
    harmonics use _schott_closed_form).  Keyed by value, so the totals of one
    beam share one Bessel pass.

    32 Gauss nodes per harmonic on the window min(4 beaming widths,
    10 sqrt(gamma/n)) of _emission, two jv elements per node below
    _OLVER_N and one airy element at and above it.  At 4
    widths the Kapteyn bound is below 1e-20 of every harmonic's integral for
    gamma in [1.01, 1e4].  Above that the bound, which drops the n^(-2/3)
    Airy prefactor, no longer certifies the window, but the bracket
    integrated beyond the edge is at most 1.1e-38 of each harmonic's
    integral up to gamma = 1e12.  The second edge binds only above
    n ~ 4 gamma^3, where the harmonic is a Gaussian in u of standard
    deviation sqrt(gamma/2n) and the edge lies e^-100 below its peak."""
    n = np.frombuffer(harmonics)
    umax = np.minimum(_beaming_windows(n, beam, 4.0), 10.0 * np.sqrt(beam.gamma / n))
    _, wt, _, bracket = _emission(n, umax, beam, 32)
    out = 2.0 * np.sum(wt * bracket, axis=1)  # symmetric in u -> 2x half-range
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _mode_table(beam: BeamParams, n_exact: int, per_decade: int, n_theta: int):
    """The decoherence exponent's emission table: read-only flattened
    (k, sin theta, cos theta, weight) arrays whose weights sum to the total
    photon rate.  Harmonics up to n_exact enter with unit weight, the tail up
    to 50 gamma^3 by the trapezoid rule in log n, per_decade nodes a decade;
    n_theta Gauss nodes in cos theta span 8 beaming widths (_beaming_windows),
    and the weights fold in the lower-hemisphere mirror.

    The trapezoid, not the totals' panels: on FIAN_60 the 6-point half-decade
    panels (12 nodes per decade) alias the J0 and cos factors of the
    exponent, and put S 3-6 times further from a 3,200-per-decade reference
    (transverse 3.8e-3 -> 2.2e-2 of the rate, longitudinal
    1.8e-2 -> 4.4e-2) than the trapezoid does."""
    rule = lambda lo, hi: log_trapezoid(lo, hi, per_decade, 8)
    n, wn, _ = _harmonic_grid(_default_cap(beam), n_exact, rule)
    u, wt, s, bracket = _emission(n, _beaming_windows(n, beam, 8.0), beam, n_theta)
    pref = beam.Z**2 * beam.omega0 / C_AU
    k = np.repeat(n * beam.omega0 / C_AU, n_theta)
    W = 2.0 * pref * n[:, None] * wn[:, None] * wt * bracket  # 2: the mirror
    out = (k, s.ravel(), u.ravel(), W.ravel())
    for arr in out:
        arr.setflags(write=False)
    return out


# Relative error allowed in the backward recurrence of _schott_closed_form,
# dropped terms and start error together, and the most terms it may take.
_MILLER_TOL = 1e-16
_MILLER_MAX_TERMS = 10_000
# Candidate term counts per array pass of _miller_terms.  On harmonics 1..512
# the count rises with beta to 68 (37 at gamma = 2, 65 at 10): five passes of
# 16 take about 70% of the time of a loop over the count, and keep each
# temporary at 16 x 512 doubles (80 in one pass raised the peak RSS by 2 MB).
_MILLER_CHUNK = 16


def _miller_terms(x: np.ndarray, a: np.ndarray) -> int:
    """Fewest terms L for which Miller's recurrence started at order
    M = a + 2(L - 1) gives S = sum_k J_{a+2k}(x) to _MILLER_TOL relative at
    every element; needs a > x > 0.  Raises ConvergenceError if
    _MILLER_MAX_TERMS do not suffice.

    For nu >= x the ratio J_nu(x)/J_{nu-1}(x) is at most
    rho_nu = x / (nu + sqrt(nu^2 - x^2)), the fixed point of its continued
    fraction J_nu/J_{nu-1} = x / (2 nu - x J_{nu+1}/J_nu) (DLMF 10.6.1), and
    rho_nu falls as nu grows.  So J_M/J_a <= B = prod_{nu=a+1}^M rho_nu (the
    Kapteyn-type decay: log B <= -int_a^M atanh sqrt(1 - x^2/nu^2) dnu), and
    with q = rho_{M+1} rho_{M+2} the dropped terms are at most B q/(1 - q)
    of J_a <= S.  Starting at J_{M+1} = 0 leaves each computed ratio
    J_k/J_{k-1} low by a relative delta_k <= rho_k rho_{k+1} delta_{k+1},
    delta_{M+1} = 1, which puts at most B L (L - 1) on the kept terms.  The
    bound is B (L (L - 1) + q/(1 - q)).

    The bound is taken for _MILLER_CHUNK candidate L at once; log B is a
    running sum along them that adds in the order of a loop over L."""
    rho = lambda nu: x / (nu + np.sqrt((nu - x) * (nu + x)))
    log_b = np.zeros_like(x)
    for first in range(1, _MILLER_MAX_TERMS + 1, _MILLER_CHUNK):
        terms = np.arange(first, min(first + _MILLER_CHUNK, _MILLER_MAX_TERMS + 1.0))[:, None]
        # q at L terms: rho at the two orders above the start a + 2(L - 1)
        top = a + 2.0 * (terms - 1.0)
        q = rho(top + 1.0) * rho(top + 2.0)
        log_b = np.cumsum(np.vstack([log_b[None], np.log(q)]), axis=0)
        log_bound = log_b[:-1] + np.log(terms * (terms - 1.0) + q / (1.0 - q))
        done = np.all(log_bound <= math.log(_MILLER_TOL), axis=1)
        if done.any():
            return first + int(np.argmax(done))
        log_b = log_b[-1]
    raise ConvergenceError(
        f"backward recurrence not certified to {_MILLER_TOL:g} in {_MILLER_MAX_TERMS} terms",
        error_estimate=float(np.exp(log_bound[-1].max())),
    )


@lru_cache(maxsize=8)
def _schott_closed_form(beam: BeamParams, harmonics: bytes):
    """int_0^pi sin(theta) [cot^2 J_n^2 + beta^2 J_n'^2] dtheta at each
    integer harmonic n packed in `harmonics`, from Schott's closed form
    (Schott 1912; Jackson, Classical Electrodynamics, sec. 14.6) at
    x = 2 n beta:

        [2 beta^2 J_2n'(x) - gamma^-2 int_0^x J_2n(t) dt] / (n beta)

    A read-only array, keyed by value like _angular_integrals.  One jv
    element per harmonic, J_{2n+1}(x); the rest are ratios to it from
    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}
    (DLMF 3.6(vi), 10.6.1), vectorized over harmonics, stable at the orders
    above x and certified by _miller_terms:
    int_0^x J_2n = 2 sum_k J_{2n+2k+1}(x) (DLMF 10.22.6) from its odd orders,
    and 2 J_2n' = J_{2n-1} - J_{2n+1} two steps below.  A second jv call
    for J_{2n-1} would add its own error, up to 1.5e-13 at orders near 1000,
    to a difference that cancels as beta -> 1."""
    n = np.frombuffer(harmonics)
    if np.any(n > 2.0**50):
        raise RangeError(f"harmonic {n.max():g} is too large for distinct orders 2n -/+ 1")
    beta = beam.beta
    x = 2.0 * n * beta
    a = 2.0 * n + 1.0
    steps = 2 * (_miller_terms(x, a) - 1)
    # f, hi: unnormalized J_k, J_{k+1} from k = a + steps down to k = a;
    # total: their sum over k = a, a + 2, ...
    hi, f, total = np.zeros_like(x), np.ones_like(x), np.ones_like(x)
    two_over_x = 2.0 / x
    for i in range(steps, 0, -1):
        hi, f = f, (a + i) * two_over_x * f - hi
        if i % 2:
            total += f
        big = f > 1e150  # far from overflow: one step grows f by at most 2k/x
        if big.any():
            scale = np.where(big, 1.0 / f, 1.0)
            hi, f, total = hi * scale, f * scale, total * scale
    below = a * two_over_x * f - hi
    lowest = (a - 1.0) * two_over_x * below - f
    bracket = beta**2 * (lowest - f) - 2.0 * beam.gamma_m2 * total
    out = scipy.special.jv(a, x) * bracket / (f * (n * beta))
    out.setflags(write=False)
    return out


_N_EXACT = 512  # harmonics summed one by one, with unit weight


def spectral_sum(per_n: Callable[[np.ndarray], np.ndarray], n_cap: int) -> float:
    """Sum per_n over harmonics n = 1..n_cap; per_n maps an array of
    harmonic numbers to the array of their terms and is called once.

    Harmonics up to 512 (_N_EXACT) are summed exactly; the smooth tail is an
    integral on Gauss-Legendre panels in log n, see _harmonic_grid.  Both
    parts are math.fsum sums, so no BLAS kernel's summation order enters.
    """
    n, weights, n_exact = _harmonic_grid(n_cap, _N_EXACT, lambda lo, hi: _log_panels(lo, hi, 2))
    terms = per_n(n)
    return math.fsum(terms[:n_exact]) + math.fsum(terms[n_exact:] * weights[n_exact:])


def _default_cap(beam: BeamParams) -> int:
    return max(64, int(50 * beam.gamma**3))


def _grid_integrals(beam: BeamParams, n: np.ndarray) -> np.ndarray:
    """The angular integral of the Schott bracket on the totals' harmonic
    grid n from spectral_sum: Schott's closed form on the unit-weight
    harmonics at its head, the angular rule on the tail."""
    k = min(_N_EXACT, len(n))
    return np.concatenate(
        [_schott_closed_form(beam, n[:k].tobytes()), _angular_integrals(beam, n[k:].tobytes())]
    )


def classical_power(beam: BeamParams) -> float:
    """Classical synchrotron power (2/3) Z^2 c beta^4 gamma^4 / R^2 (a.u.)."""
    return (2.0 / 3.0) * beam.Z**2 * C_AU * beam.beta**4 * beam.gamma**4 / beam.R**2


def total_power(beam: BeamParams) -> float:
    """Radiated power: sum over harmonics of n omega0 times the harmonic rate."""
    if beam.beta == 0.0:
        return 0.0
    pref = beam.Z**2 * beam.omega0**2 / C_AU
    return spectral_sum(lambda n: pref * n * n * _grid_integrals(beam, n), _default_cap(beam))


def total_photon_rate(beam: BeamParams) -> float:
    """Total photons per atomic time, summed over harmonics."""
    if beam.beta == 0.0:
        return 0.0
    pref = beam.Z**2 * beam.omega0 / C_AU
    return spectral_sum(lambda n: pref * n * _grid_integrals(beam, n), _default_cap(beam))

