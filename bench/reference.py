"""Reference values the benchmark checks the program's outputs against.

Every formula here is written out from the physics, not taken from synchrad:
this module imports nothing from the program.  Units are Hartree atomic units
(hbar = |e| = m_e = 1), the same as the program's.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

C_AU = 137.035999  # speed of light
BOHR_PER_METER = 1.8897261e10
ELECTRON_REST_GEV = 0.00051099895


def beta_of(gamma: float) -> float:
    return math.sqrt(1.0 - 1.0 / gamma**2)


def lienard_power(Z: float, gamma: float, R: float) -> float:
    """Power radiated on a circular orbit, (2/3) Z^2 c beta^4 gamma^4 / R^2."""
    return (2.0 / 3.0) * Z**2 * C_AU * beta_of(gamma) ** 4 * gamma**4 / R**2


def photon_rate_ultrarel(Z: float, gamma: float, R: float) -> float:
    """Ultrarelativistic photon emission rate 5 Z^2 gamma / (2 sqrt(3) R):
    the synchrotron spectrum integrated over frequency, using
    int_0^inf t K_{5/3}(t) dt = 5 pi / 3."""
    return 5.0 * Z**2 * gamma / (2.0 * math.sqrt(3.0) * R)


def packet_closed_forms(gamma: float, R: float) -> dict:
    """Mean Landau level n1 = gamma beta c R / 2 of a beam on radius R, and the
    packet widths Delta_rho = R / sqrt(n1), arc = R / sqrt(2 n1) in meters.

    n1 follows from (gamma^2 - 1) c^2 = 4 omega_L n1 with the Larmor frequency
    omega_L = gamma beta c / (2 R) of the field that holds the orbit."""
    n1 = gamma * beta_of(gamma) * C_AU * R / 2.0
    drho = R / math.sqrt(n1)
    return {
        "n1_mean": n1,
        "drho_m": drho / BOHR_PER_METER,
        "arc_m": drho / math.sqrt(2.0) / BOHR_PER_METER,
    }


def diffusion_constant(Z: float, gamma: float, R: float, axis: str) -> float:
    """Coefficient c of the small-separation law S = c t r^2.

    Transverse: c = (1/4) <k^2> over the emitted photons, which Sands'
    quantum-excitation integral gives as (55 / (96 sqrt 3)) Z^2 beta^2
    gamma^7 / R^3.  Longitudinal: c = (1/2) <k^2 psi^2> with the
    energy-squared-weighted mean square opening angle <psi^2> = 13 / (55
    gamma^2), so c_par = 26 / (55 gamma^2) c_perp."""
    c_perp = 55.0 / (96.0 * math.sqrt(3.0)) * Z**2 * beta_of(gamma) ** 2 * gamma**7 / R**3
    if axis == "transverse":
        return c_perp
    if axis == "longitudinal":
        return 26.0 / (55.0 * gamma**2) * c_perp
    raise ValueError(f"unknown axis {axis!r}")


def gaussian_width(t: float, Z: float, gamma: float, R: float, axis: str) -> float:
    """Packet width (8 t c)^-1/2 for the Gaussian kernel exp(-c t r^2): its
    Fourier square root is a Gaussian whose square has variance 1 / (8 c t)."""
    return 1.0 / math.sqrt(8.0 * t * diffusion_constant(Z, gamma, R, axis))


def gaussian_regime_limit(gamma: float, R: float, axis: str) -> float:
    """Largest width for which the quadratic law holds: a twentieth of the
    reduced critical wavelength R / gamma^3 (transverse) or of the formation
    length R / gamma^2 (longitudinal)."""
    return 0.05 * R / (gamma**3 if axis == "transverse" else gamma**2)


def s_upper_bound(t: float, Z: float, gamma: float, R: float) -> float:
    """Upper bound on S(r, t): t times the photon rate, which sits below the
    ultrarelativistic rate by about 1/gamma; 2/gamma leaves room for that."""
    return t * photon_rate_ultrarel(Z, gamma, R) * (1.0 + 2.0 / gamma)


def jump_photon_number(v1, v2, t_jump: float, t_end: float, q, Z: float = 1.0) -> float:
    """Semiclassical photon number in mode q, summed over both polarizations,
    for velocity v1 on [0, t_jump] and v2 on [t_jump, t_end]:

        N = (Z/c)^2 g^2 (|A|^2 - |n.A|^2),  A = int_0^T v(t) exp(i (omega t - q.r(t))) dt

    with g^2 = 2 pi c^2 / omega.  On each piece the phase is linear in t, so
    A is a sum of two exponential integrals in closed form."""
    v1, v2, q = (np.asarray(x, dtype=float) for x in (v1, v2, q))
    qmag = float(np.linalg.norm(q))
    omega = C_AU * qmag
    a1 = omega - float(q @ v1)
    a2 = omega - float(q @ v2)
    offset = (float(q @ v2) - float(q @ v1)) * t_jump
    i1 = (np.exp(1j * a1 * t_jump) - 1.0) / (1j * a1)
    i2 = np.exp(1j * offset) * (np.exp(1j * a2 * t_end) - np.exp(1j * a2 * t_jump)) / (1j * a2)
    A = v1 * i1 + v2 * i2
    n = q / qmag
    transverse = float(np.vdot(A, A).real) - abs(complex(n @ A)) ** 2
    g2 = 2.0 * math.pi * C_AU**2 / omega
    return (Z / C_AU) ** 2 * g2 * transverse


def _quad(f) -> float:
    value, _ = integrate.quad(f, -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def level_shift_collinear(beta1: float, q_c: float, Z: float = 1.0) -> float:
    """Level shift Z^2 q_c / (2 pi^2 c) int dOmega [n x v1]^2 / (c - n.v1),
    reduced to one integral over x = cos(angle to v1)."""
    v1 = beta1 * C_AU
    ang = 2.0 * math.pi * _quad(lambda x: v1**2 * (1.0 - x * x) / (C_AU - v1 * x))
    return Z**2 * q_c / (2.0 * math.pi**2 * C_AU) * ang


def flat_soft_spectrum(beta1: float, beta2: float, Z: float = 1.0) -> float:
    """omega dN/domega of a collinear jump without the level shift, which does
    not depend on omega:

        Z^2 / (2 pi c^3) int_-1^1 (1 - x^2) [v2/(1 - x beta2) - v1/(1 - x beta1)]^2 dx

    with signed speeds v = beta c along the common direction."""
    v1, v2 = beta1 * C_AU, beta2 * C_AU

    def f(x):
        return (1.0 - x * x) * (v2 / (1.0 - x * beta2) - v1 / (1.0 - x * beta1)) ** 2

    return Z**2 / (2.0 * math.pi * C_AU**3) * _quad(f)


def _pieces(v1, v2, t_jump: float, t_end: float, q):
    """Per piece of the jump: (start, end, velocity, Omega, theta) with the
    phase omega t - q.r(t) = Omega t + theta on that piece."""
    omega = C_AU * float(np.linalg.norm(q))
    theta2 = -float(q @ (v1 - v2)) * t_jump
    return [
        (0.0, t_jump, v1, omega - float(q @ v1), 0.0),
        (t_jump, t_end, v2, omega - float(q @ v2), theta2),
    ]


def jump_number_scale(v1, v2, t_jump: float, t_end: float, q, Z: float = 1.0) -> float:
    """(Z/c)^2 g^2 (int |v_perp(t)| dt)^2 over both polarizations: by Minkowski's
    inequality no photon number of the jump, with any kernel of modulus <= 1,
    exceeds it.  It is the scale of the quadrature errors."""
    v1, v2, q = (np.asarray(x, dtype=float) for x in (v1, v2, q))
    n = q / np.linalg.norm(q)
    arc = sum((b - a) * float(np.linalg.norm(v - (n @ v) * n)) for a, b, v, _, _ in _pieces(v1, v2, t_jump, t_end, q))
    g2 = 2.0 * math.pi * C_AU**2 / (C_AU * float(np.linalg.norm(q)))
    return (Z / C_AU) ** 2 * g2 * arc**2


def jump_corrected_photon_number(v1, v2, t_jump: float, t_end: float, q, lags, p_table, Z: float = 1.0, nodes: int = 8) -> float:
    """Photon number in mode q, summed over both polarizations, with the
    damping kernel K(t1 - t2) = exp(-P(t1 - t2)), P linear between the
    tabulated lags:

        N = sum_{k,l} (Z/c)^2 g^2 [v_k.v_l - (n.v_k)(n.v_l)] exp(i (theta_l - theta_k))
            int dd K(d) exp(-i Omega_k d) int_{s in I_l, s + d in I_k} exp(i (Omega_l - Omega_k) s) ds

    over the pieces k, l of the jump.  The inner integral over s is done in
    closed form; the outer one over the lag d by Gauss-Legendre rules on the
    cells between the tabulated lags and the piece-edge lags, on each of
    which the integrand is smooth."""
    v1, v2, q = (np.asarray(x, dtype=float) for x in (v1, v2, q))
    lags = np.asarray(lags, dtype=float)
    pieces = _pieces(v1, v2, t_jump, t_end, q)
    n = q / np.linalg.norm(q)
    edges = [a - b for a in (0.0, t_jump, t_end) for b in (0.0, t_jump, t_end)]
    cuts = np.union1d(lags, np.clip(edges, -t_end, t_end))
    cuts = cuts[(cuts >= -t_end) & (cuts <= t_end)]
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(cuts)
    d = (0.5 * (cuts[:-1] + cuts[1:]))[:, None] + half[:, None] * x[None, :]
    wd = (half[:, None] * w[None, :]).ravel()
    d = d.ravel()
    kernel = np.exp(-(np.interp(d, lags, np.real(p_table)) + 1j * np.interp(d, lags, np.imag(p_table))))
    total = 0.0 + 0.0j
    for ak, bk, vk, om_k, th_k in pieces:
        for al, bl, vl, om_l, th_l in pieces:
            lo = np.maximum(al, ak - d)
            length = np.maximum(np.minimum(bl, bk - d) - lo, 0.0)
            delta = om_l - om_k
            # int_lo^{lo+L} exp(i delta s) ds = L exp(i delta (lo + L/2)) sinc(delta L / 2)
            inner = length * np.exp(1j * delta * (lo + 0.5 * length)) * np.sinc(delta * length / (2.0 * math.pi))
            pol = float(vk @ vl) - float(n @ vk) * float(n @ vl)
            total += pol * np.exp(1j * (th_l - th_k)) * np.sum(wd * kernel * np.exp(-1j * om_k * d) * inner)
    g2 = 2.0 * math.pi * C_AU**2 / (C_AU * float(np.linalg.norm(q)))
    return (Z / C_AU) ** 2 * g2 * float(total.real)
