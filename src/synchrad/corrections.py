"""Modified-perturbation-theory corrections: the complex photon-interaction
exponent P(t1, t2), its constant-velocity and nonrelativistic reductions,
and the corrected photon number with the exp(-P) damping kernel.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.special

from .errors import ConvergenceError, DomainError
from .numerics import EULER_GAMMA, gauss_nodes, sphere_rule
from .semiclassical import PhotonMode, transverse_polarization_pairs
from .units import C_AU

__all__ = [
    "ModeSum",
    "PExponent",
    "mu_coupling",
    "UniformVelocityAmplitudes",
    "p_general",
    "p_const_velocity",
    "p_nonrel_asymptotic",
    "PiecewiseConstantVelocity",
    "corrected_photon_number",
]

# Default ultraviolet cutoff momentum, of order m*c.
DEFAULT_QC = C_AU

# Phase threshold beyond which the fast-oscillating single-time exponentials
# in the mode-sum bracket are dropped (stationary-phase regime).
FAST_PHASE_THRESHOLD = 20.0

# Lags |t1 - t2| remembered per cached constant-velocity geometry (about
# 200 bytes each); the least recently used is dropped first.
_P_MEMO_SIZE = 1024

# Nodes of each of p_const_velocity's two 1-D rules: the Bernstein-ellipse
# count, at least _P_MIN_NODES, doubled while the rule's error estimate is
# above _P_TOL of its scale, and at most _P_MAX_NODES, past which it raises
# ConvergenceError
_P_MIN_NODES = 16
_P_MAX_NODES = 512
_P_TOL = 1e-13

# Ein(ix) = i Si(x) + Cin(x) = sum_k (-1)^(k+1) (ix)^k / (k k!) for k = 19, ..., 1,
# in Horner order: at x <= 1 the first term left out is below 1e-19
_EIN_I = tuple((-1) ** (k + 1) * (1, 1j, -1, -1j)[k % 4] / (k * math.factorial(k)) for k in range(19, 0, -1))


@dataclass(frozen=True)
class PExponent:
    """Value of the photon-interaction exponent P(t1, t2).

    Satisfies P(t, t) = 0 and P(t1, t2) = conj(P(t2, t1)).
    """

    value: complex


@dataclass(frozen=True)
class ModeSum:
    """Quadrature rule over photon momenta q' up to the cutoff q_c, plus the
    polarization sum.  Node arrays carry the (2 pi)^-3 continuum measure."""

    q_c: float = DEFAULT_QC
    n_radial: int = 32
    n_polar: int = 24
    n_azimuth: int = 24

    def __post_init__(self):
        if not 0 < self.q_c < math.inf:
            raise DomainError(f"cutoff momentum must be positive and finite, got {self.q_c}")

    def nodes(self):
        """Returns (q_vecs[N,3], weights[N], e1[N,3], e2[N,3]) with weights
        absorbing q'^2 dq' dOmega / (2 pi)^3."""
        qr, wr = gauss_nodes(0.0, self.q_c, self.n_radial)
        nvec, w_sphere = sphere_rule(self.n_polar, self.n_azimuth)
        q_vecs = (qr[:, None, None, None] * nvec).reshape(-1, 3)
        weights = ((wr * qr**2)[:, None, None] * w_sphere / (2.0 * math.pi) ** 3).reshape(-1)
        n = np.broadcast_to(nvec, (self.n_radial,) + nvec.shape).reshape(-1, 3)
        e1, e2 = transverse_polarization_pairs(n)
        return q_vecs, weights, e1, e2


def mu_coupling(q: np.ndarray, q_prime: np.ndarray, gamma: float):
    """Frequency shift coupling a soft mode q to an emitted mode q':
    -(q . q')/(m gamma) with m = 1, linearized in the momentum transfer.
    q_prime is one 3-vector (returns a float) or rows of them (returns one
    shift per row)."""
    if not gamma >= 1.0:
        raise DomainError(f"gamma must be >= 1, got {gamma}")
    return -(np.asarray(q_prime, dtype=float) @ np.asarray(q, dtype=float)) / gamma


class UniformVelocityAmplitudes:
    """Closed-form coupling amplitudes for motion at constant velocity with
    adiabatic switch-on: Q(t) = (Z/c) g_q (e* . v0)/(omega - q.v0)
    * exp(i (omega - q.v0) t)."""

    def __init__(self, v0: np.ndarray, Z: float = 1.0):
        self.v0 = np.asarray(v0, dtype=float)
        if not np.linalg.norm(self.v0) < C_AU:
            raise DomainError(f"velocity must be finite with speed below c, got {self.v0}")
        if not math.isfinite(Z):
            raise DomainError(f"charge number must be finite, got {Z}")
        self.Z = Z

    def amplitude(self, q_vecs: np.ndarray, e_vecs: np.ndarray, t: float) -> np.ndarray:
        qmag = np.linalg.norm(q_vecs, axis=1)
        omega = C_AU * qmag
        g = np.sqrt(2.0 * math.pi * C_AU**2 / omega)
        dqv = omega - q_vecs @ self.v0
        ev = e_vecs @ self.v0
        return (self.Z / C_AU) * g * ev / dqv * np.exp(1j * dqv * t)


def p_general(
    mode_q: np.ndarray,
    amplitudes,
    gamma: float,
    t1: float,
    t2: float,
    mode_sum: Optional[ModeSum] = None,
) -> PExponent:
    """Photon-interaction exponent from the three-term mode-sum bracket:

        sum_{beta, q'} [ |Q(t1)|^2 (1 - exp(-i mu t1))
                       + |Q(t2)|^2 (1 - exp(+i mu t2))
                       - Q*(t1) Q(t2) (1 - exp(-i mu t1)) (1 - exp(+i mu t2)) ]

    with mu = mu_coupling(mode_q, q').  The single-time exponentials are
    zeroed where |mu| * t exceeds the stationary-phase threshold, and mu is
    capped at its large-q' saturation value at q' = q_c.  DomainError
    before any evaluation unless t1, t2 and mode_q are finite.
    """
    mode_q = np.asarray(mode_q, dtype=float)
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise DomainError(f"times must be finite, got t1 = {t1}, t2 = {t2}")
    if not np.all(np.isfinite(mode_q)):
        raise DomainError(f"soft-mode momentum must be finite, got {mode_q}")
    ms = mode_sum or ModeSum()
    q_vecs, weights, e1, e2 = ms.nodes()

    mu = mu_coupling(mode_q, q_vecs, gamma)
    # saturate mu at its value for |q'| = q_c (large-q' flattening)
    qmag = np.linalg.norm(q_vecs, axis=1)
    mu_cap = np.abs(np.linalg.norm(mode_q) * ms.q_c / gamma)
    if mu_cap > 0:
        mu = np.clip(mu, -mu_cap, mu_cap)

    total = 0.0 + 0.0j
    tail = 0.0 + 0.0j
    tail_mask = qmag > 0.9 * ms.q_c
    for e in (e1, e2):
        Q1 = amplitudes.amplitude(q_vecs, e, t1)
        Q2 = amplitudes.amplitude(q_vecs, e, t2)
        f1 = 1.0 - np.exp(-1j * mu * t1)
        f2 = 1.0 - np.exp(1j * mu * t2)
        f1 = np.where(np.abs(mu * t1) > FAST_PHASE_THRESHOLD, 1.0, f1)
        f2 = np.where(np.abs(mu * t2) > FAST_PHASE_THRESHOLD, 1.0, f2)
        bracket = (
            np.abs(Q1) ** 2 * f1 + np.abs(Q2) ** 2 * f2 - np.conj(Q1) * Q2 * f1 * f2
        )
        total += np.sum(weights * bracket)
        tail += np.sum(weights[tail_mask] * bracket[tail_mask])

    if abs(total) > 0 and abs(tail) > 0.1 * abs(total):
        warnings.warn(
            "p_general: outer 10% of the q' range contributes more than 10% "
            "of |P|; result is logarithmically sensitive to the cutoff q_c",
            stacklevel=2,
        )
    return PExponent(complex(total))


def _spherical_bessel(n: int, b: float) -> list:
    """j_0(b), ..., j_{n-1}(b) for b >= 0: the power series (DLMF 10.53.1)
    below b = 1/2; the upward recurrence (DLMF 10.51.1) where no order
    exceeds b; otherwise Miller's downward recurrence (DLMF 3.6(iii)) from
    an order where j_k(b) is negligible, rescaled before it overflows and
    normalized by sum_k (2k + 1) j_k^2 = 1 (DLMF 10.60), its sign taken from
    j_0 = sin(b)/b, or from j_1 where sin(b) is near 0."""
    if b < 0.5:
        out, lead = [], 1.0
        for k in range(n):
            lead *= b / (2 * k + 1) if k else 1.0
            term = total = lead
            m = 0
            while abs(term) > 1e-17 * abs(total):
                m += 1
                term *= -0.5 * b * b / (m * (2 * k + 2 * m + 1))
                total += term
            out.append(total)
        return out
    sin, cos = math.sin(b), math.cos(b)
    if b >= n - 1:
        out = [sin / b, (sin / b - cos) / b]
        for k in range(1, n - 1):
            out.append((2 * k + 1) / b * out[k] - out[k - 1])
        return out[:n]
    # j_k(b) is below 1e-36 of its largest value past k = 2b + 60, and has
    # fallen by e^-18 from k = b at k = b + 7.1 b^(1/3)
    top = min(n, int(2 * b) + 60) + 32 + int(8.0 * b ** (1.0 / 3.0))
    p = [0.0] * max(n, top + 2)
    p[top] = 1.0
    for k in range(top, 0, -1):
        p[k - 1] = (2 * k + 1) / b * p[k] - p[k + 1]
        if abs(p[k - 1]) > 1e100:
            for i in range(k - 1, top + 1):
                p[i] *= 1e-100
    sign = p[0] * sin if abs(sin) > 0.25 else -p[1] * cos
    norm = math.copysign(1.0 / math.sqrt(math.fsum((2 * k + 1) * v * v for k, v in enumerate(p))), sign)
    return [v * norm for v in p[:n]]


class _ConstVelocityGeometry:
    """p_const_velocity's angular integral for one (v0, q, q_c, gamma), v0 != 0,
    as two 1-D integrals.  Its x2 = w2 dt terms depend on the direction n'
    only through u = n'.v0/|v0|, with weight 2 pi F(u), F = |v0|^2 (1 - u^2)
    / (1 - |v0| u/c)^2; its x12 = (w2 + w1) dt terms, since w2 + w1 =
    q_c (c - n'.w) with w = v0 - q/gamma, only through u' = n'.w/|w|, with
    weight 2 pi <F>(u'), the average of F over the cone n'.w = |w| u'.  Each
    takes an n-node Filon-Legendre rule (_rule); the first n puts rho^-n
    below e^-46 on the Bernstein ellipse rho = c/v + sqrt(c^2/v^2 - 1), v =
    max(|v0|, |w|), through the nearest singularity of either integrand."""

    def __init__(self, v0: list, w: list, q_c: float):
        self.speed, self.w_speed, self.q_c = math.hypot(*v0), math.hypot(*w), q_c
        # alpha, the angle from v0 to w: immaterial, so 0, where |v0| |w| is 0 (w2 + w1 = q_c c or F = 0)
        self.cos_a, self.sin_a, norm = 1.0, 0.0, self.speed * self.w_speed
        if norm > 0.0:
            cross = (v0[1] * w[2] - v0[2] * w[1], v0[2] * w[0] - v0[0] * w[2], v0[0] * w[1] - v0[1] * w[0])
            self.cos_a = math.fsum(a * b for a, b in zip(v0, w)) / norm
            self.sin_a = math.hypot(*cross) / norm
        log_rho = math.acosh(C_AU / max(self.speed, self.w_speed))
        self.nodes = min(_P_MAX_NODES, max(_P_MIN_NODES, math.ceil(46.0 / max(log_rho, 1e-300))))
        self.rules = {}

    def _rule(self, n: int):
        """The n-node rule of both integrals, kept per n.  On the n Gauss
        nodes of [-1, 1], first as u, then as u': x per unit dt (w2, then
        w2 + w1) and the weight (F, then <F>), each of length 2n; the Legendre
        analysis matrix (k + 1/2) w_j P_k(u_j), from the three-term
        recurrence; the Bauer factors 2 i^k; the Gauss weights twice; and the
        lag-independent terms K = 2 pi int F (i pi + 2 C + ln w2) du + 2 pi
        int <F> ln(w2 + w1) du' and L = 2 pi int F du, the factor of 2 ln dt."""
        rule = self.rules.get(n)
        if rule is not None:
            return rule
        u, wu = gauss_nodes(-1.0, 1.0, n)
        beta = self.speed / C_AU
        one_minus_u2 = (1.0 - u) * (1.0 + u)
        F = self.speed**2 * one_minus_u2 / (1.0 - beta * u) ** 2
        # <F> = c^2 [(beta^2 - 1) A / R^3 + 2 / R - 1], with A = 1 - beta p,
        # D = beta r, R^2 = A^2 - D^2, p = u' cos(alpha) and r = sqrt(1 - u'^2)
        # sin(alpha), as beta^2 c^2 <(1 - (n'.v0)^2/|v0|^2) / y^2>, y = A - D
        # cos(phi), so that beta^2 factors out exactly: the averages of 1/y^2,
        # cos(phi)/y^2 and cos(phi)^2/y^2 are A/R^3, D/R^3 and (A^2 + A R -
        # R^2) / (R^3 (A + R))
        p, r2 = u * self.cos_a, one_minus_u2 * self.sin_a**2
        A = 1.0 - beta * p
        D = beta * np.sqrt(r2)
        R = np.sqrt((A - D) * (A + D))
        F_avg = (
            self.speed**2
            * ((1.0 - p) * (1.0 + p) * A - 2.0 * beta * p * r2 - r2 * (A * A + A * R - R * R) / (A + R))
            / R**3
        )
        w2 = self.q_c * (C_AU - self.speed * u)
        w12 = self.q_c * (C_AU - self.w_speed * u)
        # math.log, not np.log: the same bits on every CPU
        log_w2 = np.array([math.log(x) for x in w2.tolist()])
        log_w12 = np.array([math.log(x) for x in w12.tolist()])
        L = 2.0 * math.pi * math.fsum(wu * F)
        K = complex(
            2.0 * math.pi * math.fsum(np.concatenate([wu * F * (2.0 * EULER_GAMMA + log_w2), wu * F_avg * log_w12])),
            math.pi * L,
        )
        legendre = np.empty((n, n))
        legendre[0], legendre[1] = 1.0, u
        for k in range(1, n - 1):
            legendre[k + 1] = ((2 * k + 1) * u * legendre[k] - k * legendre[k - 1]) / (k + 1)
        analysis = (np.arange(n) + 0.5)[:, None] * wu * legendre
        bauer = np.array([(2.0, 2.0j, -2.0, -2.0j)[k % 4] for k in range(n)])
        rule = (np.concatenate([w2, w12]), np.concatenate([F, F_avg]), analysis, bauer, np.tile(wu, 2), K, L)
        self.rules[n] = rule
        return rule

    def _filon(self, n: int, dt: float):
        """(integral, estimated error, scale) at lag dt > 0 by the n-node rule.
        For x > 0, i Si(x) - Ci(x) = i pi/2 + (g - i f)(x) e^{-ix} with the
        smooth auxiliary functions f and g (DLMF 6.2.17-18), so the integral
        is K + 2 L ln dt plus 2 pi int h(u) e^{-i x(u)} du per reduction, h =
        F (g - i f)(x(u)).  h is expanded in Legendre polynomials on the
        nodes, and since x = X0 - B u is linear in u, int P_k(u) e^{iBu} du =
        2 i^k j_k(B) (DLMF 10.60) integrates each term exactly.  Where every x
        is at most 1 there is no oscillation to follow, the bracket is Ein(ix)
        = i Si(x) + Cin(x) from its power series, and B = 0.  The error is
        estimated from the last two Legendre coefficients, and the scale is
        the sum of the magnitudes of the terms that add up to the integral."""
        rates, weight, analysis, bauer, wu2, K, L = self._rule(n)
        x = dt * rates
        x0 = dt * self.q_c * C_AU
        if x0 <= 0.5:
            ein = np.zeros(2 * n, dtype=complex)
            for c in _EIN_I:
                ein = (ein + c) * x
            h = weight * ein
            const, const_scale, phase, b = 0.0, 0.0, 1.0, (0.0, 0.0)
        else:
            si, ci = scipy.special.sici(x)
            h = weight * ((1j * (si - 0.5 * math.pi) - ci) * np.exp(1j * x))
            log_dt = math.log(dt)
            const, const_scale = K + 2.0 * log_dt * L, abs(K) + 2.0 * abs(log_dt) * L
            phase = complex(math.cos(x0), -math.sin(x0))
            b = (dt * self.q_c * self.speed, dt * self.q_c * self.w_speed)
        coef = np.sum(h.reshape(2, n)[:, None, :] * analysis, axis=2)
        bessel = np.array([_spherical_bessel(n, bm) for bm in b])
        value = const + 2.0 * math.pi * phase * complex(np.sum(coef * bauer * bessel))
        error = 4.0 * math.pi * float(np.sum(np.abs(coef[:, -2:])))
        scale = const_scale + 2.0 * math.pi * float(np.sum(wu2 * np.abs(h)))
        return value, error, scale

    def integral(self, dt: float) -> complex:
        """The angular integral at lag dt > 0, with its estimated error at most
        _P_TOL of its scale or subnormal: from the first node count, doubled
        while it is not, up to _P_MAX_NODES; ConvergenceError past that."""
        n = self.nodes
        while True:
            value, error, scale = self._filon(n, dt)
            if error <= max(_P_TOL * scale, 2.0**-1022):
                return value
            if n >= _P_MAX_NODES:
                raise ConvergenceError(
                    f"p_const_velocity at dt = {dt!r}: the {n}-node rule's error estimate "
                    f"{error:.3e} exceeds {_P_TOL:g} of {scale:.3e} (|v0| = {self.speed!r}, "
                    f"|v0 - q/gamma| = {self.w_speed!r})"
                )
            n = min(2 * n, _P_MAX_NODES)


@lru_cache(maxsize=8)
def _const_velocity_geometry(v0_bytes, q_bytes, q_c, gamma):
    """p_const_velocity's lag-independent part: the integral of a
    _ConstVelocityGeometry, cached per |dt| in an lru_cache of _P_MEMO_SIZE
    lags, or None for v0 = 0.  Keyed by the bytes of v0 and q, so the key
    tells -0.0 from 0.0 exactly as the arithmetic does.  The domain checks
    run here, once per geometry."""
    v0 = np.frombuffer(v0_bytes)
    q = np.frombuffer(q_bytes)
    if not np.linalg.norm(v0) < C_AU:
        raise DomainError(f"velocity must be finite with speed below c, got {v0}")
    if not np.all(np.isfinite(q)):
        raise DomainError(f"soft-mode momentum must be finite, got {q}")
    if not 0 < q_c < math.inf:
        raise DomainError(f"cutoff momentum must be positive and finite, got {q_c}")
    if not gamma >= 1.0:
        raise DomainError(f"gamma must be >= 1, got {gamma}")
    w = (v0 - q / gamma).tolist()
    if not math.hypot(*w) < C_AU:
        # w2 + w1 = q_c (c - n'.w) would vanish on the sphere
        raise DomainError(f"v0 - q/gamma must have speed below c, got {w}")
    if not np.any(v0):
        return None
    return lru_cache(maxsize=_P_MEMO_SIZE)(_ConstVelocityGeometry(v0.tolist(), w, q_c).integral)


def p_const_velocity(
    v0: np.ndarray,
    q: np.ndarray,
    q_c: float = DEFAULT_QC,
    gamma: float = 1.0,
    Z: float = 1.0,
    t1: float = 0.0,
    t2: float = 0.0,
) -> PExponent:
    """Constant-velocity exponent with the radial q' integral done in closed
    form (Si/Ci/log bracket), leaving the angular integral over emission
    directions n':

        P = Z^2/(4 pi^2 c^3) int do' [n' x v0]^2 / (1 - n'.v0/c)^2
            * ( i Si(w2 dt) + i Si((w2+w1) dt) + 2 C - Ci(w2 |dt|)
                - Ci(|w2+w1| |dt|) + ln(w2 |w2+w1| dt^2) )

    with w1 = q_c (n'.q)/(m gamma), w2 = (c - n'.v0) q_c, dt = t1 - t2.  The
    angular integral is two exact 1-D integrals, over n'.v0/|v0| and over
    n'.w/|w| with w = v0 - q/gamma, each by a Filon-Legendre rule that
    integrates the oscillation exp(-i x) exactly (_ConstVelocityGeometry):
    one Si/Ci pass over 2n nodes per lag.  The rule's error estimate is at
    most _P_TOL (1e-13) of the sum of the magnitudes of the terms that add up
    to the integral, or ConvergenceError; against mpmath quadrature and a
    2-D sphere rule the error is below 1e-14 relative at speeds up to 0.9c.
    The geometry is cached per (v0, q, q_c, gamma), so a table over many lags
    builds it once, and with it the integral per |dt|: P(-dt) = conj P(dt)
    holds bit for bit (Si is odd, Ci and the log are even), so a table over
    symmetric lags does half the work.  DomainError unless |v0| < c,
    |v0 - q/gamma| < c (else w2 + w1 vanishes on the sphere), q is finite,
    0 < q_c < inf, gamma >= 1, and Z and t1 - t2 are finite.
    """
    v0 = np.asarray(v0, dtype=float)
    q = np.asarray(q, dtype=float)
    integral = _const_velocity_geometry(v0.tobytes(), q.tobytes(), float(q_c), float(gamma))
    dt = t1 - t2
    if not math.isfinite(dt):
        raise DomainError(f"lag t1 - t2 must be finite, got t1 = {t1}, t2 = {t2}")
    if not math.isfinite(Z):
        raise DomainError(f"charge number must be finite, got {Z}")
    if dt == 0.0 or integral is None:
        return PExponent(0.0 + 0.0j)
    known = integral(abs(dt))
    do_integral = known if dt > 0 else known.conjugate()
    value = Z**2 / (4.0 * math.pi**2 * C_AU**3) * do_integral
    return PExponent(complex(value))


def p_nonrel_asymptotic(
    v0_mag: float, Z: float, q_c: float, dt: float
) -> complex:
    """Nonrelativistic large-|dt| asymptote of the constant-velocity exponent:
    (2 Z^2 v0^2 / 3 pi c^3) [i pi sign(dt) + 2 (C + ln(c q_c) + ln|dt|)]."""
    if not (math.isfinite(dt) and dt != 0.0):
        raise DomainError(f"asymptotic form needs a finite dt != 0, got {dt}")
    if not 0 < q_c < math.inf:
        raise DomainError(f"cutoff momentum must be positive and finite, got {q_c}")
    if not (math.isfinite(v0_mag) and math.isfinite(Z)):
        raise DomainError(f"speed and charge number must be finite, got {v0_mag} and {Z}")
    if v0_mag == 0.0:
        return 0.0 + 0.0j
    pref = 2.0 * Z**2 * v0_mag**2 / (3.0 * math.pi * C_AU**3)
    return pref * complex(
        2.0 * (EULER_GAMMA + math.log(C_AU * q_c) + math.log(abs(dt))),
        math.pi * math.copysign(1.0, dt),
    )


# ---------------------------------------------------------------------------
# Corrected photon number
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseConstantVelocity:
    """Velocity law for the jump benchmark: v1 for t < t_jump, v2 after."""

    v1: np.ndarray
    v2: np.ndarray
    t_jump: float

    def __post_init__(self):
        object.__setattr__(self, "v1", np.asarray(self.v1, dtype=float))
        object.__setattr__(self, "v2", np.asarray(self.v2, dtype=float))
        if not np.all(np.isfinite(np.r_[self.v1, self.v2, self.t_jump])):
            raise DomainError(f"velocities and jump time must be finite, got {self}")

    def velocity(self, t) -> np.ndarray:
        """Velocity at a time or an array of times, shape (..., 3)."""
        return np.where(np.asarray(t)[..., None] < self.t_jump, self.v1, self.v2)

    def position(self, t) -> np.ndarray:
        """Position at a time or an array of times, shape (..., 3)."""
        t = np.asarray(t, dtype=float)[..., None]
        return np.where(
            t < self.t_jump, self.v1 * t, self.v1 * self.t_jump + self.v2 * (t - self.t_jump)
        )

    def breakpoints(self, t_end: float):
        if 0.0 < self.t_jump < t_end:
            return [0.0, self.t_jump, t_end]
        return [0.0, t_end]


def _qdot(velocity_law, mode: PhotonMode, Z: float, times: np.ndarray) -> np.ndarray:
    """Qdot(t') = i (Z/c) g (e . v) exp(i (omega t' - q . r)) at every time;
    each 3-vector dot product is (a0 b0 + a1 b1) + a2 b2, not a BLAS dot,
    whose order depends on the CPU kernel OpenBLAS picks."""
    phase = mode.omega * times - np.sum(velocity_law.position(times) * mode.q, axis=-1)
    ev = np.sum(velocity_law.velocity(times) * mode.e_vec, axis=-1)
    return 1j * (Z / C_AU) * math.sqrt(mode.g_squared) * ev * np.exp(1j * phase)


# Most time nodes of the amplitude, and of the kernel, whose exponent
# triangle grows as half their square
_MAX_NODES = 1 << 20
_MAX_KERNEL_NODES = 1 << 12


def _time_nodes(velocity_law, mode: PhotonMode, t: float, n: int, max_nodes: int):
    """Gauss nodes and weights over [0, t], n per breakpoint piece [a, b]; a
    piece whose phase bound (omega + |q| max|v|) (b - a), with max|v| over
    its n nodes, is more than the span n nodes resolve is cut into equal parts
    that meet it.  Raises ConvergenceError where that takes over max_nodes."""
    if not 0.0 <= t < math.inf:
        raise DomainError(f"photon number needs a finite time t >= 0, got {t}")
    # n nodes integrate exp(i kappa x), x in [-1, 1], to 1e-13 of its absolute
    # integral while the error bound (e kappa / 4n)^(2n) is below 1e-13: a phase
    # span 2 kappa of 149 rad at n = 64 (171 measured) and 3.6 at n = 8 (4.1)
    span = 8.0 * n / math.e * 1e-13 ** (1.0 / (2 * n))
    edges = velocity_law.breakpoints(t)
    qmag = math.hypot(*mode.q)
    starts, ends, count = [], [], 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        vmax = np.max(np.linalg.norm(velocity_law.velocity(gauss_nodes(a, b, n)[0]), axis=-1))
        parts = max(1.0, (mode.omega + qmag * float(vmax)) * (b - a) / span)
        count += n * parts
        if not count <= max_nodes:
            raise ConvergenceError(f"resolving Qdot's phase over [0, {t}] takes over {max_nodes} nodes")
        cuts = np.linspace(a, b, math.ceil(parts) + 1)
        starts.append(cuts[:-1])
        ends.append(cuts[1:])
    x, w = gauss_nodes(np.concatenate(starts)[:, None], np.concatenate(ends)[:, None], n)
    return x.ravel(), w.ravel()


# The last exp(-P) triangle built: (weak reference to its provider,
# times.tobytes(), the read-only triangle), or None.  The reference's callback
# empties it when the provider dies.
_damping_slot = None


def _forget_damping(ref):
    global _damping_slot
    if _damping_slot is not None and _damping_slot[0] is ref:
        _damping_slot = None


def _damping(p_provider, times: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """exp(-P) on the grid's upper triangle, diagonal included, as a 1-D
    array in the order of its indices rows, cols (np.triu_indices' row
    order), the order p_provider is called in; DomainError at the first pair
    where P is not finite, or at t1 = t2 not real.  The read-only result is
    kept for the next call with the same provider object on the same grid,
    unless the provider cannot be weakly referenced; a fill that raises is
    not kept."""
    global _damping_slot
    key = times.tobytes()
    slot = _damping_slot
    if slot is not None and slot[0]() is p_provider and slot[1] == key:
        return slot[2]
    ts = times.tolist()
    P = np.array([p_provider(t1, t2) for i, t1 in enumerate(ts) for t2 in ts[i:]], dtype=complex)
    bad = np.flatnonzero(~np.isfinite(P) | ((rows == cols) & (P.imag != 0.0)))
    if bad.size:
        k = bad[0]
        raise DomainError(
            f"p_provider returned a non-finite exponent, or a non-real one at t1 = t2, {P[k]} "
            f"at (t1, t2) = ({ts[rows[k]]!r}, {ts[cols[k]]!r})"
        )
    damping = np.exp(-P)
    damping.setflags(write=False)
    try:
        ref = weakref.ref(p_provider, _forget_damping)
    except TypeError:  # not weakly referenceable: never kept
        return damping
    _damping_slot = (ref, key, damping)
    return damping


def corrected_photon_number(
    velocity_law,
    mode: PhotonMode,
    t: float,
    Z: float = 1.0,
    p_provider: Optional[Callable[[float, float], complex]] = None,
    nodes_per_piece: int = 64,
) -> float:
    """Photon number with mutual photon interaction:

        n = int_0^t int_0^t Qdot*(t1) Qdot(t2) exp(-P(t1, t2)) dt1 dt2

    p_provider(t1, t2) supplies the exponent (None means semiclassical,
    P = 0).  P must be finite and Hermitian, P(t2, t1) = P*(t1, t2), with
    P(t, t) real: it is called on the upper triangle of the time grid,
    diagonal included, and the sum runs over that triangle, off-diagonal
    terms doubled.  It must be a function of (t1, t2) alone: a later call
    with the same provider object on the same time grid, such as the other
    polarization of the mode, reuses the first call's exp(-P) triangle
    instead of calling the provider again.  Each breakpoint piece takes
    nodes_per_piece Gauss nodes, or more where the phase of Qdot needs them
    (_time_nodes); ConvergenceError where that is too many.  DomainError
    unless t is finite and >= 0, Z is finite, nodes_per_piece is an integer
    >= 1 and P is as above.
    """
    if not math.isfinite(Z):
        raise DomainError(f"charge number must be finite, got {Z}")
    if not (isinstance(nodes_per_piece, (int, np.integer)) and nodes_per_piece >= 1):
        raise DomainError(f"nodes_per_piece must be an integer >= 1, got {nodes_per_piece!r}")
    limit = _MAX_NODES if p_provider is None else _MAX_KERNEL_NODES
    times, weights = _time_nodes(velocity_law, mode, t, nodes_per_piece, limit)
    u = weights * _qdot(velocity_law, mode, Z, times)
    if p_provider is None:
        return float(abs(np.sum(u)) ** 2)

    rows, cols = np.triu_indices(len(u))
    damping = _damping(p_provider, times, rows, cols)
    # Re(conj(u_i) u_j exp(-P_ij)), the lower triangle's equal term added by
    # doubling, from real products each rounded on its own: no fused
    # multiply-add, which numpy uses or not by CPU features
    a, b = u[rows], u[cols]
    re = a.real * b.real + a.imag * b.imag
    im = a.real * b.imag - a.imag * b.real
    terms = re * damping.real - im * damping.imag
    return float(np.sum(np.where(rows == cols, terms, 2.0 * terms)))
