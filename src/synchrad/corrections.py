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
# 100 bytes each); the oldest is dropped first.
_P_MEMO_SIZE = 1024

# Sphere rule (n_polar, n_azimuth) of p_const_velocity's angular integral
_P_SPHERE = (48, 32)


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


@lru_cache(maxsize=8)
def _const_velocity_geometry(v0_bytes, q_bytes, q_c, gamma):
    """The dt-independent part of p_const_velocity over the direction grid:
    (weights, [n' x v0]^2 / (1 - n'.v0/c)^2, w2, w2 + w1, w2 |w2 + w1|,
    memo), or None for v0 = 0; memo maps |dt| to the angular integral at
    +|dt|.  Keyed by the bytes of v0 and q, so the key tells -0.0 from 0.0
    exactly as the arithmetic does.  The domain checks run here, once per
    geometry."""
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
    if np.allclose(v0, 0.0):
        return None
    nvec, weights = sphere_rule(*_P_SPHERE)
    ndotv = nvec @ v0
    cross2 = np.maximum(np.dot(v0, v0) - ndotv**2, 0.0)  # [n' x v0]^2
    w1 = q_c * (nvec @ q) / gamma
    w2 = (C_AU - ndotv) * q_c
    w12 = w2 + w1
    out = (weights, cross2 / (1.0 - ndotv / C_AU) ** 2, w2, w12, w2 * np.abs(w12))
    for arr in out[1:]:
        arr.setflags(write=False)
    return out + ({},)


def _const_velocity_integral(geometry, dt: float) -> complex:
    """The angular integral of p_const_velocity at lag dt != 0."""
    weights, factor, w2, w12, w2w12, _ = geometry
    # one Si/Ci pass per argument: Ci takes |x|, and Si is odd, so
    # Si(x) = copysign(Si(|x|), x)
    x2 = w2 * dt
    x12 = w12 * dt
    si2a, ci2a = scipy.special.sici(np.abs(x2))
    si12a, ci12a = scipy.special.sici(np.abs(x12))
    log_arg = w2w12 * dt**2
    if log_arg.min() < np.finfo(float).tiny:  # dt**2 lost bits or underflowed to 0
        log_term = np.log(w2w12) + 2.0 * math.log(abs(dt))
    else:
        log_term = np.log(log_arg)
    bracket = (
        1j * np.copysign(si2a, x2)
        + 1j * np.copysign(si12a, x12)
        + 2.0 * EULER_GAMMA
        - ci2a
        - ci12a
        + log_term
    )
    return np.sum(weights * (factor * bracket))


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

    with w1 = q_c (n'.q)/(m gamma), w2 = (c - n'.v0) q_c, dt = t1 - t2, on
    the 48 x 32 sphere rule _P_SPHERE.  The direction-grid geometry is
    cached per (v0, q, q_c, gamma), so a table over many lags evaluates it
    once, and with it the angular integral per |dt|: P(-dt) = conj P(dt)
    holds bit for bit (Si is odd, Ci and the log are even), so a table over
    symmetric lags does half the Si/Ci work.  DomainError unless |v0| < c,
    q is finite, 0 < q_c < inf, gamma >= 1, and Z and t1 - t2 are finite.
    """
    v0 = np.asarray(v0, dtype=float)
    q = np.asarray(q, dtype=float)
    geometry = _const_velocity_geometry(v0.tobytes(), q.tobytes(), float(q_c), float(gamma))
    dt = t1 - t2
    if not math.isfinite(dt):
        raise DomainError(f"lag t1 - t2 must be finite, got t1 = {t1}, t2 = {t2}")
    if not math.isfinite(Z):
        raise DomainError(f"charge number must be finite, got {Z}")
    if dt == 0.0 or geometry is None:
        return PExponent(0.0 + 0.0j)
    *_, memo = geometry
    known = memo.get(abs(dt))
    if known is None:
        do_integral = _const_velocity_integral(geometry, dt)
        if len(memo) >= _P_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[abs(dt)] = do_integral if dt > 0 else do_integral.conjugate()
    else:
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
    vecdot takes each 3-vector dot product as the scalar q @ r does."""
    phase = mode.omega * times - np.vecdot(velocity_law.position(times), mode.q)
    ev = np.vecdot(velocity_law.velocity(times), mode.e_vec)
    return 1j * (Z / C_AU) * math.sqrt(mode.g_squared) * ev * np.exp(1j * phase)


# Most time nodes of the amplitude, and of the kernel, whose exponent matrix
# grows as their square
_MAX_NODES = 1 << 20
_MAX_KERNEL_NODES = 1 << 12

# Imaginary part of the double integral, relative to its real part, above
# which corrected_photon_number warns: the kernel is Hermitian, so the
# imaginary part is rounding only
_IMAG_TOL = 1e-8


def _time_nodes(velocity_law, mode: PhotonMode, t: float, n: int, max_nodes: int):
    """Gauss nodes and weights over [0, t], n per breakpoint piece [a, b]; a
    piece whose phase bound (omega + |q| max|v|) (b - a), with max|v| over
    its n nodes, is more than the span n nodes resolve is cut into equal parts
    that meet it.  Raises ConvergenceError where that takes over max_nodes."""
    if not t >= 0.0:
        raise DomainError(f"photon number needs a time t >= 0, got {t}")
    # n nodes integrate exp(i kappa x), x in [-1, 1], to 1e-13 of its absolute
    # integral while the error bound (e kappa / 4n)^(2n) is below 1e-13: a phase
    # span 2 kappa of 149 rad at n = 64 (171 measured) and 3.6 at n = 8 (4.1)
    span = 8.0 * n / math.e * 1e-13 ** (1.0 / (2 * n))
    edges = velocity_law.breakpoints(t)
    qmag = float(np.linalg.norm(mode.q))
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


# The last exp(-P) matrix built: (weak reference to its provider,
# times.tobytes(), the read-only matrix), or None.  The reference's callback
# empties it when the provider dies.
_damping_slot = None


def _forget_damping(ref):
    global _damping_slot
    if _damping_slot is not None and _damping_slot[0] is ref:
        _damping_slot = None


def _damping(p_provider, times: np.ndarray) -> np.ndarray:
    """exp(-P) on the quadrature grid: P from p_provider on the upper
    triangle, diagonal included, in row order, and the lower triangle by
    Hermiticity P(t2, t1) = P*(t1, t2).  The read-only result is kept for
    the next call with the same provider object on the same grid, unless the
    provider cannot be weakly referenced; a fill that raises is not kept."""
    global _damping_slot
    key = times.tobytes()
    slot = _damping_slot
    if slot is not None and slot[0]() is p_provider and slot[1] == key:
        return slot[2]
    ts = times.tolist()
    upper = np.triu_indices(len(ts))
    P = np.empty((len(ts), len(ts)), dtype=complex)
    P[upper] = [p_provider(t1, t2) for i, t1 in enumerate(ts) for t2 in ts[i:]]
    bad = np.flatnonzero(~np.isfinite(P[upper]))
    if bad.size:
        i, j = upper[0][bad[0]], upper[1][bad[0]]
        raise DomainError(
            f"p_provider returned a non-finite exponent {P[i, j]} at (t1, t2) = ({ts[i]!r}, {ts[j]!r})"
        )
    lower = np.tril_indices(len(ts), -1)
    P[lower] = np.conj(P.T[lower])
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
    P = 0).  It must be a function of (t1, t2) alone: a later call with the
    same provider object on the same time grid, such as the other
    polarization of the mode, reuses the first call's exp(-P) matrix
    instead of calling the provider again.  Each breakpoint piece takes
    nodes_per_piece Gauss nodes, or more where the phase of Qdot needs them
    (_time_nodes); ConvergenceError where that is too many.  DomainError
    unless Z is finite and nodes_per_piece is an integer >= 1.
    """
    if not math.isfinite(Z):
        raise DomainError(f"charge number must be finite, got {Z}")
    if not (isinstance(nodes_per_piece, (int, np.integer)) and nodes_per_piece >= 1):
        raise DomainError(f"nodes_per_piece must be an integer >= 1, got {nodes_per_piece!r}")
    limit = _MAX_NODES if p_provider is None else _MAX_KERNEL_NODES
    times, weights = _time_nodes(velocity_law, mode, t, nodes_per_piece, limit)
    qdot = _qdot(velocity_law, mode, Z, times)
    if p_provider is None:
        amp = np.sum(weights * qdot)
        return float(abs(amp) ** 2)

    kern = np.conj(qdot)[:, None] * qdot[None, :] * _damping(p_provider, times)
    val = complex(weights @ kern @ weights)
    if abs(val.imag) > _IMAG_TOL * max(abs(val.real), 1e-300):
        warnings.warn(
            f"corrected_photon_number: imaginary residual {val.imag:.3e} "
            f"relative to {val.real:.3e}",
            stacklevel=2,
        )
    return float(val.real)
