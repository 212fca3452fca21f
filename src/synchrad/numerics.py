"""Special functions and quadrature primitives used by every physics module.

Evaluation is delegated to scipy.special / scipy.integrate; this module adds
the range contracts, error reporting, and the series-summation helper the
rest of the package relies on.  All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.special

from .errors import ConvergenceError, DomainError, RangeError

# Euler's constant, stored as a literal.
EULER_GAMMA = 0.57721566490153286

_BESSEL_MAX_ORDER = 10**6
_BESSEL_MAX_ARG = 1e8
_AIRY_MIN = -20.0
_AIRY_MAX = 200.0


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute stopping tolerance for quadratures and sums."""

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self):
        if self.rel < 0 or self.abs < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.rel == 0 and self.abs == 0:
            raise ValueError("rel and abs tolerance cannot both be zero")


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), integer order n >= 0."""
    if n < 0 or n != int(n):
        raise RangeError(f"order must be a nonnegative integer, got {n}")
    if n > _BESSEL_MAX_ORDER:
        raise RangeError(f"order {n} exceeds supported maximum {_BESSEL_MAX_ORDER}")
    if abs(x) > _BESSEL_MAX_ARG:
        raise RangeError(f"|x| = {abs(x)} exceeds supported maximum {_BESSEL_MAX_ARG}")
    if x < 0:
        # J_n(-x) = (-1)^n J_n(x)
        return (-1.0) ** (int(n) % 2) * float(scipy.special.jv(n, -x))
    return float(scipy.special.jv(n, x))


def bessel_j_prime(n: int, x: float) -> float:
    """Derivative J_n'(x) via (J_{n-1} - J_{n+1})/2, with J_{-1} = -J_1."""
    if n == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(n - 1, x) - bessel_j(n + 1, x))


def _check_airy_range(x: float) -> None:
    if not (_AIRY_MIN <= x <= _AIRY_MAX):
        raise RangeError(f"Airy argument {x} outside [{_AIRY_MIN}, {_AIRY_MAX}]")


def airy_ai(x: float) -> float:
    """Airy function Ai(x); underflows to 0 for large positive x."""
    _check_airy_range(x)
    return float(scipy.special.airy(x)[0])


def airy_ai_prime(x: float) -> float:
    """Derivative Ai'(x)."""
    _check_airy_range(x)
    return float(scipy.special.airy(x)[1])


def sin_integral(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(u)/u du.  Odd in x."""
    if not math.isfinite(x):
        raise RangeError("sin_integral requires finite argument")
    return float(scipy.special.sici(x)[0])


def cos_integral(x: float) -> float:
    """Cosine integral Ci(x) for x > 0."""
    if not (x > 0):
        raise DomainError(f"cos_integral requires x > 0, got {x}")
    return float(scipy.special.sici(x)[1])


def adaptive_integral(
    f, a: float, b: float, tol: Tolerance = Tolerance(1e-10, 1e-12), full: bool = False
):
    """Adaptive quadrature of f over [a, b].

    Returns the estimate, or (estimate, achieved_error) when ``full`` is set.
    Raises ConvergenceError (carrying the best estimate) if the requested
    tolerance cannot be certified.
    """
    if not (a < b) or not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"need finite a < b, got [{a}, {b}]")
    with np.errstate(all="ignore"):
        value, err = scipy.integrate.quad(
            f, a, b, epsabs=tol.abs, epsrel=max(tol.rel, 1e-14), limit=400
        )
    bound = tol.abs + tol.rel * abs(value)
    if not math.isfinite(value) or err > max(bound * 50, 1e-300):
        if err > max(bound, 1e-300):
            raise ConvergenceError(
                f"quadrature error estimate {err:.3g} exceeds tolerance",
                best_estimate=value,
                error_estimate=err,
            )
    return (value, err) if full else value


def harmonic_sum(
    term: Callable[[int], float],
    tol: Tolerance = Tolerance(1e-10, 1e-12),
    n_max_cap: int = 10**7,
) -> float:
    """Sum term(n) for n = 1, 2, ... until the truncation estimate drops below tol.

    Assumes |term(n)| is eventually decreasing.  The tail is bounded by
    geometric extrapolation of the last two terms; summation is compensated.
    """
    total = 0.0
    comp = 0.0  # Kahan compensation
    prev = None
    small_streak = 0
    for n in range(1, n_max_cap + 1):
        t = term(n)
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        limit = tol.abs + tol.rel * abs(total)
        at = abs(t)
        if prev is not None and at > 0 and at < abs(prev):
            # geometric tail bound: at * r / (1 - r), r = at/|prev|
            r = at / abs(prev)
            tail = at * r / (1.0 - r)
            if tail < limit and at < limit:
                return total
        if at < limit * 1e-3:
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
        prev = t
    raise ConvergenceError(
        f"harmonic_sum: cap {n_max_cap} reached before convergence",
        best_estimate=total,
    )


@lru_cache(maxsize=256)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@lru_cache(maxsize=8)
def sphere_rule(n_polar: int, n_azimuth: int):
    """Unit-sphere rule: Gauss-Legendre in cos(theta) times the midpoint rule
    in phi.  Returns read-only (nvec[n_polar, n_azimuth, 3],
    weights[n_polar, n_azimuth]) with the weights summing to 4 pi."""
    cu, wu = gauss_nodes(-1.0, 1.0, n_polar)
    phi = (np.arange(n_azimuth) + 0.5) * (2.0 * math.pi / n_azimuth)
    CU, PH = np.meshgrid(cu, phi, indexing="ij")
    S = np.sqrt(1.0 - CU**2)
    nvec = np.stack([S * np.cos(PH), S * np.sin(PH), CU], axis=-1)
    weights = np.repeat(wu[:, None] * (2.0 * math.pi / n_azimuth), n_azimuth, axis=1)
    for arr in (nvec, weights):
        arr.setflags(write=False)
    return nvec, weights
