"""Quadrature primitives shared by the physics modules: cached Gauss-Legendre
rules, the trapezoid rule and Gauss-Legendre panels in log x for smooth
spectral integrals, the cached unit-sphere rule, and atanh(w) - w without
cancellation.

Special functions are evaluated directly with vectorized scipy.special calls
where the physics needs them.  All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Euler's constant, stored as a literal.
EULER_GAMMA = 0.57721566490153286


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


def log_trapezoid(lo: float, hi: float, per_decade: int, min_nodes: int):
    """Trapezoid rule in log x for an integral over x in [lo, hi]: m =
    max(min_nodes, int(per_decade log10(hi / lo))) nodes uniform in log x,
    and weights that include dx = x d(log x)."""
    m = max(min_nodes, int(per_decade * math.log10(hi / lo)))
    x = np.exp(np.linspace(math.log(lo), math.log(hi), m))
    h = math.log(hi / lo) / (m - 1)
    w = np.full(m, h)
    w[0] = w[-1] = h / 2.0
    return x, w * x


def _log_panels(lo: float, hi: float, per_decade: int):
    """6-point Gauss-Legendre panels in log x for an integral over x in
    [lo, hi]: ceil(per_decade log10(hi / lo)) panels of equal width in log x,
    and weights that include dx = x d(log x)."""
    edges = np.linspace(math.log(lo), math.log(hi), math.ceil(per_decade * math.log10(hi / lo)) + 1)
    log_x, w = gauss_nodes(edges[:-1, None], edges[1:, None], 6)
    x = np.exp(log_x.ravel())
    return x, w.ravel() * x


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


def _atanh_minus_identity(w):
    """atanh(w) - w for 0 <= w < 1, without the cancellation at small w: the
    Maclaurin series w^3 sum_k w^2k / (2k + 3) below w = 1/2, whose 29 terms
    leave under 1e-18 of the sum there."""
    w2 = w * w
    series = np.zeros_like(w)
    for k in range(28, -1, -1):
        series = series * w2 + 1.0 / (2 * k + 3)
    return np.where(w < 0.5, w * w2 * series, np.arctanh(w) - w)
