"""Quadrature primitives shared by the physics modules: cached Gauss-Legendre
rules and the cached unit-sphere rule.

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
