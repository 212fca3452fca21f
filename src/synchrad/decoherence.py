"""Decoherence of the radiating electron: the exponent S(r, t) attenuating
the density matrix off-diagonal in position, the coherence kernel
G = exp(-S), and the localization widths extracted from its Fourier square
root.

S is linear in t by construction, S(r, t) = t s1(r), so the per-unit-time
profile s1 is computed once and rescaled for every elapsed time.  Two bounded
caches hold it, both keyed by value, never by the identity of a mode table:

- `s_averaged` keeps s1 on each separation grid it is asked for, keyed by
  beam, theta0 and the grid itself: the 16 most recent grids of at most
  65,536 points (larger grids are evaluated and not kept).
- `localization_width` keeps s1 at the nodes r_j = exp(j ln(10) / 100) of one
  fixed log lattice, per beam and axis at the width resolution: the 8 most
  recent (beam, axis) pairs.  Nodes are computed on first use; the widths
  reach at most the nodes between 1e-15 and 2e16 bohr, and the lattice holds
  no other.

s1 is a weighted sum over the modes of one emission table,
`semiclassical._mode_table`, built beside the totals' table on the same
harmonic grid builder and Bessel pass.  `_profile` forms it one separation
at a time: the row of factors over all modes is filled in place, scaled by
the weights and summed by numpy's pairwise summation (Higham 1993), so each
value is fixed by its separation alone, whatever the other separations of
the call or their order, and no BLAS kernel enters it.  The table is
ordered by transverse wavenumber k sin(theta), so the J0 arguments rise
along each row and one search splits it: 1 - J0 takes its series where they
are below 0.5 and j0 from there on; 1 - cos(x) = 2 sin^2(x/2) folds its
halving and doubling into the call; no per-mode array outlives the call.
`s_ultrarel`, the paper's ultrarelativistic Airy form, is the same sum over
an uncached table of Airy-kernel modes, on the mode table's trapezoid rule
in log n (`numerics.log_trapezoid`) in scaled harmonic number.

A width is the rms of |chi(x)|^2, where chi^ = sqrt(G^) and G^ is the cosine
transform of the plateau-free, tapered kernel.  G^ is computed directly on
log-spaced separations, 400 per decade interpolated from the lattice, by
Filon's rule for the piecewise-linear kernel (Filon 1928), at log-spaced
wavenumbers; <x^2> then follows from Parseval's relation,
<x^2> = int (d chi^/dq)^2 dq / int chi^2 dq.  No uniform grid is built, so a
kernel spread over many decades of r costs no more than a compact one.
Every width is checked against the same transform on half the nodes, on
half the wavenumbers and with the kernel cut at half its truncation radius;
a width they move by more than 1e-3 is returned with an
UncertifiedWidthWarning.  The width and its checks take one pass: every
q r_j is q_0 r_1 exp(i h) for an integer i, so one table of sin^2(q r / 2)
serves the main transform and, every other entry, the one on half the
nodes; the half wavenumbers reuse the main transform; and the cut kernel,
whose slope drops equal the whole one's below its own taper, recomputes
only its G^(0), its drops from that taper on and its end term.  The
windowed sums are einsum products in a fixed order, and no BLAS kernel
enters a width.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConvergenceError,
    DomainError,
    NegativityError,
    RangeError,
    UncertifiedWidthWarning,
)
from .numerics import gauss_nodes, log_trapezoid
from .semiclassical import _mode_table
from .units import AU_TIME_SECONDS, C_AU, BeamParams

__all__ = [
    "CoherenceKernel",
    "s_averaged",
    "s_ultrarel",
    "Width",
    "localization_width",
    "localization_time",
]

_AXIS_ANGLE = {"transverse": math.pi / 2.0, "longitudinal": 0.0}


@dataclass(frozen=True)
class CoherenceKernel:
    """exp(-S) at the separations r of one axis and elapsed time."""

    r: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("r", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.values <= 0) or np.any(self.values > 1.0 + 1e-12):
            raise DomainError("coherence kernel values must lie in (0, 1]")


# 1 - J0(x) = -sum_k (-y/4)^k / k!^2, y = x^2: the y^7 coefficient, then y^6..y
_J0_SERIES_TOP = -((-0.25) ** 7 / math.factorial(7) ** 2)
_J0_SERIES = tuple((-0.25) ** k / math.factorial(k) ** 2 for k in range(6, 0, -1))


def _j0_series(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 - J0(x) from y = x^2, |x| < 0.5, by Horner's rule in place in out
    (a new array if None)."""
    acc = np.multiply(y, _J0_SERIES_TOP, out=out)
    for c in _J0_SERIES:
        acc -= c
        acc *= y
    return acc


def _profile(table, r, theta0: float) -> np.ndarray:
    """Per-unit-time exponent s1(r) = sum_modes W (1 - J0(r k sin(theta0) s)
    cos(r k cos(theta0) u)) on a table ordered by k s, as _mode_table and
    s_ultrarel build theirs; s1 is even in r.

    The factor 1 - J0(a) cos(b) is assembled from the cancellation-free
    pieces m = 1 - J0(a) and h = 1 - cos(b) = 2 sin^2(b/2) as m + h - m h,
    or as m or h alone where cos(theta0) or sin(theta0) vanishes (they never
    both do).  One separation at a time: its row of factors is filled in
    place, scaled by W and summed by numpy's pairwise summation, an order
    fixed by the row alone.  Returns s1 at r, flattened.

    m takes the power series -sum_k (-a^2/4)^k / k!^2 to its a^14 term
    (truncation below 3e-18 relative) where |a| < 0.5, and 1 - j0(a), which
    loses up to 1e-14 relative just below 0.5, elsewhere.  As rounding is
    monotone, the table's order makes each row |a| = r |k s sin(theta0)|
    non-decreasing, so one searchsorted splits it between the two.  The
    longitudinal factor alone is sin^2(r b/2) (2W), b halved and W doubled
    once per call: the bits of (1 - cos(r b)) W."""
    k, s, u, W = table
    sin0, cos0 = math.sin(theta0), math.cos(theta0)
    r = np.abs(np.asarray(r, dtype=float)).ravel()
    out = np.empty(len(r))
    if abs(sin0) <= 1e-12:
        half_b, double_w, f = k * u * (0.5 * cos0), W * 2.0, np.empty(len(k))
        for i, ri in enumerate(r):
            np.multiply(ri, half_b, out=f)
            np.sin(f, out=f)
            np.square(f, out=f)
            f *= double_w
            out[i] = f.sum()
        return out
    a = k * s * sin0
    np.abs(a, out=a)  # 1 - J0 is even, in the series and in j0 alike
    half_b = None if abs(cos0) <= 1e-12 else k * u * (0.5 * cos0)
    f, h, mh = np.empty((3, len(k)))
    for i, ri in enumerate(r):
        np.multiply(ri, a, out=f)
        lo = int(np.searchsorted(f, 0.5))
        if lo:  # each run's ufunc calls cost microseconds even when empty
            _j0_series(np.square(f[:lo], out=mh[:lo]), out=f[:lo])
        if lo < len(f):
            tail = f[lo:]
            with np.errstate(invalid="ignore"):
                scipy.special.j0(tail, out=tail)
            np.subtract(1.0, tail, out=tail)
        if half_b is not None:
            np.multiply(ri, half_b, out=h)
            np.sin(h, out=h)
            np.square(h, out=h)
            h *= 2.0
            np.multiply(f, h, out=mh)
            f += h
            f -= mh
        f *= W
        out[i] = f.sum()
    return out


# Mode-table resolutions (n_exact, per_decade, n_theta) of _mode_table: S(r)
# as s_averaged gives it, and the coarser table behind the widths
_FIELD_RES = dict(n_exact=512, per_decade=48, n_theta=48)
_WIDTH_RES = dict(n_exact=128, per_decade=16, n_theta=24)
_FIELD_CACHE_POINTS = 1 << 16


def _separations(r, theta0) -> np.ndarray:
    """r as an array of at least one dimension; DomainError unless every
    separation is finite and nonnegative and every theta0 is finite."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((r >= 0) & (r < math.inf)):
        raise DomainError("separations must be finite and nonnegative")
    if not np.all(np.isfinite(theta0)):
        raise DomainError(f"theta0 must be finite, got {theta0}")
    return r


@lru_cache(maxsize=16)
def _field_profile(beam: BeamParams, theta0: float, grid: bytes):
    """s1 on the separation grid packed in `grid`, read-only."""
    s1 = _profile(_mode_table(beam, **_FIELD_RES), np.frombuffer(grid), theta0)
    s1.setflags(write=False)
    return s1


def s_averaged(r, theta0: float, t: float, beam: BeamParams):
    """Period-averaged decoherence exponent S(r, t).

    Sums, over harmonics and emission angles, the per-harmonic angular rate
    weighted by 1 - J0(r q sin(theta0) sin(theta)) cos(r q cos(theta0)
    cos(theta)), times t.  The odd part of the phase factor cancels between
    mirror hemispheres, so the result is real with zero imaginary residual.
    Vanishes at r = 0 and approaches t * total_photon_rate as r grows.
    The mode table has the resolution _FIELD_RES; the t-independent part is
    cached per beam, theta0 and grid (see the module docstring) and scaled
    by t.
    """
    if not 0 < t < math.inf:
        raise DomainError(f"elapsed time must be positive and finite, got {t}")
    grid = _separations(r, theta0)
    if grid.size <= _FIELD_CACHE_POINTS:
        s1 = _field_profile(beam, float(theta0), grid.tobytes())
    else:
        s1 = _profile(_mode_table(beam, **_FIELD_RES), grid, theta0)
    vals = t * s1.reshape(grid.shape)
    return float(vals[0]) if np.isscalar(r) else vals


# s_ultrarel's rule: trapezoid nodes per decade of scaled harmonic number,
# and Gauss nodes in cos(theta) per node
_ULTRAREL_PER_DECADE = 32
_ULTRAREL_N_THETA = 32


def s_ultrarel(r, theta0: float, t: float, beam: BeamParams, epsilon: float = 0.1):
    """Ultrarelativistic decoherence exponent: the harmonic sum replaced by a
    continuous integral with Airy-function kernels.

    Integrates over scaled harmonic number zeta from epsilon**-3 upward, 32
    trapezoid nodes per decade in its logarithm, and polar angles within
    epsilon of the orbital plane, 32 Gauss nodes each: one Airy mode table,
    summed by s_averaged's _profile.  Valid for 1/gamma << epsilon << 1 and
    gamma >~ 100; DomainError unless 0 < epsilon <= pi/2 (sin epsilon is the
    window edge in cos(theta)).
    """
    if not 0 < t < math.inf:
        raise DomainError(f"elapsed time must be positive and finite, got {t}")
    if not 0 < epsilon <= math.pi / 2:
        raise DomainError(f"epsilon must lie in (0, pi/2], got {epsilon}")
    grid = _separations(r, theta0)
    if epsilon <= 3.0 / beam.gamma or epsilon > 0.5:
        warnings.warn(
            f"epsilon = {epsilon} outside the validity window "
            f"(1/gamma, 0.5) for gamma = {beam.gamma}",
            stacklevel=2,
        )
    zeta0 = epsilon**-3.0
    zeta_cap = max(4.0 * zeta0, 180.0 * beam.gamma**3)
    zeta, wz = (a[:, None] for a in log_trapezoid(zeta0, zeta_cap, _ULTRAREL_PER_DECADE, 16))
    # Ai argument (zeta/2)^(2/3) (1 - beta^2 sin^2) decays beyond ~20;
    # 1 - beta^2 sin^2 = gamma^-2 + beta^2 u^2, without the cancellation
    umax = np.minimum(math.sin(epsilon), math.sqrt(20.0) * (2.0 / zeta) ** (1.0 / 3.0))
    u, wt = gauss_nodes(0.0, umax, _ULTRAREL_N_THETA)
    s2 = 1.0 - u**2
    b2 = beam.beta**2
    arg = (zeta / 2.0) ** (2.0 / 3.0) * (beam.gamma_m2 + b2 * (u * u))
    ai, aip, _, _ = scipy.special.airy(np.clip(arg, -20.0, 200.0))
    kern = (u**2 / s2) * ai**2 + (b2**2 * 2.0 ** (2.0 / 3.0) * s2 / zeta ** (2.0 / 3.0)) * aip**2
    pref = 2.0 ** (2.0 / 3.0) * beam.Z**2 * beam.omega0 / C_AU
    # factor 2: mirror hemisphere
    W = pref * 2.0 * wz * zeta ** (1.0 / 3.0) * wt * kern
    k = np.broadcast_to(zeta * beam.omega0 / C_AU, u.shape)
    k, s, u, W = (a.ravel() for a in (k, np.sqrt(s2), u, W))
    order = np.argsort(k * s, kind="stable")  # _profile's order
    table = tuple(a[order] for a in (k, s, u, W))
    vals = t * _profile(table, grid, theta0).reshape(grid.shape)
    return float(vals[0]) if np.isscalar(r) else vals


# ---------------------------------------------------------------------------
# Fourier square root and widths
# ---------------------------------------------------------------------------


class Width(float):
    """A localization width in bohr: a float that also carries the estimated
    relative error of the transform it came from (0 for an unlocalized
    packet's math.inf)."""

    __slots__ = ("rel_error",)

    def __new__(cls, value: float, rel_error: float = 0.0):
        self = super().__new__(cls, value)
        self.rel_error = float(rel_error)
        return self

    @property
    def certified(self) -> bool:
        return self.rel_error <= _WIDTH_RTOL


_WINDOW_BOHR = 1e7  # analysis span: separations beyond it count as decohered
_LOG_STEP = math.log(10.0) / 100  # lattice spacing in log r: 100 nodes per decade
_ROOT_RANGE = (-1200, 1400)  # lattice indices searched for radii: 1e-12..1e14 bohr
# lattice indices the widths can reach: the radius search's, down to 1e-3 of
# its lowest radius and up to 200 times its highest (localization_width's
# interpolant span), 1e-15..2e16 bohr
_NODE_RANGE = (_ROOT_RANGE[0] - 301, _ROOT_RANGE[1] + 231)
_SUB = 4  # transform nodes per lattice step: 400 per decade, 200 for the check
_Q_STRIDE = 8  # wavenumbers every 8 transform-node steps: 50 per decade
_Q_LO = 0.5  # lowest sampled wavenumber, in units of 1 / r_max
_Q_HI = 40.0  # highest, in units of 1 / (radius where g falls to g(0)/e)
_WIDTH_RTOL = 1e-3  # certification tolerance of a width
_ONSET_RTOL = 1e-3  # relative tolerance in t of the localization onset
_TIME_RTOL = 0.02  # relative tolerance of the width at the localization time
_TIME_RANGE = (1.0, 1e20)  # elapsed times (a.u.) searched for it


def _pchip_slopes(y: np.ndarray, h: float) -> np.ndarray:
    """Node derivatives of the monotone piecewise cubic (PCHIP, Fritsch and
    Carlson 1980, with SciPy's end conditions) through y on a grid of step h."""
    m = np.diff(y) / h
    d = np.zeros(len(y))
    inner = m[:-1] * m[1:] > 0  # secants share a sign: their harmonic mean
    d[1:-1][inner] = 2.0 / (1.0 / m[:-1][inner] + 1.0 / m[1:][inner])
    for end, m0, m1 in ((0, m[0], m[1]), (-1, m[-1], m[-2])):
        de = (3.0 * m0 - m1) / 2.0
        if de * m0 <= 0:
            de = 0.0
        elif m0 * m1 <= 0 and abs(de) > 3.0 * abs(m0):
            de = 3.0 * m0
        d[end] = de
    return d


def _hermite(y0, y1, d0, d1, h, s):
    """Cubic Hermite interpolant on one step of length h at fraction s."""
    s2 = s * s
    s3 = s2 * s
    return (
        y0 * (2.0 * s3 - 3.0 * s2 + 1.0)
        + h * d0 * (s3 - 2.0 * s2 + s)
        + y1 * (3.0 * s2 - 2.0 * s3)
        + h * d1 * (s3 - s2)
    )


class _Lattice:
    """s1 at the nodes r_j = exp(j * _LOG_STEP), j in _NODE_RANGE, for one
    beam and polar angle at the width resolution, computed on first use."""

    def __init__(self, beam: BeamParams, theta0: float):
        self.theta0 = theta0
        self.table = _mode_table(beam, **_WIDTH_RES)
        self.rate = float(np.sum(self.table[3]))  # s1 at r -> inf
        self._s1 = np.full(_NODE_RANGE[1] - _NODE_RANGE[0] + 1, math.nan)

    def span(self, j_lo: int, j_hi: int) -> np.ndarray:
        """s1 at the nodes j_lo..j_hi, inclusive."""
        lo, hi = _NODE_RANGE
        if not lo <= j_lo <= j_hi <= hi:
            raise IndexError(f"lattice nodes {j_lo}..{j_hi} outside {lo}..{hi}")
        s1 = self._s1[j_lo - lo : j_hi - lo + 1]
        missing = np.flatnonzero(np.isnan(s1))
        if missing.size:
            s1[missing] = _profile(self.table, np.exp((missing + j_lo) * _LOG_STEP), self.theta0)
        return s1.copy()

    def node(self, j: int) -> float:
        """s1 at node j: read directly once computed, else as span(j, j)."""
        s1 = self._s1[j - _NODE_RANGE[0]] if _NODE_RANGE[0] <= j <= _NODE_RANGE[1] else math.nan
        return s1 if not math.isnan(s1) else self.span(j, j)[0]


@lru_cache(maxsize=8)
def _width_lattice(beam: BeamParams, theta0: float) -> _Lattice:
    return _Lattice(beam, theta0)


def _scale_radius(lattice: _Lattice, t: float, target: float) -> float | None:
    """A separation r with t * s1(r) = target (the only one where s1 rises
    monotonically), or None if s1 saturates below target/t.  Bisects over
    lattice indices for a bracketing pair of nodes, then solves the monotone
    cubic through them and their neighbours."""
    y = target / t
    lo, hi = _ROOT_RANGE
    if lattice.node(hi) < y:
        return None
    if lattice.node(lo) > y:
        return math.exp(lo * _LOG_STEP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lattice.node(mid) < y:
            lo = mid
        else:
            hi = mid
    s = lattice.span(lo - 1, hi + 1)
    d = _pchip_slopes(s, _LOG_STEP)
    frac = _step_root(float(s[1]), float(s[2]), float(d[1]), float(d[2]), y)
    return math.exp((lo + frac) * _LOG_STEP)


def _step_root(a: float, b: float, da: float, db: float, y: float) -> float:
    """The fraction f in [0, 1] where the monotone cubic Hermite step from
    a < y to b >= y (slopes da, db) reaches y, by bisection down to
    neighbouring floats: the lower one where the step is below y."""
    f_lo, f_hi = 0.0, 1.0
    while True:
        mid = 0.5 * (f_lo + f_hi)
        if mid in (f_lo, f_hi):
            return f_lo
        if _hermite(a, b, da, db, _LOG_STEP, mid) < y:
            f_lo = mid
        else:
            f_hi = mid


def _log_profile_interpolant(lattice: _Lattice, t: float, r_lo: float, r_hi: float):
    """Monotone cubic interpolant of t * s1 in log r through the lattice
    nodes that cover [r_lo, r_hi], with the quadratic small-separation law
    below them."""
    j_lo = math.floor(math.log(r_lo) / _LOG_STEP)
    j_hi = math.ceil(math.log(r_hi) / _LOG_STEP)
    s = t * lattice.span(j_lo, j_hi)
    d = _pchip_slopes(s, _LOG_STEP)
    r0 = math.exp(j_lo * _LOG_STEP)

    def s_of_r(r):
        out = s[0] * (r / r0) ** 2
        inside = r >= r0
        # separations a rounding step outside the covered range take the end
        # step's cubic, so exp/log round trips never leave the interpolant
        u = np.log(r[inside]) / _LOG_STEP - j_lo
        k = np.clip(np.floor(u).astype(int), 0, len(s) - 2)
        out[inside] = _hermite(s[k], s[k + 1], d[k], d[k + 1], _LOG_STEP, u - k)
        return out

    return s_of_r


def _plateau_free(r: np.ndarray, values: np.ndarray) -> np.ndarray:
    """G - G(R) on the nodes r, with R = r[-1], tapered by a half cosine over
    the outer 10% of [0, R] against truncation ringing."""
    g = values - values[-1]
    ramp = r > 0.9 * r[-1]
    g[ramp] *= 0.5 * (1.0 + np.cos(math.pi * (r[ramp] / r[-1] - 0.9) / 0.1))
    return g


def _filon_parts(r: np.ndarray, g: np.ndarray):
    """Filon's rule (Filon 1928) for G^(q) = 2 int_0^R g(r) cos(q r) dr of
    the piecewise-linear g through the nodes r = 0, r_1, ..., R, with g(R) =
    0: returns G^(0), the drops d_j in slope at the inner nodes and the slope
    at R.  Summed by parts, G^(q) = -(4 / q^2) (sum_j d_j sin^2(q r_j / 2) +
    slope(R) sin^2(q R / 2)), free of the cancellation of the plain cosine
    sum at small q."""
    slope = np.diff(g) / np.diff(r)
    return float(np.sum((g[1:] + g[:-1]) * np.diff(r))), slope[:-1] - slope[1:], slope[-1]


def _windowed(window: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Each row of window dotted with d, in einsum's fixed order (no BLAS)."""
    return np.einsum("ij,j->i", window, d)


def _parseval_width(log_q: np.ndarray, g_hat_0: float, g_hat: np.ndarray) -> float:
    """Rms width of the packet chi(x) with chi^ = sqrt(G^), from Parseval:
    <x^2> = int (d chi^/dq)^2 dq / int chi^2 dq over q >= 0; NaN when G^(0)
    is not positive.

    chi^ is known at q = 0 and on the log-uniform grid log_q.  Below the
    grid it is taken as quadratic in q (it is even); on the grid its
    derivative in u = log q is the fourth-order central difference and both
    integrals are trapezoid sums in u."""
    if not g_hat_0 > 0:
        return math.nan
    h = log_q[1] - log_q[0]
    q = np.exp(log_q)
    chi = np.sqrt(np.clip(g_hat, 0.0, None))
    chi0 = math.sqrt(g_hat_0)
    rise = chi[0] - chi0  # chi^ = chi0 + rise (q / q[0])^2 below the grid
    dchi = np.gradient(chi, h)
    dchi[2:-2] = (chi[:-4] - 8.0 * chi[1:-3] + 8.0 * chi[3:-1] - chi[4:]) / (12.0 * h)
    weight = np.full(len(q), h)
    weight[[0, -1]] = h / 2.0
    norm = q[0] * (chi0**2 + 2.0 * chi0 * rise / 3.0 + rise**2 / 5.0)
    norm += float(np.sum(weight * (chi**2 * q)))
    spread = (4.0 / 3.0) * rise**2 / q[0] + float(np.sum(weight * (dchi**2 / q)))
    return math.sqrt(spread / norm)


def _width_from_kernel(kernel: CoherenceKernel) -> tuple[float, float]:
    """Rms width of |chi(x)|^2, and its estimated relative error, from a
    kernel slice sampled at r = 0, at log-uniform nodes and at the truncation
    radius R = r[-1].

    G^ is the cosine transform of the plateau-free, tapered kernel
    (`_plateau_free`), at wavenumbers 50 per decade from 0.5 / R up to 40
    over the radius where the kernel has fallen to 1/e of its depth.
    Transform values below zero carrying more than 5e-3 of the positive mass
    raise NegativityError (an under-resolved or unphysical kernel).  The
    width is recomputed from every other node, from every other wavenumber
    and from the kernel cut at R/2; the largest relative change is the error
    estimate.  A check that cannot be computed raises ConvergenceError."""
    r, values = kernel.r, kernel.values
    if len(r) < 8 or r[0] != 0.0 or not r[-1] > r[-2]:
        raise DomainError("kernel slice must start at r = 0 with >= 8 increasing samples")
    log_r = np.log(r[1:-1])
    h = (log_r[-1] - log_r[0]) / (len(log_r) - 1)
    if np.max(np.abs(np.diff(log_r) - h)) > 1e-9:
        raise DomainError("kernel nodes between 0 and r[-1] must be log-uniform")
    g = _plateau_free(r, values)
    if not g[0] > 0.0:
        raise NegativityError("kernel has no decay to transform")
    r_e = r[np.argmax(g <= g[0] / math.e)]
    q_step = _Q_STRIDE * h
    log_q = np.arange(math.log(_Q_LO / r[-1]), math.log(_Q_HI / r_e) + q_step, q_step)
    q = np.exp(log_q)
    # sin^2(q r / 2) at q r = q_0 r_1 exp(i h_r) for every integer i the three
    # transforms reach: row k of a window reads q_k on r_1, r_2, ...
    h_r = math.log(r[2] / r[1])
    n = len(r) - 2
    i = np.arange(_Q_STRIDE * (len(q) - 1) + n)
    table = np.sin(0.5 * np.exp(log_q[0] + math.log(r[1]) + i * h_r)) ** 2
    window = sliding_window_view(table, n)[::_Q_STRIDE]
    end = np.sin(0.5 * q * r[-1]) ** 2
    # the kernel cut at its last node r[m - 1] <= R/2 has the same slope drops
    # as the whole one below its own taper, at the first p inner nodes
    m = int(np.searchsorted(r, 0.5 * r[-1], side="right"))
    p = max(int(np.searchsorted(r, 0.9 * r[m - 1], side="right")) - 2, 0)
    g_hat_0, d, end_slope = _filon_parts(r, g)
    shared = _windowed(window[:, :p], d[:p])
    g_hat = -4.0 * (shared + _windowed(window[:, p:], d[p:]) + end_slope * end) / q**2
    pos_mass = float(np.sum(q * np.clip(g_hat, 0.0, None)))
    neg_mass = -float(np.sum(q * np.clip(g_hat, None, 0.0)))
    if g_hat_0 <= 0 or pos_mass <= 0:
        raise NegativityError(f"kernel transform has no positive mass (G^(0) = {g_hat_0:.3e})")
    if neg_mass > 5e-3 * pos_mass:
        raise NegativityError(
            f"kernel transform carries negative mass {neg_mass:.3e} "
            f"(above 5e-3 of its positive mass); refine the grid"
        )
    width = _parseval_width(log_q, g_hat_0, g_hat)
    # every other node: r_1 exp(2 k h_r), every other table entry
    coarse = np.r_[0, np.arange(1, len(r) - 1, 2), len(r) - 1]
    c_hat_0, d_c, c_slope = _filon_parts(r[coarse], g[coarse])
    c_window = sliding_window_view(np.ascontiguousarray(table[::2]), len(d_c))[:: _Q_STRIDE // 2]
    c_hat = -4.0 * (_windowed(c_window, d_c) + c_slope * end) / q**2
    # cut at r[m - 1]: its own G^(0), taper, drops from the taper on and end
    h_hat_0, d_h, h_slope = _filon_parts(r[:m], _plateau_free(r[:m], values[:m]))
    h_total = shared + _windowed(window[:, p : m - 2], d_h[p:])
    h_hat = -4.0 * (h_total + h_slope * np.sin(0.5 * q * r[m - 1]) ** 2) / q**2
    checks = (
        _parseval_width(log_q, c_hat_0, c_hat),
        _parseval_width(log_q[::2], g_hat_0, g_hat[::2]),
        _parseval_width(log_q, h_hat_0, h_hat),
    )
    rel_error = max(abs(w / width - 1.0) for w in checks)
    if not (math.isfinite(width) and math.isfinite(rel_error)):
        raise ConvergenceError(
            f"width transform checks are not finite: {width!r} vs {checks}",
            best_estimate=width,
            error_estimate=rel_error,
        )
    return width, rel_error


def localization_width(beam: BeamParams, t: float, axis: str) -> Width:
    """Rms width (bohr) of the localized packet amplitude along the chosen
    axis at elapsed time t, as a `Width`: a float that carries its estimated
    relative error in `rel_error`.

    The kernel G = exp(-t s1) comes from s1 at the nodes of a fixed log
    lattice (100 per decade), cached per beam and axis (8 pairs kept) and
    filled node by node on first use, so widths at many times share one set
    of profile evaluations.  The scale radii (a bisection over the nodes,
    which reads computed ones directly) and a monotone cubic interpolant in
    log r are built on those nodes; the interpolant gives G at 400 nodes per
    decade from 1e-3 of the radius where t s1 = 1 up to the truncation
    radius, and the width follows from the cosine transform of G on those
    nodes (`_width_from_kernel`), in one pass with its three checks: one
    sin^2 table, and one window product per transform.  Separations beyond
    the analysis window (1e7 bohr, or larger when the decoherence scale
    demands) are treated as fully decohered.

    A width that moves by more than 1e-3 when the transform is repeated on
    half the nodes, on half the wavenumbers or on half the truncation radius
    is returned as the best estimate with an UncertifiedWidthWarning.  Returns
    math.inf when the total emission is too small to localize (max S < ln 2)
    or the kernel has not decayed at the window edge."""
    if axis not in _AXIS_ANGLE:
        raise DomainError(f"axis must be one of {sorted(_AXIS_ANGLE)}, got {axis!r}")
    if not 0 < t < math.inf:
        raise DomainError(f"elapsed time must be positive and finite, got {t}")
    theta0 = _AXIS_ANGLE[axis]
    lattice = _width_lattice(beam, theta0)
    s_inf = t * lattice.rate
    if s_inf < math.log(2.0):
        return Width(math.inf)
    r_w = _scale_radius(lattice, t, 1.0)
    if r_w is None:
        return Width(math.inf)
    # truncate where the kernel has decayed, or at the analysis window when
    # the approach to full decoherence is too slow to resolve
    r_deep = _scale_radius(lattice, t, min(37.0, 0.98 * s_inf))
    if r_deep is not None:
        r_max = min(max(4.0 * r_deep, 40.0 * r_w), max(_WINDOW_BOHR, 200.0 * r_w))
    else:
        r_max = max(_WINDOW_BOHR, 200.0 * r_w)
    s_of_r = _log_profile_interpolant(lattice, t, 1e-3 * r_w, r_max)
    # marginal decoherence: the kernel must have decayed at the window edge,
    # otherwise the packet is not localized within the analysis span
    s_edge = float(s_of_r(np.array([r_max]))[0])
    g_edge = math.exp(-s_edge) - math.exp(-s_inf)
    g_max = 1.0 - math.exp(-s_inf)
    if g_edge > 0.02 * g_max:
        return Width(math.inf)

    h = _LOG_STEP / _SUB
    i_lo = _SUB * math.floor(math.log(1e-3 * r_w) / _LOG_STEP)
    i_hi = math.ceil(math.log(r_max) / h) - 1
    nodes = np.exp(np.arange(i_lo, i_hi + 1) * h)
    r = np.concatenate([[0.0], nodes[nodes < r_max * (1.0 - 1e-9)], [r_max]])
    kernel = CoherenceKernel(r=r, values=np.clip(np.exp(-s_of_r(r)), 1e-300, 1.0))
    width, rel_error = _width_from_kernel(kernel)
    if rel_error > _WIDTH_RTOL:
        warnings.warn(
            UncertifiedWidthWarning(
                f"{axis} width {width:.6g} bohr at t = {t:.6g} is not certified: "
                f"its transform checks move it by {rel_error:.2e} (tolerance "
                f"{_WIDTH_RTOL:g})",
                rel_error,
            ),
            stacklevel=2,
        )
    return Width(width, rel_error)


def localization_time(beam: BeamParams, target_width: float, axis: str) -> tuple[float, float]:
    """Elapsed time at which the packet width along axis shrinks to
    target_width, to 2% in the width.  Returns (t in a.u., t in seconds).

    Uses the near power-law scaling width ~ t**-1/2 for fast iteration with a
    bisection bracket as safeguard; RangeError if the target is unreachable
    for t in [1, 1e20], ConvergenceError (with the time whose width came
    closest as best_estimate) if 40 iterations do not reach 2%.
    """
    if not target_width > 0:
        raise DomainError("target width must be positive")
    t_lo, t_hi = _TIME_RANGE

    def width_or_inf(t):
        # at the onset a kernel whose transform is not the spectrum of a
        # packet (NegativityError) counts as not localized yet
        try:
            return localization_width(beam, t, axis)
        except NegativityError:
            return math.inf

    w_lo = width_or_inf(t_lo)
    w_hi = localization_width(beam, t_hi, axis)
    if w_lo == math.inf and w_hi < math.inf:
        # the earliest time with a finite width, to _ONSET_RTOL in t: widths
        # jump from unlocalized (inf) to a finite value bounded by the
        # analysis window; only their finiteness is used here
        a, b = t_lo, t_hi
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UncertifiedWidthWarning)
            while b > a * (1.0 + _ONSET_RTOL):
                mid = math.sqrt(a * b)
                if width_or_inf(mid) == math.inf:
                    a = mid
                else:
                    b = mid
            t_lo, w_lo = b, localization_width(beam, b, axis)
    if not (w_hi <= target_width <= w_lo):
        raise RangeError(
            f"target width {target_width} outside reachable range "
            f"[{w_hi:.3e}, {w_lo:.3e}] for t in [{t_lo:g}, {t_hi:g}]"
        )
    t = math.sqrt(t_lo * t_hi)
    best = (math.inf, t)
    for _ in range(40):
        w = localization_width(beam, t, axis)
        if w == math.inf:
            t_lo = t
            t = math.sqrt(t_lo * t_hi)
            continue
        miss = abs(w - target_width) / target_width
        best = min(best, (miss, t))
        if miss <= _TIME_RTOL:
            return t, t * AU_TIME_SECONDS
        if w > target_width:
            t_lo = max(t_lo, t)
        else:
            t_hi = min(t_hi, t)
        t_scaled = t * (w / target_width) ** 2
        t = t_scaled if t_lo < t_scaled < t_hi else math.sqrt(t_lo * t_hi)
    raise ConvergenceError(
        f"localization time not found to {_TIME_RTOL:g} in 40 iterations "
        f"(closest width off by {best[0]:.2e})",
        best_estimate=best[1],
        error_estimate=best[0],
    )
