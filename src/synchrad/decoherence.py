"""Decoherence of the radiating electron: the exponent S(r, t) attenuating
the density matrix off-diagonal in position, the coherence kernel
G = exp(-S), and the localization widths extracted from its Fourier square
root.

S is linear in t by construction, S(r, t) = t s1(r), so the per-unit-time
profile s1 is computed once and rescaled for every elapsed time.  Two bounded
caches hold it, both keyed by value, never by the identity of a mode table:

- `s_averaged` keeps s1 on each separation grid it is asked for, keyed by
  beam, resolution, theta0 and the grid itself: the 16 most recent grids of
  at most 65,536 points (larger grids are evaluated and not kept).
- `localization_width` keeps s1 at the nodes r_j = exp(j ln(10) / 100) of one
  fixed log lattice, per beam and axis at the width resolution: the 8 most
  recent (beam, axis) pairs.  Nodes are computed on first use, in aligned
  blocks of 8, so a node's value never depends on which call needed it
  first; the widths reach at most the nodes between 1e-15 and 2e16 bohr.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.optimize
import scipy.special

from .errors import DomainError, NegativityError, RangeError
from .numerics import gauss_nodes
from .semiclassical import _default_cap, _emission_blocks, _harmonic_grid
from .units import AU_TIME_SECONDS, C_AU, BeamParams

__all__ = [
    "DecoherenceField",
    "CoherenceKernel",
    "s_averaged",
    "s_ultrarel",
    "decoherence_field",
    "coherence_kernel",
    "chi_spectrum",
    "localization_width",
    "localization_time",
]

_AXIS_ANGLE = {"transverse": math.pi / 2.0, "longitudinal": 0.0}


@dataclass(frozen=True)
class DecoherenceField:
    """Samples of the decoherence exponent over separations r at polar angle
    theta0 between the separation vector and the field axis."""

    beam: BeamParams
    t: float
    r: np.ndarray
    theta0: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("r", "theta0", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.r.shape == self.theta0.shape == self.values.shape):
            raise DomainError("field arrays must share one shape")
        if np.any(self.r < 0):
            raise DomainError("separations must be nonnegative")
        if np.any(self.values < -1e-12 * max(1.0, float(np.max(self.values, initial=0.0)))):
            raise DomainError("decoherence exponent must be nonnegative")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            f.write("r_bohr,theta0_rad,S\n")
            for r, th, s in zip(self.r, self.theta0, self.values):
                f.write(f"{r:.16e},{th:.16e},{s:.16e}\n")


@dataclass(frozen=True)
class CoherenceKernel:
    """exp(-S) on the same grid as the field it came from."""

    beam: BeamParams
    t: float
    r: np.ndarray
    theta0: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("r", "theta0", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.values <= 0) or np.any(self.values > 1.0 + 1e-12):
            raise DomainError("coherence kernel values must lie in (0, 1]")


# ---------------------------------------------------------------------------
# Spectral mode table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _mode_table(beam: BeamParams, n_exact: int, per_decade: int, n_theta: int):
    """Flattened (k, sin theta, cos theta, weight) arrays whose weighted sum
    over the unit factor reproduces the total photon rate.

    Harmonics up to n_exact enter with unit weight; the smooth tail up to
    50 gamma^3 is carried on a log grid with trapezoid weights.  Polar nodes
    are Gauss points confined to the beaming window of each harmonic, with
    the lower-hemisphere mirror folded into the weight.
    """
    n, wn, _ = _harmonic_grid(_default_cap(beam), n_exact, per_decade)
    pref = beam.Z**2 * beam.omega0 / C_AU
    k = np.repeat(n * beam.omega0 / C_AU, n_theta)
    s, u, W = (np.empty((len(n), n_theta)) for _ in range(3))
    for rows, u_rows, wt, s_rows, bracket in _emission_blocks(n, beam, n_theta):
        u[rows], s[rows] = u_rows, s_rows
        # factor 2 folds in the mirror hemisphere (integrand even in cos theta)
        W[rows] = 2.0 * pref * n[rows, None] * wn[rows, None] * wt * bracket
    out = (k, s.ravel(), u.ravel(), W.ravel())
    for arr in out:
        arr.setflags(write=False)
    return out


def _one_minus_j0(x: np.ndarray) -> np.ndarray:
    """1 - J0(x) without cancellation at small x (series below 1e-3)."""
    x2 = x * x
    series = x2 / 4.0 * (1.0 - x2 / 16.0 + x2 * x2 / 576.0)
    with np.errstate(invalid="ignore"):
        direct = 1.0 - scipy.special.j0(x)
    return np.where(np.abs(x) < 1e-3, series, direct)


def _dephasing_factor(a_arg, b_arg) -> np.ndarray:
    """1 - J0(a) cos(b), assembled from the cancellation-free pieces
    m = 1 - J0(a) and h = 1 - cos(b) = 2 sin^2(b/2):  m + h - m h."""
    if a_arg is None and b_arg is None:
        raise ValueError("at least one argument required")
    m = _one_minus_j0(a_arg) if a_arg is not None else 0.0
    h = 2.0 * np.sin(b_arg / 2.0) ** 2 if b_arg is not None else 0.0
    return m + h - m * h


def _profile(table, r, theta0: float) -> np.ndarray:
    """Per-unit-time exponent s1(r) = sum_modes W (1 - J0(r k sin(theta0) s)
    cos(r k cos(theta0) u)), evaluated in blocks to bound memory."""
    k, s, u, W = table
    sin0, cos0 = math.sin(theta0), math.cos(theta0)
    a = k * s * sin0 if abs(sin0) > 1e-12 else None
    b = k * u * cos0 if abs(cos0) > 1e-12 else None
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty(r.shape)
    block = max(1, int(4_000_000 / max(1, len(k))))
    for i in range(0, len(r), block):
        rc = r[i : i + block, None]
        if a is None and b is None:
            factor = np.zeros((len(rc), len(k)))
        else:
            factor = _dephasing_factor(
                rc * a if a is not None else None,
                rc * b if b is not None else None,
            )
        out[i : i + block] = factor @ W
    return out


_FIELD_CACHE_POINTS = 1 << 16


@lru_cache(maxsize=16)
def _field_profile(beam: BeamParams, resolution: tuple, theta0: float, grid: bytes):
    """s1 on the separation grid packed in `grid`, read-only."""
    s1 = _profile(_mode_table(beam, *resolution), np.frombuffer(grid), theta0)
    s1.setflags(write=False)
    return s1


def s_averaged(
    r,
    theta0: float,
    t: float,
    beam: BeamParams,
    n_exact: int = 512,
    per_decade: int = 48,
    n_theta: int = 48,
):
    """Period-averaged decoherence exponent S(r, t).

    Sums, over harmonics and emission angles, the per-harmonic angular rate
    weighted by 1 - J0(r q sin(theta0) sin(theta)) cos(r q cos(theta0)
    cos(theta)), times t.  The odd part of the phase factor cancels between
    mirror hemispheres, so the result is real with zero imaginary residual.
    Vanishes at r = 0 and approaches t * total_photon_rate as r grows.
    The t-independent part is cached per beam, resolution, theta0 and grid
    (see the module docstring) and scaled by t.
    """
    if t <= 0:
        raise DomainError("elapsed time must be positive")
    grid = np.atleast_1d(np.asarray(r, dtype=float))
    resolution = (n_exact, per_decade, n_theta)
    if grid.size <= _FIELD_CACHE_POINTS:
        s1 = _field_profile(beam, resolution, float(theta0), grid.tobytes())
    else:
        s1 = _profile(_mode_table(beam, *resolution), grid, theta0)
    vals = t * s1.reshape(grid.shape)
    return float(vals[0]) if np.isscalar(r) else vals


def s_ultrarel(
    r,
    theta0: float,
    t: float,
    beam: BeamParams,
    epsilon: float = 0.1,
    per_decade: int = 32,
    n_theta: int = 32,
):
    """Ultrarelativistic decoherence exponent: the harmonic sum replaced by a
    continuous integral with Airy-function kernels.

    Integrates over scaled harmonic number from epsilon**-3 upward and polar
    angles within epsilon of the orbital plane.  Valid for 1/gamma << epsilon
    << 1 and gamma >~ 100.
    """
    if t <= 0:
        raise DomainError("elapsed time must be positive")
    if epsilon <= 3.0 / beam.gamma or epsilon > 0.5:
        warnings.warn(
            f"epsilon = {epsilon} outside the validity window "
            f"(1/gamma, 0.5) for gamma = {beam.gamma}",
            stacklevel=2,
        )
    zeta0 = epsilon**-3.0
    zeta_cap = max(4.0 * zeta0, 180.0 * beam.gamma**3)
    m = max(16, int(per_decade * math.log10(zeta_cap / zeta0)))
    grid = np.exp(np.linspace(math.log(zeta0), math.log(zeta_cap), m))
    h = math.log(zeta_cap / zeta0) / (m - 1)
    tw = np.full(m, h)
    tw[0] = tw[-1] = h / 2.0

    sin0, cos0 = math.sin(theta0), math.cos(theta0)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    pref = t * 2.0 ** (2.0 / 3.0) * beam.Z**2 * beam.omega0 / C_AU
    total = np.zeros(r.shape)
    b2 = beam.beta**2
    for zeta, wz in zip(grid, tw * grid):
        # Ai argument (zeta/2)^(2/3) (1 - beta^2 sin^2) decays beyond ~20
        umax = min(math.sin(epsilon), math.sqrt(20.0) * (2.0 / zeta) ** (1.0 / 3.0))
        u, wt = gauss_nodes(0.0, umax, n_theta)
        s2 = 1.0 - u**2
        s = np.sqrt(s2)
        arg = (zeta / 2.0) ** (2.0 / 3.0) * (1.0 - b2 * s2)
        ai, aip, _, _ = scipy.special.airy(np.clip(arg, -20.0, 200.0))
        kern = (u**2 / s2) * ai**2 + (
            b2**2 * 2.0 ** (2.0 / 3.0) * s2 / zeta ** (2.0 / 3.0)
        ) * aip**2
        q = zeta * beam.omega0 / C_AU
        osc = np.ones((len(r), len(u)))
        if abs(sin0) > 1e-12:
            osc *= scipy.special.j0(np.outer(r, q * s * sin0))
        if abs(cos0) > 1e-12:
            osc *= np.cos(np.outer(r, q * u * cos0))
        # factor 2: mirror hemisphere
        total += 2.0 * wz * zeta ** (1.0 / 3.0) * ((1.0 - osc) @ (wt * kern))
    vals = pref * total
    return float(vals[0]) if vals.size == 1 else vals


# ---------------------------------------------------------------------------
# Field / kernel construction
# ---------------------------------------------------------------------------


def decoherence_field(beam: BeamParams, t: float, r, theta0) -> DecoherenceField:
    """Evaluate S over paired (r, theta0) samples; scalars broadcast."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta0 = np.broadcast_to(np.asarray(theta0, dtype=float), r.shape).copy()
    values = np.empty(r.shape)
    for th in np.unique(theta0):
        mask = theta0 == th
        values[mask] = s_averaged(r[mask], float(th), t, beam)
    return DecoherenceField(beam=beam, t=t, r=r, theta0=theta0, values=values)


def coherence_kernel(field: DecoherenceField) -> CoherenceKernel:
    return CoherenceKernel(
        beam=field.beam,
        t=field.t,
        r=field.r,
        theta0=field.theta0,
        values=np.exp(-field.values),
    )


# ---------------------------------------------------------------------------
# Fourier square root and widths
# ---------------------------------------------------------------------------


def _even_extension(g: np.ndarray) -> np.ndarray:
    # g sampled on r = 0, dr, ..., (N-1) dr; extend to the full even signal
    return np.concatenate([g, g[-2:0:-1]])


def chi_spectrum(kernel: CoherenceKernel, axis: str, tol: float = 5e-3):
    """Square root of the Fourier transform of a uniform 1-D kernel slice.

    Returns (wavenumbers, chi_q) with the arbitrary phase fixed to zero.
    Transform values below -tol * max raise NegativityError (under-resolved
    or unphysical kernel); small negative values are clamped to zero.
    """
    if axis not in _AXIS_ANGLE:
        raise DomainError(f"axis must be one of {sorted(_AXIS_ANGLE)}, got {axis!r}")
    r = kernel.r
    if len(r) < 8 or r[0] != 0.0:
        raise DomainError("kernel slice must start at r = 0 with >= 8 samples")
    dr = r[1] - r[0]
    if np.max(np.abs(np.diff(r) - dr)) > 1e-9 * dr:
        raise DomainError("kernel slice must be uniformly spaced")
    g = kernel.values - kernel.values[-1]  # remove the unlocalized plateau
    # cosine taper over the outer 10% suppresses truncation ringing from any
    # residual tail oscillating about the plateau
    n_taper = max(2, len(r) // 10)
    ramp = 0.5 * (1.0 + np.cos(np.linspace(0.0, math.pi, n_taper)))
    g = g.copy()
    g[-n_taper:] *= ramp
    k = 2.0 * math.pi * np.fft.rfftfreq(2 * (len(r) - 1), d=dr)
    if float(np.max(np.abs(g))) <= 1e-12 * float(np.max(kernel.values)):
        # constant kernel (no emission yet): all mass in the k = 0 bin
        spec = np.zeros(len(k))
        spec[0] = float(np.sum(kernel.values)) * dr
        return k, np.sqrt(spec)
    spec = np.fft.rfft(_even_extension(g)).real * dr
    pos_mass = float(np.sum(spec[spec > 0]))
    if pos_mass <= 0:
        raise NegativityError("kernel transform has no positive mass")
    neg_mass = -float(np.sum(spec[spec < 0]))
    if neg_mass > tol * pos_mass:
        raise NegativityError(
            f"kernel transform carries negative mass {neg_mass:.3e} "
            f"(above {tol:g} of its positive mass); refine the grid"
        )
    spec = np.clip(spec, 0.0, None)
    return k, np.sqrt(spec)


def _width_from_kernel(kernel: CoherenceKernel, axis: str) -> float:
    """Rms width of |chi(x)|^2 reconstructed from the kernel slice."""
    n = len(kernel.r)
    dr = kernel.r[1] - kernel.r[0]
    _, chi_q = chi_spectrum(kernel, axis)
    chi_x = np.fft.irfft(chi_q, 2 * (n - 1))
    j = np.arange(2 * (n - 1))
    x = np.where(j <= n - 1, j, j - 2 * (n - 1)) * dr
    w2 = chi_x**2
    norm = float(np.sum(w2))
    if norm <= 0:
        raise NegativityError("reconstructed packet has zero norm")
    return math.sqrt(float(np.sum(x**2 * w2)) / norm)


_WIDTH_RES = dict(n_exact=128, per_decade=16, n_theta=24)
_WINDOW_BOHR = 1e7  # analysis span: separations beyond it count as decohered
_MAX_FFT_LOG2 = 21
_LOG_STEP = math.log(10.0) / 100  # lattice spacing in log r: 100 nodes per decade
_BLOCK = 8  # lattice nodes computed together
_ROOT_RANGE = (-1200, 1400)  # lattice indices searched for radii: 1e-12..1e14 bohr


class _Lattice:
    """s1 at the nodes r_j = exp(j * _LOG_STEP) for one beam and polar angle
    at the width resolution, computed on first use in aligned blocks."""

    def __init__(self, beam: BeamParams, theta0: float):
        self.beam = beam
        self.theta0 = theta0
        self.rate = float(np.sum(_mode_table(beam, **_WIDTH_RES)[3]))  # s1 at r -> inf
        self._blocks: dict[int, np.ndarray] = {}

    def span(self, j_lo: int, j_hi: int) -> np.ndarray:
        """s1 at the nodes j_lo..j_hi, inclusive."""
        b_lo, b_hi = j_lo // _BLOCK, j_hi // _BLOCK
        for b in range(b_lo, b_hi + 1):
            if b not in self._blocks:
                r = np.exp(np.arange(b * _BLOCK, (b + 1) * _BLOCK) * _LOG_STEP)
                table = _mode_table(self.beam, **_WIDTH_RES)
                self._blocks[b] = _profile(table, r, self.theta0)
        s1 = np.concatenate([self._blocks[b] for b in range(b_lo, b_hi + 1)])
        return s1[j_lo - b_lo * _BLOCK : j_hi - b_lo * _BLOCK + 1]


@lru_cache(maxsize=8)
def _width_lattice(beam: BeamParams, theta0: float) -> _Lattice:
    return _Lattice(beam, theta0)


def _scale_radius(lattice: _Lattice, t: float, target: float) -> float | None:
    """A separation r with t * s1(r) = target (the only one where s1 rises
    monotonically), or None if s1 saturates below target/t.  Bisects over
    lattice indices for a bracketing pair of nodes, then solves the monotone
    cubic through them and their neighbours."""
    import scipy.interpolate

    y = target / t
    lo, hi = _ROOT_RANGE
    if lattice.span(hi, hi)[0] < y:
        return None
    if lattice.span(lo, lo)[0] > y:
        return math.exp(lo * _LOG_STEP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lattice.span(mid, mid)[0] < y:
            lo = mid
        else:
            hi = mid
    x = np.arange(lo - 1, hi + 2) * _LOG_STEP
    piece = scipy.interpolate.PchipInterpolator(x, lattice.span(lo - 1, hi + 1))
    return math.exp(scipy.optimize.brentq(lambda v: piece(v) - y, x[1], x[2]))


def _log_profile_interpolant(lattice: _Lattice, t: float, r_lo: float, r_hi: float):
    """Monotone interpolant of t * s1 in log r through the lattice nodes that
    cover [r_lo, r_hi], with the quadratic small-separation law below them."""
    import scipy.interpolate

    j_lo = math.floor(math.log(r_lo) / _LOG_STEP)
    j_hi = math.ceil(math.log(r_hi) / _LOG_STEP)
    x = np.arange(j_lo, j_hi + 1) * _LOG_STEP
    s = t * lattice.span(j_lo, j_hi)
    pch = scipy.interpolate.PchipInterpolator(x, s, extrapolate=False)
    r0 = math.exp(x[0])

    def s_of_r(r):
        out = s[0] * (r / r0) ** 2
        inside = r >= r0
        # the clip keeps log r on the nodes where exp/log rounding would put a
        # separation at the ends of their range one step outside it
        out[inside] = pch(np.clip(np.log(r[inside]), x[0], x[-1]))
        return out

    return s_of_r


def localization_width(beam: BeamParams, t: float, axis: str) -> float:
    """Rms width (bohr) of the localized packet amplitude along the chosen
    axis at elapsed time t.

    The kernel exp(-t s1) comes from s1 at the nodes of a fixed log lattice
    (100 per decade), cached per beam and axis (8 pairs kept) and filled on
    first use, so widths at many times share one set of profile evaluations.
    The scale radii and the monotone interpolant are built on those nodes,
    the interpolant is sampled on a uniform grid of 2^k + 1 points and
    transformed with FFTs of length 2^(k+1); separations beyond the analysis
    window (1e7 bohr, or larger when the decoherence scale demands) are
    treated as fully decohered.  Returns math.inf when the total emission is
    too small to localize (max S < ln 2)."""
    if axis not in _AXIS_ANGLE:
        raise DomainError(f"axis must be one of {sorted(_AXIS_ANGLE)}, got {axis!r}")
    if t <= 0:
        raise DomainError("elapsed time must be positive")
    theta0 = _AXIS_ANGLE[axis]
    lattice = _width_lattice(beam, theta0)
    s_inf = t * lattice.rate
    if s_inf < math.log(2.0):
        return math.inf
    r_w = _scale_radius(lattice, t, 1.0)
    if r_w is None:
        return math.inf
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
        return math.inf

    prev = None
    log2_n = min(_MAX_FFT_LOG2, max(12, math.ceil(math.log2(8.0 * r_max / r_w))))
    for _ in range(3):
        r = np.linspace(0.0, r_max, 2**log2_n + 1)
        kernel = CoherenceKernel(
            beam=beam,
            t=t,
            r=r,
            theta0=np.full(r.shape, theta0),
            values=np.clip(np.exp(-s_of_r(r)), 1e-300, 1.0),
        )
        width = _width_from_kernel(kernel, axis)
        if prev is not None and abs(width - prev) <= 0.01 * max(width, prev):
            return width
        prev = width
        if log2_n >= _MAX_FFT_LOG2:
            break
        log2_n += 1
    return prev


def localization_time(
    beam: BeamParams,
    target_width: float,
    axis: str,
    rel_tol: float = 0.02,
    t_lo: float = 1.0,
    t_hi: float = 1e20,
) -> tuple[float, float]:
    """Elapsed time at which the packet width along axis shrinks to
    target_width.  Returns (t in a.u., t in seconds).

    Uses the near power-law scaling width ~ t**-1/2 for fast iteration with a
    bisection bracket as safeguard; RangeError if the target is unreachable
    within [t_lo, t_hi].
    """
    if target_width <= 0:
        raise DomainError("target width must be positive")
    w_lo = localization_width(beam, t_lo, axis)
    w_hi = localization_width(beam, t_hi, axis)
    if w_lo == math.inf and w_hi < math.inf:
        # find the earliest time with a finite width; widths jump from
        # unlocalized (inf) to a finite value bounded by the analysis window
        a, b = t_lo, t_hi
        for _ in range(60):
            mid = math.sqrt(a * b)
            if localization_width(beam, mid, axis) == math.inf:
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
    for _ in range(40):
        w = localization_width(beam, t, axis)
        if w == math.inf:
            t_lo = t
            t = math.sqrt(t_lo * t_hi)
            continue
        if abs(w - target_width) <= rel_tol * target_width:
            return t, t * AU_TIME_SECONDS
        if w > target_width:
            t_lo = max(t_lo, t)
        else:
            t_hi = min(t_hi, t)
        t_scaled = t * (w / target_width) ** 2
        t = t_scaled if t_lo < t_scaled < t_hi else math.sqrt(t_lo * t_hi)
    return t, t * AU_TIME_SECONDS
