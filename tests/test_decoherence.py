"""Decoherence exponent, coherence kernel, and localization widths."""

import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrad import decoherence
from synchrad.decoherence import (
    CoherenceKernel,
    chi_spectrum,
    coherence_kernel,
    decoherence_field,
    localization_time,
    localization_width,
    s_averaged,
    s_ultrarel,
)
from synchrad.errors import DomainError, NegativityError, RangeError
from synchrad.numerics import gauss_nodes
from synchrad.semiclassical import total_photon_rate
from synchrad.units import C_AU, FIAN_60, BeamParams, beam_from_lab


BEAM2 = BeamParams.from_gamma_radius(2.0, 1000.0)


def test_vanishes_at_zero_separation():
    assert s_averaged(0.0, 0.7, 3.0, BEAM2) == 0.0
    assert s_ultrarel(0.0, 0.7, 3.0, BeamParams.from_gamma_radius(1000.0, 1e9)) == 0.0


def test_linear_in_time():
    r = 123.0
    s1 = s_averaged(r, 1.0, 2.0, BEAM2)
    s2 = s_averaged(r, 1.0, 4.0, BEAM2)
    assert s2 == 2.0 * s1
    with pytest.raises(DomainError):
        s_averaged(r, 1.0, 0.0, BEAM2)


def test_large_separation_reaches_total_rate():
    rate = total_photon_rate(BEAM2)
    r_big = 1e6 * C_AU / BEAM2.omega0
    assert s_averaged(r_big, 1.1, 1.0, BEAM2) == pytest.approx(rate, rel=1e-2)


def test_profile_rises_toward_plateau():
    r = np.logspace(-1, 7, 50)
    s = s_averaged(r, 0.9, 1.0, BEAM2)
    assert np.all(s >= 0.0)
    plateau = s[-1]
    # oscillatory ringing allows small local dips but never large reversals
    assert np.all(np.diff(s) > -0.15 * plateau)
    rising = s < 0.5 * plateau
    assert np.all(np.diff(s[rising]) > 0.0)
    assert s[-1] == pytest.approx(np.max(s), rel=0.15)


def test_ultrarel_matches_harmonic_sum_at_high_gamma():
    beam = BeamParams.from_gamma_radius(1000.0, 3.78e10)
    r_scale = C_AU / (beam.omega0 * beam.gamma**3)
    for theta0 in (math.pi / 2, 0.0, 0.7):
        for mult in (1.0, 30.0, 1000.0):
            r = mult * r_scale
            ref = s_averaged(r, theta0, 1.0, beam)
            got = s_ultrarel(r, theta0, 1.0, beam, epsilon=0.1)
            assert got == pytest.approx(ref, rel=0.05)


def test_ultrarel_epsilon_plateau():
    beam = BeamParams.from_gamma_radius(1000.0, 3.78e10)
    r = 30.0 * C_AU / (beam.omega0 * beam.gamma**3)
    a = s_ultrarel(r, 0.8, 1.0, beam, epsilon=0.08)
    b = s_ultrarel(r, 0.8, 1.0, beam, epsilon=0.12)
    assert abs(a - b) < 0.02 * abs(a)


def test_ultrarel_validity_warning():
    beam = BeamParams.from_gamma_radius(1000.0, 3.78e10)
    with pytest.warns(UserWarning, match="validity"):
        s_ultrarel(1.0, 0.5, 1.0, beam, epsilon=0.001)


def test_field_and_kernel_construction(tmp_path):
    r = np.array([0.0, 1.0, 10.0, 100.0])
    field = decoherence_field(BEAM2, 5.0, r, math.pi / 2)
    assert field.values[0] == 0.0
    assert np.all(field.values >= 0.0)
    kernel = coherence_kernel(field)
    assert kernel.values[0] == 1.0
    assert np.all(kernel.values <= 1.0) and np.all(kernel.values > 0.0)

    path = tmp_path / "field.csv"
    field.to_csv(path)
    lines = path.read_text().split("\n")
    assert lines[0] == "r_bohr,theta0_rad,S"
    assert len(lines) == 6 and lines[-1] == ""

    with pytest.raises(DomainError):
        decoherence_field(BEAM2, 5.0, np.array([-1.0, 1.0]), 0.0)


def test_chi_gaussian_fourier_pair():
    # G = exp(-r^2 / 2 w^2) factorizes into a packet of rms width w / 2
    w = 3.0
    r = np.linspace(0.0, 40 * w, 4096)
    kernel = CoherenceKernel(
        beam=BEAM2,
        t=1.0,
        r=r,
        theta0=np.full(r.shape, math.pi / 2),
        values=np.clip(np.exp(-(r**2) / (2 * w**2)), 1e-300, 1.0),
    )
    k, chi_q = chi_spectrum(kernel, "transverse")
    assert np.all(chi_q >= 0.0)
    # spectrum itself is Gaussian of width 1/w in wavenumber
    band = k < 2.0 / w
    expect = chi_q[0] * np.exp(-(k[band] ** 2) * w**2 / 4.0)
    assert np.allclose(chi_q[band], expect, rtol=1e-6, atol=1e-9 * chi_q[0])

    n = len(r)
    chi_x = np.fft.irfft(chi_q, 2 * (n - 1))
    j = np.arange(2 * (n - 1))
    x = np.where(j <= n - 1, j, j - 2 * (n - 1)) * (r[1] - r[0])
    width = math.sqrt(float(np.sum(x**2 * chi_x**2) / np.sum(chi_x**2)))
    assert width == pytest.approx(w / 2.0, rel=1e-3)


def test_chi_round_trip_reproduces_kernel():
    # the packet amplitude's autocorrelation must rebuild G
    w = 2.0
    r = np.linspace(0.0, 30 * w, 1024)
    dr = r[1] - r[0]
    G = np.exp(-(r**2) / (2 * w**2))
    kernel = CoherenceKernel(
        beam=BEAM2,
        t=1.0,
        r=r,
        theta0=np.zeros(r.shape),
        values=np.clip(G, 1e-300, 1.0),
    )
    _, chi_q = chi_spectrum(kernel, "longitudinal")
    chi_x = np.fft.irfft(chi_q, 2 * (len(r) - 1)) / dr
    for lag in (0, 1, 5, 20, 80):
        corr = float(np.sum(chi_x * np.roll(chi_x, -lag))) * dr
        assert corr == pytest.approx(G[lag], abs=1e-6)


def test_chi_constant_kernel_is_delta():
    r = np.linspace(0.0, 100.0, 512)
    kernel = CoherenceKernel(
        beam=BEAM2, t=1.0, r=r, theta0=np.zeros(r.shape), values=np.ones(r.shape)
    )
    k, chi_q = chi_spectrum(kernel, "longitudinal")
    assert chi_q[0] > 0.0
    assert np.all(chi_q[1:] == 0.0)


def test_chi_spectrum_input_contracts():
    r = np.linspace(0.0, 10.0, 64)
    kernel = CoherenceKernel(
        beam=BEAM2, t=1.0, r=r, theta0=np.zeros(r.shape), values=np.exp(-r)
    )
    with pytest.raises(DomainError):
        chi_spectrum(kernel, "sideways")
    bad_r = np.logspace(-2, 1, 64)
    bad = CoherenceKernel(
        beam=BEAM2, t=1.0, r=bad_r, theta0=np.zeros(64), values=np.exp(-bad_r)
    )
    with pytest.raises(DomainError):
        chi_spectrum(bad, "transverse")


def test_chi_negativity_detection():
    # heavily oscillatory kernel is not a valid autocorrelation
    r = np.linspace(0.0, 50.0, 512)
    values = 0.5 + 0.5 * np.cos(r) * np.exp(-0.05 * r)
    values[0] = 1.0
    kernel = CoherenceKernel(
        beam=BEAM2, t=1.0, r=r, theta0=np.zeros(r.shape), values=np.clip(values, 1e-6, 1.0)
    )
    with pytest.raises(NegativityError):
        chi_spectrum(kernel, "longitudinal")


def test_width_unbounded_for_tiny_time():
    beam = BeamParams.from_gamma_radius(10.0, 1000.0)
    assert localization_width(beam, 1e-6, "transverse") == math.inf
    with pytest.raises(DomainError):
        localization_width(beam, -1.0, "transverse")
    with pytest.raises(DomainError):
        localization_width(beam, 1.0, "radial")


def test_width_shrinks_with_time():
    beam = BeamParams.from_gamma_radius(10.0, 1000.0)
    w1 = localization_width(beam, 1e5, "transverse")
    w2 = localization_width(beam, 1e7, "transverse")
    assert 0.0 < w2 < w1


def test_localization_time_fixed_point():
    beam = BeamParams.from_gamma_radius(10.0, 1000.0)
    t_star = 1e6
    w_star = localization_width(beam, t_star, "transverse")
    t_au, t_s = localization_time(beam, w_star, "transverse")
    assert t_au == pytest.approx(t_star, rel=0.2)
    assert t_s == pytest.approx(t_au * 2.4188843265857e-17, rel=1e-12)
    with pytest.raises(RangeError):
        localization_time(beam, 1e30, "transverse")
    with pytest.raises(DomainError):
        localization_time(beam, -1.0, "transverse")


def test_s_averaged_cold_and_warm_calls_agree():
    beam = BeamParams.from_gamma_radius(3.0, 700.0)  # used nowhere else: cold
    r = np.logspace(-1, 5, 33)
    cold = s_averaged(r, 0.4, 7.0, beam)
    warm = s_averaged(r, 0.4, 7.0, beam)
    assert np.array_equal(cold, warm)
    cold[:] = -1.0  # the caller's array is its own, not the cached samples
    assert np.array_equal(s_averaged(r, 0.4, 7.0, beam), warm)


def test_s_averaged_does_not_keep_grids_above_the_cache_bound():
    res = dict(n_exact=4, per_decade=8, n_theta=4)  # a small mode table
    r = np.logspace(-1, 6, decoherence._FIELD_CACHE_POINTS + 1)
    before = decoherence._field_profile.cache_info().currsize
    big = s_averaged(r, 0.5, 3.0, BEAM2, **res)
    assert decoherence._field_profile.cache_info().currsize == before
    head = s_averaged(r[:64], 0.5, 3.0, BEAM2, **res)
    np.testing.assert_allclose(big[:64], head, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=1e-6, max_value=1e16))
def test_s_averaged_scales_cached_profile_by_t(t):
    r = np.logspace(-1, 6, 17)
    np.testing.assert_array_max_ulp(
        s_averaged(r, 1.2, t, BEAM2), t * s_averaged(r, 1.2, 1.0, BEAM2), maxulp=4
    )


def test_alternating_beams_keep_their_own_cache_entries():
    beams = (
        BeamParams.from_gamma_radius(10.0, 1000.0),
        BeamParams.from_gamma_radius(14.0, 1900.0),
    )
    r = np.logspace(0, 4, 9)
    times = (1e5, 1e6, 1e7)
    decoherence._width_lattice.cache_clear()
    alone = {}
    for beam in beams:
        alone[beam] = [localization_width(beam, t, "transverse") for t in times]
        decoherence._width_lattice.cache_clear()
    for t in times:
        for beam in beams:
            assert localization_width(beam, t, "transverse") == alone[beam][times.index(t)]
            table = decoherence._mode_table(beam, 512, 48, 48)
            direct = t * decoherence._profile(table, r, 0.3)
            assert np.array_equal(s_averaged(r, 0.3, t, beam), direct)
    # every cached lattice node is the profile of its own beam's mode table
    for beam in beams:
        table = decoherence._mode_table(beam, **decoherence._WIDTH_RES)
        lattice = decoherence._width_lattice(beam, math.pi / 2)
        assert lattice._blocks
        for b, cached in lattice._blocks.items():
            nodes = np.arange(b * decoherence._BLOCK, (b + 1) * decoherence._BLOCK)
            r_nodes = np.exp(nodes * decoherence._LOG_STEP)
            assert np.array_equal(cached, decoherence._profile(table, r_nodes, math.pi / 2))
    # entries are keyed by the beam's value, not by the object
    twin = BeamParams.from_gamma_radius(10.0, 1000.0)
    assert twin is not beams[0]
    assert decoherence._width_lattice(twin, 0.0) is decoherence._width_lattice(beams[0], 0.0)


# widths of the uncached solver (60-step radius bisection, 512-node
# interpolant per call, 2^k-point kernel samples), FIAN_60
_FIAN_WIDTHS = {
    1e9: (1.6903938483283039, 3229.5758438553744),
    1e10: (0.5255757643234427, 1017.0246795458017),
    1e12: (0.052544194904616114, 101.69707819349878),
    1e14: (0.005254419342601698, 10.16970775938106),
}


@pytest.mark.parametrize("t", sorted(_FIAN_WIDTHS))
def test_fian60_widths_match_uncached_solver(t):
    beam = beam_from_lab(FIAN_60)
    for axis, want in zip(("transverse", "longitudinal"), _FIAN_WIDTHS[t]):
        assert localization_width(beam, t, axis) == pytest.approx(want, rel=1e-4)


def test_width_at_interpolant_range_edge_is_finite():
    # the interpolant is evaluated at exactly r_max; at this time the exp/log
    # round trip once put that point one rounding step outside its range
    beam = beam_from_lab(FIAN_60)
    w = localization_width(beam, 22248365056205.754, "longitudinal")
    w_early = localization_width(beam, 10.0**13.3, "longitudinal")
    w_late = localization_width(beam, 10.0**13.4, "longitudinal")
    assert math.isfinite(w)
    assert w_late < w < w_early


def _mode_table_loop(beam, n_exact, per_decade, n_theta):
    """The mode table built one harmonic at a time: the reference the blocked
    array evaluation must reproduce bit for bit."""
    n_cap = max(64, int(50 * beam.gamma**3))
    n_exact = min(n_exact, n_cap)
    n_vals = [float(k) for k in range(1, n_exact + 1)]
    n_wts = [1.0] * n_exact
    if n_cap > n_exact:
        lo, hi = n_exact + 0.5, n_cap + 0.5
        m = max(8, int(per_decade * math.log10(hi / lo)))
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), m))
        h = math.log(hi / lo) / (m - 1)
        tw = np.full(m, h)
        tw[0] = tw[-1] = h / 2.0
        n_vals.extend(grid.tolist())
        n_wts.extend((tw * grid).tolist())
    ks, ss, us, ws = [], [], [], []
    pref = beam.Z**2 * beam.omega0 / C_AU
    for n, wn in zip(n_vals, n_wts):
        width = math.sqrt(1.0 / beam.gamma**2 + (2.0 / n) ** (2.0 / 3.0))
        umax = min(1.0, 8.0 * width)
        u, wt = gauss_nodes(0.0, umax, n_theta)
        s2 = 1.0 - u**2
        s = np.sqrt(s2)
        x = n * beam.beta * s
        jn = scipy.special.jv(n, x)
        jnp = scipy.special.jvp(n, x, 1)
        bracket = (u**2 / s2) * jn**2 + beam.beta**2 * jnp**2
        ks.append(np.full(n_theta, n * beam.omega0 / C_AU))
        ss.append(s)
        us.append(u)
        ws.append(2.0 * pref * n * wn * wt * bracket)
    return tuple(np.concatenate(a) for a in (ks, ss, us, ws))


@pytest.mark.parametrize(
    "resolution",
    [(512, 48, 48), tuple(decoherence._WIDTH_RES[k] for k in ("n_exact", "per_decade", "n_theta"))],
)
def test_mode_table_equals_per_harmonic_loop(resolution):
    beam = beam_from_lab(FIAN_60)
    got = decoherence._mode_table(beam, *resolution)
    want = _mode_table_loop(beam, *resolution)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
