"""Decoherence exponent, coherence kernel, and localization widths."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synchrad import decoherence, numerics, semiclassical
from synchrad.decoherence import (
    CoherenceKernel,
    localization_time,
    localization_width,
    s_averaged,
    s_ultrarel,
)
from synchrad.errors import (
    ConvergenceError,
    DomainError,
    NegativityError,
    RangeError,
    UncertifiedWidthWarning,
)
from synchrad.numerics import gauss_nodes
from synchrad.semiclassical import total_photon_rate
from synchrad.units import C_AU, FIAN_60, GAMMA_MAX, BeamParams, beam_from_lab


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
            assert got == pytest.approx(ref, rel=0.05, abs=0.0)


def test_ultrarel_matches_harmonic_sum_at_gamma_1e8():
    # 1 - beta^2 from the float beta is 2.2 gamma^-2 here, which puts the two
    # sums 2% apart unless both take 1 - beta^2 sin^2 as gamma^-2 + beta^2 u^2
    beam = BeamParams.from_gamma_radius(1e8, 1e9)
    r = 1e9 / beam.gamma**2 * np.array([1e-2, 1.0, 1e2])
    ref = s_averaged(r, math.pi / 2, 1.0, beam)
    got = s_ultrarel(r, math.pi / 2, 1.0, beam)
    assert np.all(np.abs(got / ref - 1.0) <= 1e-3)


def test_ultrarel_epsilon_plateau():
    beam = BeamParams.from_gamma_radius(1000.0, 3.78e10)
    r = 30.0 * C_AU / (beam.omega0 * beam.gamma**3)
    a = s_ultrarel(r, 0.8, 1.0, beam, epsilon=0.08)
    b = s_ultrarel(r, 0.8, 1.0, beam, epsilon=0.12)
    assert abs(a - b) < 0.02 * abs(a)


def test_ultrarel_and_averaged_share_the_scalar_contract():
    # a float only for a scalar r: a one-element array stays an array
    beam = BeamParams.from_gamma_radius(1000.0, 3.78e10)
    for s_of in (s_averaged, s_ultrarel):
        one = s_of(np.array([5.0]), 0.8, 1.0, beam)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        scalar = s_of(5.0, 0.8, 1.0, beam)
        assert isinstance(scalar, float) and scalar == one[0]
        assert s_of(np.array([[5.0, 6.0], [7.0, 8.0]]), 0.8, 1.0, beam).shape == (2, 2)


def test_ultrarel_validity_warning():
    beam = BeamParams.from_gamma_radius(1000.0, 3.78e10)
    with pytest.warns(UserWarning, match="validity"):
        s_ultrarel(1.0, 0.5, 1.0, beam, epsilon=0.001)


@settings(max_examples=25, deadline=None)
@given(
    mults=st.lists(st.floats(1e-12, 1e-7), min_size=1, max_size=4),
    theta0=st.one_of(st.sampled_from([math.pi / 2, 0.0, 0.7]), st.floats(0.0, math.pi)),
)
def test_small_separation_law_is_quadratic(mults, theta0):
    # far below the shortest emitted wavelength S is sum W (k r)^2 (...), so
    # S / r^2 is constant; a kernel that forms 1 - J0 cos directly cancels
    # there and reads 0 or orders of magnitude off
    beam = BeamParams.from_gamma_radius(1000.0, 3.78e10)
    r_scale = C_AU / (beam.omega0 * beam.gamma**3)
    r = np.array([0.0, 1e-12, *mults]) * r_scale
    for s_of in (s_averaged, s_ultrarel):
        s = s_of(r, theta0, 1.0, beam)
        assert s[0] == 0.0
        law = s[1:] / r[1:] ** 2
        assert law[0] > 0.0
        np.testing.assert_allclose(law, law[0], rtol=1e-9, atol=0.0)


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
    assert t_s == pytest.approx(t_au * 2.4188843265857e-17, rel=1e-12, abs=0.0)
    with pytest.raises(RangeError):
        localization_time(beam, 1e30, "transverse")
    with pytest.raises(DomainError):
        localization_time(beam, -1.0, "transverse")


def test_localization_time_onset_search_stops_at_its_tolerance(monkeypatch):
    beam = BeamParams.from_gamma_radius(10.0, 1000.0)
    w_star = localization_width(beam, 1e6, "transverse")
    calls = []

    def counted(b, t, axis):
        calls.append(t)
        return localization_width(b, t, axis)

    monkeypatch.setattr(decoherence, "localization_width", counted)
    localization_time(beam, w_star, "transverse")
    # bisecting log t over [1, 1e20] down to a ratio of 1 + 1e-3 takes 16
    # halvings
    assert len(calls) < 30


def test_localization_time_raises_when_the_iteration_does_not_settle(monkeypatch):
    beam = BeamParams.from_gamma_radius(10.0, 1000.0)
    target = 1.0
    times = []

    def oscillating(b, t, axis):
        # 1.5 and 0.5 times the target on alternate calls between the bracket
        # ends: the iterate never lands within rel_tol of the target
        times.append(t)
        if t in (1.0, 1e20):
            return 10.0 if t == 1.0 else 0.1
        return target * (1.5 if len(times) % 2 else 0.5)

    monkeypatch.setattr(decoherence, "localization_width", oscillating)
    with pytest.raises(ConvergenceError) as info:
        localization_time(beam, target, "transverse")
    assert info.value.best_estimate in times[2:]
    assert info.value.error_estimate == pytest.approx(0.5)


def test_s_averaged_cold_and_warm_calls_agree():
    beam = BeamParams.from_gamma_radius(3.0, 700.0)  # used nowhere else: cold
    r = np.logspace(-1, 5, 33)
    cold = s_averaged(r, 0.4, 7.0, beam)
    warm = s_averaged(r, 0.4, 7.0, beam)
    assert np.array_equal(cold, warm)
    cold[:] = -1.0  # the caller's array is its own, not the cached samples
    assert np.array_equal(s_averaged(r, 0.4, 7.0, beam), warm)


def test_s_averaged_does_not_keep_grids_above_the_cache_bound(monkeypatch):
    monkeypatch.setattr(decoherence, "_FIELD_CACHE_POINTS", 64)  # a small grid is "large"
    r = np.logspace(-1, 6, 65)
    before = decoherence._field_profile.cache_info().currsize
    big = s_averaged(r, 0.5, 3.0, BEAM2)
    assert decoherence._field_profile.cache_info().currsize == before
    head = s_averaged(r[:64], 0.5, 3.0, BEAM2)
    assert np.array_equal(big[:64], head)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=1e-6, max_value=1e16))
def test_s_averaged_scales_cached_profile_by_t(t):
    r = np.logspace(-1, 6, 17)
    np.testing.assert_array_max_ulp(
        s_averaged(r, 1.2, t, BEAM2), t * s_averaged(r, 1.2, 1.0, BEAM2), maxulp=4
    )


@settings(max_examples=25, deadline=None)
@given(
    log_gamma=st.floats(0.0, math.log(GAMMA_MAX)),
    log_radius=st.floats(math.log(1e-3), math.log(1e12)),
)
def test_s_vanishes_at_zero_separation_on_both_axes(log_gamma, log_radius):
    beam = BeamParams.from_gamma_radius(min(math.exp(log_gamma), GAMMA_MAX), math.exp(log_radius))
    table = decoherence._mode_table(beam, 16, 8, 8)  # a small mode table
    for theta0 in (math.pi / 2.0, 0.0):
        assert decoherence._profile(table, 0.0, theta0)[0] == 0.0


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(
        st.one_of(
            st.floats(math.log(1e-8), math.log(50.0)).map(math.exp),
            st.floats(0.3, 0.7),
            st.floats(1e-8, 50.0),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_one_minus_j0_matches_mpmath(x):
    # 1 - J0 at 40 digits, on both sides of the series switch at 0.5, as the
    # kernel forms it: one unit mode (k = s = W = 1, u = 0) across the plane
    # makes s1(r) = 1 - J0(r)
    unit = (np.ones(1), np.ones(1), np.zeros(1), np.ones(1))
    got = decoherence._profile(unit, x, math.pi / 2)
    with mpmath.workdps(40):
        for xi, gi in zip(x, got):
            want = 1 - mpmath.besselj(0, mpmath.mpf(xi))
            assert abs(float((mpmath.mpf(float(gi)) - want) / want)) <= 1e-14


def _row_profile(table, r, theta0):
    """s1 with each separation's unit factor formed whole by one np.where
    expression and summed as np.sum(factor * W)."""
    k, s, u, W = table
    sin0, cos0 = math.sin(theta0), math.cos(theta0)
    out = []
    for ri in r:
        m = h = 0.0
        if abs(sin0) > 1e-12:
            x = ri * (k * s * sin0)
            y = x * x
            series = y * -((-0.25) ** 7 / math.factorial(7) ** 2)
            for n in range(6, 0, -1):
                series = (series - (-0.25) ** n / math.factorial(n) ** 2) * y
            m = np.where(np.abs(x) < 0.5, series, 1.0 - scipy.special.j0(x))
        if abs(cos0) > 1e-12:
            h = 2.0 * np.sin(ri * (k * u * cos0) / 2.0) ** 2
        out.append(np.sum((m + h - m * h) * W))
    return np.array(out)


@settings(max_examples=40, deadline=None)
@given(
    theta0=st.one_of(st.sampled_from([0.0, math.pi / 2.0]), st.floats(-math.pi, math.pi)),
    modes=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
    stretch=st.floats(0.5, 2.0),
    far=st.lists(st.floats(-4.0, 8.0), max_size=8),
)
def test_profile_rows_are_independent(theta0, modes, stretch, far):
    # r holds 0, separations whose J0 arguments straddle the series switch at
    # 0.5 for a few modes, and log-uniform ones; each value is the bits of
    # its own single-separation call and of the row formed whole
    table = decoherence._mode_table(BEAM2, 16, 8, 8)
    k, s = table[0], table[1]
    modes = np.array(modes) % len(k)
    scale = abs(math.sin(theta0)) if abs(math.sin(theta0)) > 1e-12 else 1.0
    switch = 0.5 / (k[modes] * s[modes] * scale)
    r = np.concatenate([[0.0], switch * stretch, switch / stretch, 10.0 ** np.array(far)])
    got = decoherence._profile(table, r, theta0)
    single = np.concatenate([decoherence._profile(table, [ri], theta0) for ri in r])
    assert np.array_equal(got, single)
    assert np.array_equal(got, _row_profile(table, r, theta0))


@settings(max_examples=20, deadline=None)
@given(
    theta0=st.sampled_from([0.0, math.pi / 2.0, -math.pi / 2.0, 1.0, -1.0, math.pi, -math.pi]),
    tie=st.integers(0, 10**6),
    modes=st.lists(st.integers(0, 10**6), max_size=3),
    far=st.lists(st.floats(-6.0, 16.0), max_size=4),
)
def test_profile_runs_match_the_whole_row_on_fian60(theta0, tie, modes, far):
    # the width table of FIAN_60 (6,504 modes ordered by k s) with one mode
    # doubled, so that k s has an exact tie, at separations that put the
    # series switch at 0.5 exactly on, and a float either side of, the
    # first and last modes, both modes of the tie, both modes of the closest
    # pair in k s and any chosen mode: the split of each row into a series
    # run and a j0 run gives each value the bits of the row formed whole and
    # of its own single-separation call, for every sign of theta0
    table = decoherence._mode_table(beam_from_lab(FIAN_60), **decoherence._WIDTH_RES)
    tie %= len(table[0])
    table = tuple(np.insert(a, tie, a[tie]) for a in table)
    k, s = table[0], table[1]
    ks = k * s
    assert np.all(np.diff(ks) >= 0)
    gap = np.diff(ks) / ks[1:]
    gap[tie] = math.inf  # the tie itself
    close = int(np.argmin(gap))
    picks = np.array([0, len(k) - 1, tie, tie + 1, close, close + 1, *modes]) % len(k)
    scale = abs(math.sin(theta0)) if abs(math.sin(theta0)) > 1e-12 else 1.0
    switch = 0.5 / (ks[picks] * scale)
    r = np.concatenate([
        [0.0], switch, np.nextafter(switch, 0.0), np.nextafter(switch, math.inf), 10.0 ** np.array(far)
    ])
    got = decoherence._profile(table, r, theta0)
    single = np.concatenate([decoherence._profile(table, [ri], theta0) for ri in r])
    assert np.array_equal(got, single)
    assert np.array_equal(got, _row_profile(table, r, theta0))
    # a unit weight on one picked mode makes s1 that mode's factor alone, so
    # its bits are checked without the rest of the row's sum to hide them
    for i in np.unique(picks):
        one = (*table[:3], np.where(np.arange(len(k)) == i, 1.0, 0.0))
        assert np.array_equal(decoherence._profile(one, r, theta0), _row_profile(one, r, theta0))


def test_profile_peak_memory_stays_under_2_5_mb():
    # the kernel holds at most five rows as long as the mode table (0.35 MB
    # each at 43,824 modes), at theta0 = 0.3: the phase rates a and b/2 and
    # the work rows f, h and m h.  These three calls peak at 1.76 MB (1.41,
    # 1.06 and 1.76 MB alone), so three more rows fail
    beam = beam_from_lab(FIAN_60)
    r = np.concatenate([[0.0], np.exp(np.linspace(math.log(1e-3), math.log(1e7), 128))])
    decoherence._mode_table(beam, **decoherence._FIELD_RES)
    decoherence._field_profile.cache_clear()
    tracemalloc.start()
    try:
        for theta0 in (math.pi / 2.0, 0.0, 0.3):
            s_averaged(r, theta0, 1e10, beam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


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
            table = decoherence._mode_table(beam, **decoherence._FIELD_RES)
            direct = t * decoherence._profile(table, r, 0.3)
            assert np.array_equal(s_averaged(r, 0.3, t, beam), direct)
    # every computed lattice node is the profile of its own beam's mode table
    for beam in beams:
        table = decoherence._mode_table(beam, **decoherence._WIDTH_RES)
        lattice = decoherence._width_lattice(beam, math.pi / 2)
        done = np.flatnonzero(~np.isnan(lattice._s1))
        assert done.size
        r_nodes = np.exp((done + decoherence._NODE_RANGE[0]) * decoherence._LOG_STEP)
        assert np.array_equal(lattice._s1[done], decoherence._profile(table, r_nodes, math.pi / 2))
    # entries are keyed by the beam's value, not by the object
    twin = BeamParams.from_gamma_radius(10.0, 1000.0)
    assert twin is not beams[0]
    assert decoherence._width_lattice(twin, 0.0) is decoherence._width_lattice(beams[0], 0.0)


def test_lattice_raises_outside_the_nodes_widths_reach():
    lattice = decoherence._Lattice(BEAM2, math.pi / 2)
    lo, hi = decoherence._NODE_RANGE
    for j_lo, j_hi in ((lo - 1, lo), (hi, hi + 1), (lo + 1, lo)):
        with pytest.raises(IndexError):
            lattice.span(j_lo, j_hi)
    assert np.isnan(lattice._s1).all()
    assert np.array_equal(lattice.span(lo, lo + 1), decoherence._profile(
        lattice.table, np.exp(np.arange(lo, lo + 2) * decoherence._LOG_STEP), math.pi / 2
    ))


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


# FIAN_60 values as the kernel gave them on the mode table in harmonic order:
# S(r) at t = 1e10 per theta0 at _PINNED_R, and (transverse, longitudinal)
# widths per t with their certified flags
_PINNED_R = (1e-3, 1.0, 1e2, 1e4, 1e5, 1e6, 1e7)
_PINNED_S = {
    math.pi / 2: (
        4.5275764254891754e-07, 0.450805265117243, 219.4812601382462, 442.66218783815805,
        477.98829905593084, 494.0573500104419, 501.1421558272589,
    ),
    0.0: (
        1.2086450694374725e-13, 1.208645068812403e-07, 0.0012086388187695814, 11.496394125126285,
        238.81835910119688, 424.91087992395234, 488.54460354788625,
    ),
    0.7: (
        1.8790193098979068e-07, 0.18756452562262088, 181.43078129438703, 432.3132064676733,
        472.5990611112278, 491.4600233929037, 500.4521082995749,
    ),
}
_PINNED_WIDTHS = {
    1e8: ((18091.42460461279, False), (29805.66940931257, False)),
    1e9: ((1.6903845673372047, True), (3229.5466372936417, True)),
    1e10: ((0.5255711535430255, True), (1017.0153925100464, True)),
    1e12: ((0.05254370015510543, True), (101.69612027923458, True)),
    1e14: ((0.005254369828898481, True), (10.16961193709223, True)),
}


def test_fian60_s_and_widths_keep_their_values():
    # a change that only reorders sums moves S by a few ulps and the widths
    # by about 1e-14; another numpy dispatch level moves them by 1.7e-13 and
    # 7.6e-13, inside both bounds here
    beam = beam_from_lab(FIAN_60)
    for theta0, want in _PINNED_S.items():
        got = s_averaged(np.array(_PINNED_R), theta0, 1e10, beam)
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UncertifiedWidthWarning)
        for t, want in _PINNED_WIDTHS.items():
            for axis, (width, certified) in zip(("transverse", "longitudinal"), want):
                got = localization_width(beam, t, axis)
                assert got == pytest.approx(width, rel=2e-12, abs=0.0)
                assert got.certified == certified


def test_width_at_interpolant_range_edge_is_finite():
    # the interpolant is evaluated at exactly r_max; at this time the exp/log
    # round trip once put that point one rounding step outside its range
    beam = beam_from_lab(FIAN_60)
    w = localization_width(beam, 22248365056205.754, "longitudinal")
    w_early = localization_width(beam, 10.0**13.3, "longitudinal")
    w_late = localization_width(beam, 10.0**13.4, "longitudinal")
    assert math.isfinite(w)
    assert w_late < w < w_early


def _log_kernel(r_lo, r_max, values_of):
    """A kernel slice on the transform's node layout: r = 0, then 400 nodes
    per decade from r_lo, then r_max."""
    h = decoherence._LOG_STEP / decoherence._SUB
    nodes = np.exp(np.arange(math.floor(math.log(r_lo) / h), math.ceil(math.log(r_max) / h)) * h)
    r = np.concatenate([[0.0], nodes[nodes < r_max * (1.0 - 1e-9)], [r_max]])
    values = np.clip(values_of(r), 1e-300, 1.0)
    return CoherenceKernel(r=r, values=values)


@pytest.mark.parametrize("a", [1e-4, 0.01, 0.3])
def test_two_scale_kernel_width_matches_parseval_integral(a):
    # G = (1 - a) exp(-r^2 / 2 s1^2) + a exp(-r^2 / 2 s2^2) with s2 / s1 = 1e5:
    # G^(q) = sqrt(2 pi) ((1 - a) s1 exp(-q^2 s1^2 / 2) + a s2 exp(-q^2 s2^2 / 2))
    # and <x^2> = int (G^')^2 / (4 G^) dq / int G^ dq over q >= 0
    s1, s2 = 1.0, 1e5

    def g_hat(q):
        return math.sqrt(2 * math.pi) * (
            (1 - a) * s1 * math.exp(-((q * s1) ** 2) / 2) + a * s2 * math.exp(-((q * s2) ** 2) / 2)
        )

    def g_hat_prime(q):
        return -math.sqrt(2 * math.pi) * q * (
            (1 - a) * s1**3 * math.exp(-((q * s1) ** 2) / 2)
            + a * s2**3 * math.exp(-((q * s2) ** 2) / 2)
        )

    breaks = [0.0, 1 / s2, 10 / s2, 1 / s1, 10 / s1, 30 / s1]
    pieces = list(zip(breaks, breaks[1:]))

    def spread(q):
        return g_hat_prime(q) ** 2 / (4 * g_hat(q))

    num = sum(scipy.integrate.quad(spread, lo, hi, epsrel=1e-12)[0] for lo, hi in pieces)
    den = sum(scipy.integrate.quad(g_hat, lo, hi, epsrel=1e-12)[0] for lo, hi in pieces)
    want = math.sqrt(num / den)

    kernel = _log_kernel(
        1e-3 * s1,
        10 * s2,
        lambda r: (1 - a) * np.exp(-(r**2) / (2 * s1**2)) + a * np.exp(-(r**2) / (2 * s2**2)),
    )
    assert len(kernel.r) < 10_000
    width, rel_error = decoherence._width_from_kernel(kernel)
    assert width == pytest.approx(want, rel=2e-5)
    # the error estimate is an upper bound here, and certifies the width
    assert abs(width / want - 1) <= rel_error <= decoherence._WIDTH_RTOL


def test_width_from_kernel_contracts():
    with pytest.raises(DomainError):
        localization_width(BEAM2, 1e3, "sideways")
    r = np.linspace(0.0, 40.0, 64)
    uniform = CoherenceKernel(r=r, values=np.exp(-r / 2))
    with pytest.raises(DomainError):
        decoherence._width_from_kernel(uniform)
    # heavily oscillatory kernel is not a valid autocorrelation
    ringing = _log_kernel(
        1e-3, 50.0, lambda r: np.where(r == 0, 1.0, 0.5 + 0.5 * np.cos(r) * np.exp(-0.05 * r))
    )
    with pytest.raises(NegativityError):
        decoherence._width_from_kernel(ringing)
    # a constant kernel (no emission yet) has no localized part to transform
    with pytest.raises(NegativityError, match="no decay"):
        decoherence._width_from_kernel(_log_kernel(1e-3, 40.0, np.ones_like))


def test_width_of_a_kernel_cut_before_it_decays_is_not_certified():
    # cut at 3 sigma, G(R) = e^-4.5: the half-radius check moves the width
    width, rel_error = decoherence._width_from_kernel(
        _log_kernel(1e-3, 3.0, lambda r: np.exp(-(r**2) / 2))
    )
    assert rel_error > decoherence._WIDTH_RTOL
    width, rel_error = decoherence._width_from_kernel(
        _log_kernel(1e-3, 12.0, lambda r: np.exp(-(r**2) / 2))
    )
    assert width == pytest.approx(0.5, rel=1e-5) and rel_error <= decoherence._WIDTH_RTOL


def _separate_transform(r, g, log_q, h):
    """G^(0) and G^ at q = exp(log_q) of the piecewise-linear g through r by
    Filon's rule, on its own sin^2 table at the phases q_0 r_1 exp(i h) and
    its own window product: the width solve's transform as three separate
    calls made it."""
    slope = np.diff(g) / np.diff(r)
    stride = round((log_q[1] - log_q[0]) / h)
    n = len(r) - 2
    i = np.arange(stride * (len(log_q) - 1) + n)
    table = np.sin(0.5 * np.exp(log_q[0] + math.log(r[1]) + i * h)) ** 2
    window = np.lib.stride_tricks.sliding_window_view(table, n)[::stride]
    q = np.exp(log_q)
    total = window @ (slope[:-1] - slope[1:]) + slope[-1] * np.sin(0.5 * q * r[-1]) ** 2
    return float(np.sum((g[1:] + g[:-1]) * np.diff(r))), -4.0 * total / q**2


def _separate_widths(kernel):
    """The width and its three checks (every other node, every other
    wavenumber, the kernel cut at R/2), each from its own transform."""
    r, values = kernel.r, kernel.values
    log_r = np.log(r[1:-1])
    h = (log_r[-1] - log_r[0]) / (len(log_r) - 1)
    g = decoherence._plateau_free(r, values)
    r_e = r[np.argmax(g <= g[0] / math.e)]
    q_step = decoherence._Q_STRIDE * h
    log_q = np.arange(
        math.log(decoherence._Q_LO / r[-1]), math.log(decoherence._Q_HI / r_e) + q_step, q_step
    )
    # the step in log r of the phases, as r[2] / r[1] gives it; the coarse
    # nodes take twice that, not log(r[3] / r[1]), whose own rounding would
    # move its high-q phases, and that check, by up to about 2e-12
    h_r = math.log(r[2] / r[1])
    g_hat_0, g_hat = _separate_transform(r, g, log_q, h_r)
    coarse = np.r_[0, np.arange(1, len(r) - 1, 2), len(r) - 1]
    m = np.searchsorted(r, 0.5 * r[-1], side="right")
    g_half = decoherence._plateau_free(r[:m], values[:m])
    return [
        decoherence._parseval_width(log_q, g_hat_0, g_hat),
        decoherence._parseval_width(log_q, *_separate_transform(r[coarse], g[coarse], log_q, 2 * h_r)),
        decoherence._parseval_width(log_q[::2], g_hat_0, g_hat[::2]),
        decoherence._parseval_width(log_q, *_separate_transform(r[:m], g_half, log_q, h_r)),
    ]


@settings(max_examples=40, deadline=None)
@given(
    log_r_lo=st.floats(-4.0, -1.0),
    log_ratio=st.floats(0.0, 4.0),
    log_cut=st.floats(0.3, 1.5),
    a=st.floats(0.0, 0.5),
    power=st.floats(1.0, 2.0),
)
def test_one_pass_width_equals_separate_transforms(log_r_lo, log_ratio, log_cut, a, power):
    # G = (1 - a) exp(-r^p) + a exp(-(r / s2)^p), positive definite for
    # 0 < p <= 2, on 400 nodes per decade from r_lo, cut at r_max past s2:
    # the width and each check from the one table and window equal those of
    # three separate transforms
    s2 = 10.0**log_ratio
    kernel = _log_kernel(
        10.0**log_r_lo,
        10.0**log_cut * s2,
        lambda r: (1 - a) * np.exp(-(r**power)) + a * np.exp(-((r / s2) ** power)),
    )
    widths = []
    parseval = decoherence._parseval_width
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            decoherence, "_parseval_width", lambda *args: widths.append(parseval(*args)) or widths[-1]
        )
        try:
            width, rel_error = decoherence._width_from_kernel(kernel)
        except NegativityError:
            assume(False)
    want = _separate_widths(kernel)
    assert widths[0] == width
    assert rel_error == max(abs(w / width - 1.0) for w in widths[1:])
    assert abs(width / want[0] - 1.0) <= 1e-13
    for got, ref in zip(widths[1:], want[1:]):
        assert abs(got / ref - 1.0) <= 1e-12


def test_lattice_node_reads_a_computed_node_without_a_profile_call(monkeypatch):
    calls = []
    profile = decoherence._profile
    monkeypatch.setattr(decoherence, "_profile", lambda *a: calls.append(a) or profile(*a))
    lattice = decoherence._Lattice(BEAM2, math.pi / 2)
    lo, hi = decoherence._NODE_RANGE
    for j in (lo, 0, 57, hi):
        first = lattice.node(j)  # not yet computed: one profile call
        assert len(calls) == 1
        assert first == lattice.span(j, j)[0]
        assert lattice.node(j) == first
        assert len(calls) == 1
        calls.clear()
    for j in (lo - 1, hi + 1):
        with pytest.raises(IndexError):
            lattice.node(j)


@pytest.mark.parametrize("theta0", [math.pi / 2, 0.0])
def test_scale_radius_is_the_same_on_an_empty_and_a_filled_lattice(theta0):
    filled = decoherence._Lattice(BEAM2, theta0)
    filled.span(*decoherence._NODE_RANGE)
    rate = filled.rate
    for t in (10.0 / rate, 1e3 / rate, 1e6 / rate):
        for target in (1.0, min(37.0, 0.98 * t * rate)):
            empty = decoherence._Lattice(BEAM2, theta0)
            got = decoherence._scale_radius(empty, t, target)
            assert got is not None and got == decoherence._scale_radius(filled, t, target)


@settings(max_examples=12, deadline=None)
@given(
    a=st.floats(min_value=8.88, max_value=14.0),
    b=st.floats(min_value=8.88, max_value=14.0),
    axis=st.sampled_from(["transverse", "longitudinal"]),
)
def test_fian60_widths_are_certified_and_shrink_with_time(a, b, axis):
    assume(abs(a - b) >= 0.01)
    beam = beam_from_lab(FIAN_60)
    early = localization_width(beam, 10.0 ** min(a, b), axis)
    late = localization_width(beam, 10.0 ** max(a, b), axis)
    assert early.certified and late.certified
    assert late < early


def test_fian60_width_shrinks_across_the_benchmark_probe_pair():
    beam = beam_from_lab(FIAN_60)
    for axis in ("transverse", "longitudinal"):
        w0 = localization_width(beam, 10.0**8.86, axis)
        w1 = localization_width(beam, 10.0**8.88, axis)
        assert w0.certified and w1.certified
        assert w1 < w0


def test_window_limited_width_is_flagged(monkeypatch):
    beam = beam_from_lab(FIAN_60)
    seen = []
    original = decoherence._width_from_kernel

    def recorded(kernel):
        seen.append(len(kernel.r))
        return original(kernel)

    monkeypatch.setattr(decoherence, "_width_from_kernel", recorded)
    with pytest.warns(UncertifiedWidthWarning) as caught:
        w = localization_width(beam, 1e8, "longitudinal")
    assert math.isfinite(w) and not w.certified
    assert caught[0].message.rel_error == w.rel_error > decoherence._WIDTH_RTOL
    assert max(seen) < 100_000  # no uniform grid over the 1e7-bohr window


def _mode_table_loop(beam, n_exact, per_decade, n_theta):
    """The mode table built one harmonic at a time: the reference the
    one-pass array evaluation must reproduce bit for bit."""
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
        width = math.sqrt(beam.gamma_m2 + (2.0 / n) ** (2.0 / 3.0))
        umax = min(1.0, 8.0 * width)
        u, wt = gauss_nodes(0.0, umax, n_theta)
        s2 = 1.0 - u**2
        s = np.sqrt(s2)
        x = n * beam.beta * s
        # J_n from the recurrence below the switch and from Olver's expansion
        # at and above it, as _schott_bracket forms them: this checks the
        # blocking, not the Bessel routine
        if n < semiclassical._OLVER_N:
            jn = x * (scipy.special.jv(n - 1, x) + scipy.special.jv(n + 1, x)) / (2.0 * n)
            jnp = scipy.special.jvp(n, x, 1)
        else:
            w = np.sqrt(beam.gamma_m2 + beam.beta**2 * (u * u))
            jn, jnp = semiclassical._olver_pair(np.full(n_theta, n), w, beam.beta * s)
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
    # FIAN_60, and beams at R = 1000 bohr from a tail-free field table
    # (gamma = 2) to tails that mix Olver's expansion in (1e4, 1e8), 3,264 to
    # 77,520 modes; the loop's arrays are permuted into _profile's order, the
    # stable sort of k s
    beams = [beam_from_lab(FIAN_60)]
    beams += [BeamParams.from_gamma_radius(gamma, 1000.0) for gamma in (2.0, 1e4, 1e8)]
    for beam in beams:
        got = decoherence._mode_table(beam, *resolution)
        want = _mode_table_loop(beam, *resolution)
        order = np.argsort(want[0] * want[1], kind="stable")
        for a, b in zip(got, want):
            assert np.array_equal(a, b[order])


def test_profile_tables_are_ordered(monkeypatch):
    # _profile splits each row at one index because both table builders
    # order their modes by k s: _mode_table at the field and width
    # resolutions, and the Airy table s_ultrarel hands to _profile
    beams = [beam_from_lab(FIAN_60)]
    beams += [BeamParams.from_gamma_radius(gamma, 1000.0) for gamma in (2.0, 1e4, 1e8)]
    for beam in beams:
        for resolution in (decoherence._FIELD_RES, decoherence._WIDTH_RES):
            k, s, _, _ = decoherence._mode_table(beam, **resolution)
            assert np.all(np.diff(k * s) >= 0)
    seen = []
    profile = decoherence._profile

    def spy(table, r, theta0):
        seen.append(table)
        return profile(table, r, theta0)

    monkeypatch.setattr(decoherence, "_profile", spy)
    for gamma in (1e3, 1e8):
        s_ultrarel(1.0, math.pi / 2, 1e10, BeamParams.from_gamma_radius(gamma, 1000.0))
    assert len(seen) == 2
    for k, s, _, _ in seen:
        assert np.all(np.diff(k * s) >= 0)


@pytest.mark.parametrize("gamma", [1e4, 1e6, 1e8, 1e10, 1e12])
def test_mode_table_plateaus_match_the_total_photon_rate(gamma):
    # the weights sum to the plateau of s1: within 1.9e-8 (CLI resolution)
    # and 7.1e-7 (width resolution) of the totals at every gamma here
    beam = BeamParams.from_gamma_radius(gamma, 1e9)
    rate = total_photon_rate(beam)
    width_res = tuple(decoherence._WIDTH_RES[k] for k in ("n_exact", "per_decade", "n_theta"))
    for resolution in ((512, 48, 48), width_res):
        weights = decoherence._mode_table(beam, *resolution)[3]
        assert abs(math.fsum(weights) / rate - 1.0) <= 1e-6


def test_mode_table_makes_one_bessel_pass_at_the_width_resolution(monkeypatch):
    # the decoherence table keeps its own rule: 24 nodes per harmonic at
    # _WIDTH_RES, two jv calls per node below the switch to Olver's
    # expansion and one airy call per node at and above it, and no more
    beam = beam_from_lab(FIAN_60)
    res = decoherence._WIDTH_RES
    assert (res["n_exact"], res["per_decade"], res["n_theta"]) == (128, 16, 24)
    calls = {"jv": 0, "jvp": 0, "airy": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += np.size(args[0] if name == "airy" else args[1])
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(scipy.special, name, counted(name, getattr(scipy.special, name)))
    decoherence._mode_table.__wrapped__(beam, **res)
    tail = lambda lo, hi: numerics.log_trapezoid(lo, hi, 16, 8)
    n, _, _ = semiclassical._harmonic_grid(semiclassical._default_cap(beam), 128, tail)
    olver = np.count_nonzero(n >= semiclassical._OLVER_N)
    assert olver > 0
    assert calls == {"jv": 2 * (len(n) - olver) * 24, "jvp": 0, "airy": olver * 24}


def test_pchip_slopes_match_scipy():
    # the lattice interpolant's derivatives are SciPy's PCHIP on a uniform grid
    import scipy.interpolate

    rng = np.random.default_rng(7)
    h = decoherence._LOG_STEP
    for n in (4, 5, 9, 40):
        x = np.arange(n) * h
        rising = np.cumsum(rng.exponential(size=n))
        flat_start = np.r_[0.0, 0.0, rng.normal(size=n - 2)]
        for y in (rng.normal(size=n), rising, flat_start):
            want = scipy.interpolate.PchipInterpolator(x, y).derivative()(x)
            got = decoherence._pchip_slopes(y, h)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("t", [1e8, 1e10, 1e12])
def test_scale_radius_fraction_matches_brentq(monkeypatch, t):
    # the bisection in the step fraction agrees with SciPy's brentq (run to
    # its default xtol) on the FIAN_60 lattices at both radii a width uses
    import scipy.optimize

    steps = []
    step_root = decoherence._step_root

    def recorded(*args):
        steps.append((args, step_root(*args)))
        return steps[-1][1]

    monkeypatch.setattr(decoherence, "_step_root", recorded)
    beam = beam_from_lab(FIAN_60)
    for theta0 in (math.pi / 2, 0.0):
        lattice = decoherence._width_lattice(beam, theta0)
        for target in (1.0, min(37.0, 0.98 * t * lattice.rate)):
            assert decoherence._scale_radius(lattice, t, target) is not None
    assert len(steps) == 4
    for (a, b, da, db, y), frac in steps:
        step = lambda f: decoherence._hermite(a, b, da, db, decoherence._LOG_STEP, f) - y
        assert step(frac) < 0.0 <= step(np.nextafter(frac, 1.0))
        assert abs(frac - scipy.optimize.brentq(step, 0.0, 1.0)) <= 2e-12
