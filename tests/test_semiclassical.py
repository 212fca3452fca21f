"""Coherent-state emission layer: amplitudes, the correlation-integral rate,
the per-harmonic angular distribution, and radiated totals."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synchrad import numerics, semiclassical

from synchrad.corrections import PiecewiseConstantVelocity, corrected_photon_number
from synchrad.cli import main
from synchrad.errors import ConvergenceError, DomainError, RangeError
from synchrad.numerics import gauss_nodes
from synchrad.semiclassical import (
    CircularOrbit,
    PhotonMode,
    classical_power,
    rate_integrand,
    schott_angular_rate,
    spectral_sum,
    total_photon_rate,
    total_power,
    transverse_polarization_pairs,
)
from synchrad.units import C_AU, FIAN_60, GAMMA_MAX, BeamParams, beam_from_lab


def test_polarization_basis_orthonormal():
    for q in ([0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [0.3, -0.4, 0.5]):
        e1, e2 = (PhotonMode(alpha=alpha, q=np.array(q)).e_vec for alpha in (1, 2))
        n = np.array(q) / np.linalg.norm(q)
        for e in (e1, e2):
            assert abs(e @ n) < 1e-13
            assert np.linalg.norm(e) == pytest.approx(1.0, rel=1e-13, abs=0.0)
        assert abs(e1 @ e2) < 1e-13
    # along the field axis the pair is (x_hat, y_hat); every pair is right-handed
    e1, e2 = transverse_polarization_pairs(np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]))
    assert e1[0].tolist() == [1.0, 0.0, 0.0] and e2[0].tolist() == [0.0, 1.0, 0.0]
    assert np.allclose(np.cross(e1[1], e2[1]), [0.6, 0.0, 0.8], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    q=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).filter(lambda v: max(map(abs, v)) > 1e-100),
    alpha=st.sampled_from([1, 2]),
)
@example(q=[0.0, 0.0, -2.0], alpha=1)
@example(q=[0.0, 0.0, 2.0], alpha=2)
def test_photon_mode_polarization_is_formed_once(q, alpha):
    # e_vec is the basis vector of transverse_polarization_pairs, bit for bit,
    # read-only, the same object on every read, and no field of the record
    mode = PhotonMode(alpha=alpha, q=np.array(q))
    want = transverse_polarization_pairs(mode.q / math.hypot(*mode.q))[alpha - 1]
    assert mode.e_vec.tobytes() == want.tobytes()
    assert not mode.e_vec.flags.writeable
    assert mode.e_vec is mode.e_vec
    assert repr(mode) == f"PhotonMode(alpha={alpha}, q={mode.q!r})"
    assert mode == PhotonMode(alpha=alpha, q=mode.q)
    for bad in (np.zeros(3), [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [1.0, 2.0]):
        with pytest.raises(DomainError):
            PhotonMode(alpha=1, q=bad)


def test_uniform_velocity_amplitude_closed_form():
    # |Q|^2 = (Z g / c)^2 |e.v|^2 * 4 sin^2((omega - q.v) T / 2) / (omega - q.v)^2
    # for motion at constant velocity from t = 0; with v along x and q in the
    # xz plane, e.v vanishes for alpha = 1 and alpha = 2 carries the check.
    # T >= 100 puts a phase bound of 280 to 8,500 rad on the one piece, more
    # than 64 nodes resolve
    v = np.array([5.0, 0.0, 0.0])
    law = PiecewiseConstantVelocity(v, v, 0.0)
    q = 0.02 * np.array([0.6, 0.0, 0.8])
    for T, rel in ((3.7, 1e-12), (100.0, 1e-9), (1000.0, 1e-9), (3000.0, 1e-9)):
        for alpha in (1, 2):
            mode = PhotonMode(alpha=alpha, q=q)
            got = corrected_photon_number(law, mode, T, Z=1.3)
            dqv = mode.omega - float(q @ v)
            ev = float(mode.e_vec @ v)
            expect = (1.3 / C_AU) ** 2 * mode.g_squared * ev**2 * 4 * math.sin(dqv * T / 2) ** 2
            expect /= dqv**2
            assert got == pytest.approx(expect, rel=rel, abs=1e-30)
            assert (expect > 0.5) == (alpha == 2)


def test_amplitude_zero_at_domain_start():
    v = np.array([1.0, 0.0, 0.0])
    law = PiecewiseConstantVelocity(v, v, 0.0)
    mode = PhotonMode(alpha=2, q=[0.01, 0.0, 0.01])
    assert corrected_photon_number(law, mode, 0.0) == 0.0
    for t in (-1.0, -1e-300, math.nan):
        with pytest.raises(DomainError):
            corrected_photon_number(law, mode, t)


def test_circular_orbit_photon_number_per_period():
    # over N whole periods at omega = n omega0, the generating function
    # exp(-i x sin(phi)) = sum_k J_k(x) exp(-i k phi) leaves one term per
    # velocity component: Q = i (Z/c) g R omega0 N (2 pi / omega0)
    #   * (e_x n J_n(x) / x + i e_y J_n'(x)) with x = q_x R
    # n = 20 and 30 put 220 and 330 rad of phase bound on each one-period
    # piece, more than 64 nodes resolve
    beam = BeamParams.from_gamma_radius(gamma=1.5, R=300.0)
    law = CircularOrbit(beam)
    periods, theta = 4, 1.1
    t = periods * 2.0 * math.pi / beam.omega0
    for n, rel in ((3, 1e-12), (20, 1e-10), (30, 1e-10)):
        q = n * beam.omega0 / C_AU * np.array([math.sin(theta), 0.0, math.cos(theta)])
        x = q[0] * beam.R
        for alpha in (1, 2):
            mode = PhotonMode(alpha=alpha, q=q)
            ex, ey, _ = mode.e_vec
            bessel = ex * n * scipy.special.jv(n, x) / x + 1j * ey * scipy.special.jvp(n, x)
            amp = (1.0 / C_AU) * math.sqrt(mode.g_squared) * beam.R * beam.omega0 * t * bessel
            assert corrected_photon_number(law, mode, t) == pytest.approx(abs(amp) ** 2, rel=rel)


def test_rate_integrand_matches_period_averaged_form():
    # circular-orbit oracle written out from scratch: for q in the xz plane,
    # the polarization-summed correlation integrand at lag tau is
    # (Z^2/c^2) g^2 [v0^2 cos(w0 tau) - (q.v(a))(q.v(b))/q^2]
    #   * exp(i(omega tau - 2 q_x R sin(w0 tau / 2) cos(w0 (a+b)/2 - ...)))
    beam = BeamParams.from_gamma_radius(gamma=2.0, R=500.0)
    law = CircularOrbit(beam)
    R, w0, v = beam.R, beam.omega0, beam.v0
    theta = 1.1
    qmag = 3 * beam.omega0 / C_AU
    q = qmag * np.array([math.sin(theta), 0.0, math.cos(theta)])
    t = 2.0 / w0
    taus = (0.13, 1.7, -2.4)
    scalar = [rate_integrand(law, q, t, 1.0, tau) for tau in taus]
    # an array of lags gives the scalar calls' values bit for bit
    assert rate_integrand(law, q, t, 1.0, np.array(taus)).tolist() == scalar
    for tau, got in zip(taus, scalar):
        assert isinstance(got, complex) and np.shape(got) == ()
        a = t - abs(tau) / 2 + tau / 2
        b = t - abs(tau) / 2 - tau / 2
        va = R * w0 * np.array([math.cos(w0 * a), math.sin(w0 * a), 0.0])
        vb = R * w0 * np.array([math.cos(w0 * b), math.sin(w0 * b), 0.0])
        ra = R * np.array([math.sin(w0 * a), -math.cos(w0 * a), 0.0])
        rb = R * np.array([math.sin(w0 * b), -math.cos(w0 * b), 0.0])
        omega = C_AU * qmag
        g2 = 2 * math.pi * C_AU**2 / omega
        bracket = va @ vb - (q @ va) * (q @ vb) / (qmag**2)
        phase = omega * tau - q @ (ra - rb)
        expect = (1.0 / C_AU**2) * g2 * bracket * np.exp(1j * phase)
        assert got == pytest.approx(expect, rel=1e-10)
        # the velocity part reduces to v^2 cos(w0 tau) identically
        assert va @ vb == pytest.approx(v**2 * math.cos(w0 * tau), rel=1e-12)


def test_rate_integrand_requires_finite_momentum():
    beam = BeamParams.from_gamma_radius(gamma=2.0, R=500.0)
    for bad in (np.zeros(3), [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [1.0, 2.0]):
        with pytest.raises(DomainError):
            rate_integrand(CircularOrbit(beam), bad, 1.0, 1.0, 0.1)


def test_schott_forward_limits():
    beam = BeamParams.from_gamma_radius(gamma=1.5, R=300.0)
    # along the field axis only the fundamental survives
    pref = beam.Z**2 * 1 * beam.omega0 / (2 * math.pi * C_AU)
    want = pref * beam.beta**2 / 2
    assert schott_angular_rate(1, 0.0, beam) == pytest.approx(want, rel=1e-12, abs=0.0)
    for n in (2, 3, 7):
        assert schott_angular_rate(n, 0.0, beam) == 0.0
    with pytest.raises(DomainError):
        schott_angular_rate(0, 1.0, beam)


def test_schott_angular_rate_nonnegative():
    beam = BeamParams.from_gamma_radius(gamma=3.0, R=300.0)
    for n in (1, 2, 5, 20):
        for theta in np.linspace(0.0, math.pi, 17):
            assert schott_angular_rate(n, theta, beam) >= 0.0


_ANGLES = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))


@settings(max_examples=40, deadline=None)
@given(
    # harmonics on both sides of the switch to Olver's expansion
    ns=st.lists(
        st.one_of(st.integers(1, 2000), st.integers(999_990, 1_000_010), st.integers(1, 10**12)),
        min_size=1,
        max_size=5,
    ),
    thetas=st.lists(_ANGLES, min_size=1, max_size=5),
    log_gamma=st.floats(0.0, math.log(1e4)),
    bad=st.integers(-3, 0),
)
# a numpy scalar's ** 2 (pow) and the array square differed in the last bit here
@example(ns=[1], thetas=[1.0849010372213277], log_gamma=2.0, bad=0)
@example(ns=[999_999, 1_000_000, 10**10], thetas=[1.5707, 1.57, 0.3], log_gamma=7.0, bad=0)
def test_schott_angular_rate_array_contract(ns, thetas, log_gamma, bad):
    beam = BeamParams.from_gamma_radius(gamma=math.exp(log_gamma), R=1e4, Z=2.0)
    rates = schott_angular_rate(np.array(ns)[:, None], np.array(thetas), beam)
    assert rates.shape == (len(ns), len(thetas))
    # the mesh call is the scalar call at every node, bit for bit
    scalar = [[schott_angular_rate(n, theta, beam) for theta in thetas] for n in ns]
    assert all(isinstance(x, float) for row in scalar for x in row)
    assert rates.tolist() == scalar
    assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0)
    for i, n in enumerate(ns):
        for j, theta in enumerate(thetas):
            if abs(math.sin(theta)) < 1e-12:
                pref = beam.Z**2 * n * beam.omega0 / (2.0 * math.pi * C_AU)
                on_axis = pref * beam.beta**2 / 2.0 if n == 1 else 0.0
                assert rates[i, j] == pytest.approx(on_axis, rel=1e-15, abs=0.0)
    with pytest.raises(DomainError):
        schott_angular_rate(np.array(ns + [bad])[:, None], np.array(thetas), beam)


def test_harmonic_rate_against_independent_quadrature():
    # brute-force oracle for the closed form behind the harmonic rate:
    # int_0^pi sin(theta) [cot^2 J_n^2 + beta^2 J_n'^2] dtheta on a dense
    # trapezoid grid, with the integrand written out from scratch
    beam = BeamParams.from_gamma_radius(gamma=1.0 / math.sqrt(1 - 0.25), R=400.0)
    assert beam.beta == pytest.approx(0.5, rel=1e-12, abs=0.0)
    thetas = np.linspace(1e-6, math.pi - 1e-6, 20001)
    for n in (1, 2, 5, 12, 20):
        x = n * beam.beta * np.sin(thetas)
        jn = scipy.special.jv(n, x)
        jnp = scipy.special.jvp(n, x, 1)
        integrand = (
            (np.cos(thetas) ** 2 / np.sin(thetas) ** 2) * jn**2 + beam.beta**2 * jnp**2
        ) * np.sin(thetas)
        closed = semiclassical._schott_closed_form(beam, np.array([n], dtype=float).tobytes())
        assert float(closed[0]) == pytest.approx(np.trapezoid(integrand, thetas), rel=1e-6, abs=0.0)
    # at 2^51 the closed form's orders 2n -/+ 1 round to one float
    with pytest.raises(RangeError, match="harmonic"):
        semiclassical._schott_closed_form(beam, np.array([2.0**51]).tobytes())


@pytest.mark.parametrize("gamma", [1.01, 5.0, 1e3])
def test_angular_integrals_match_adaptive_quadrature(gamma):
    # against scipy's adaptive quad in theta
    beam = BeamParams.from_gamma_radius(gamma=gamma, R=1000.0)
    n = np.array([1.0, 2.0, 3.0, 7.0, 8.0, 9.0, 40.0])
    got = semiclassical._angular_integrals(beam, n.tobytes())
    for k, order in enumerate(n):
        def bracket(theta):
            x = order * beam.beta * math.sin(theta)
            jn, jnp = scipy.special.jv(order, x), scipy.special.jvp(order, x, 1)
            return math.cos(theta) ** 2 * jn**2 / math.sin(theta) ** 2 + beam.beta**2 * jnp**2

        want, _ = scipy.integrate.quad(
            lambda t: bracket(t) * math.sin(t),
            1e-9, math.pi - 1e-9, points=[math.pi / 2], epsabs=0.0, epsrel=1e-13, limit=400,
        )
        assert got[k] == pytest.approx(want, rel=1e-12, abs=0.0)


def _totals_grid(beam):
    # the totals' harmonic grid, as spectral_sum builds it
    tail = lambda lo, hi: numerics._log_panels(lo, hi, 2)
    return semiclassical._harmonic_grid(semiclassical._default_cap(beam), 512, tail)


def _totals_window(beam, monkeypatch):
    # the tail harmonics, the window edges as the totals' table passes them
    # to _emission, and the angular integrals over those windows
    n, _, _ = _totals_grid(beam)
    seen = []
    emission = semiclassical._emission

    def spy(n, umax, *args, **kwargs):
        seen.append(umax)
        return emission(n, umax, *args, **kwargs)

    monkeypatch.setattr(semiclassical, "_emission", spy)
    semiclassical._angular_integrals.cache_clear()
    plain = semiclassical._angular_integrals(beam, n.tobytes())
    (umax,) = seen
    return n, umax, plain


@pytest.mark.parametrize("gamma", np.geomspace(1.01, 1e4, 9).tolist())
def test_totals_window_edges_pass_the_kapteyn_bound(gamma, monkeypatch):
    # Kapteyn (DLMF 10.14.8): J_n(n z)^2 <= exp(-2n(atanh w - w)),
    # w = sqrt(1 - z^2), z = beta sin(theta); at the edge u = cos(theta) the
    # bound must be negligible next to the harmonic's whole integral
    beam = BeamParams.from_gamma_radius(gamma=gamma, R=1000.0)
    n, umax, plain = _totals_window(beam, monkeypatch)
    cut = umax < 1.0
    # 1 - z^2 = 1/gamma^2 + beta^2 u^2, without the cancellation
    w = np.sqrt(beam.gamma_m2 + beam.beta**2 * umax[cut] ** 2)
    log_bound = -2.0 * n[cut] * (np.arctanh(w) - w)
    assert np.all(log_bound <= math.log(1e-20) + np.log(plain[cut]))


@pytest.mark.parametrize("gamma", np.geomspace(1e4, GAMMA_MAX, 17).tolist())
def test_totals_window_edges_leave_a_negligible_tail(gamma, monkeypatch):
    # Kapteyn's bound drops the ~n^(-2/3) Airy prefactor and stops certifying
    # the 4-width window from gamma ~ 2e4 (log(bound/integral) is -44.2 at
    # 3.2e4 and +42.2 at 1e12, against the log(1e-20) = -46.1 required); the
    # bracket integrated beyond the edge, over [umax, 6 umax] on 64 Gauss
    # nodes, is at most 1.1e-38 of each harmonic's integral
    beam = BeamParams.from_gamma_radius(gamma=gamma, R=1000.0)
    n, umax, plain = _totals_window(beam, monkeypatch)
    cut = umax < 1.0
    u, wt = gauss_nodes(umax[cut, None], np.minimum(6.0 * umax[cut, None], 1.0), 64)
    s2 = 1.0 - u * u
    bracket = semiclassical._schott_bracket(n[cut, None], u, np.sqrt(s2), s2, beam)
    tail = 2.0 * np.sum(wt * bracket, axis=1)
    assert cut.any() and np.all(tail <= 1e-30 * plain[cut])


def _reference_integrals(beam, harmonics):
    # 128 nodes on the 8-width window, no Gaussian cap
    n = np.frombuffer(harmonics)
    umax = semiclassical._beaming_windows(n, beam, 8.0)
    _, wt, _, bracket = semiclassical._emission(n, umax, beam, 128)
    return 2.0 * np.sum(wt * bracket, axis=1)


@pytest.mark.parametrize("gamma", [1.01, 2.0, 3.0, 5.0, 10.0, 30.0])
def test_totals_rule_is_converged(gamma, monkeypatch):
    beam = BeamParams.from_gamma_radius(gamma=gamma, R=1000.0)
    n, _, _ = _totals_grid(beam)
    got = semiclassical._angular_integrals(beam, n.tobytes())
    want = _reference_integrals(beam, n.tobytes())
    carried = want >= 1e-12 * want.max()
    assert np.all(np.abs(got[carried] / want[carried] - 1.0) <= 1e-10)
    # the totals with the rule where they use it (the tail) against the
    # totals with the reference there
    totals = (total_power(beam), total_photon_rate(beam))
    semiclassical._angular_integrals.cache_clear()
    seen = []
    monkeypatch.setattr(
        semiclassical,
        "_angular_integrals",
        lambda b, harmonics: seen.append(harmonics) or _reference_integrals(b, harmonics),
    )
    ref = (total_power(beam), total_photon_rate(beam))
    # each total read the tail, and only the tail, through the patch
    assert seen == [n[512:].tobytes()] * 2
    for a, b in zip(totals, ref):
        assert a == pytest.approx(b, rel=2e-12, abs=0.0)


def _closed_form_oracle(beta, n):
    # Schott's closed form at 30 digits, at the beam's float beta:
    # [2 beta^2 J_2n'(x) - (1 - beta^2) int_0^x J_2n] / (n beta), x = 2 n beta,
    # with the integral summed term by term from mpmath's J_{2n+2k+1}(x)
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        x = 2 * n * b
        integral, k = mpmath.mpf(0), 0
        while True:
            term = 2 * mpmath.besselj(2 * n + 2 * k + 1, x)
            integral += term
            k += 1
            if term < integral * mpmath.mpf(10) ** -32:
                break
        return float((2 * b**2 * mpmath.besselj(2 * n, x, 1) - (1 - b**2) * integral) / (n * b))


@pytest.mark.parametrize("gamma", [1.01, 1.2, 2.0, 5.0, 10.0, 1e3, 1e4])
def test_schott_closed_form_matches_mpmath(gamma):
    # 1e-13 beyond the error of its one jv value, J_{2n+1}(x): jv itself is
    # off by up to 1.5e-13 at orders near 1000 (gamma <= 2, n ~ 512)
    beam = BeamParams.from_gamma_radius(gamma=gamma, R=1000.0)
    n = np.array([1.0, 2.0, 3.0, 7.0, 8.0, 40.0, 64.0, 511.0, 512.0])
    got = semiclassical._schott_closed_form(beam, n.tobytes())
    checked = 0
    for order, value in zip(n.astype(int).tolist(), got.tolist()):
        want = _closed_form_oracle(beam.beta, order)
        if want <= 1e-280:
            continue
        x = 2.0 * order * beam.beta
        with mpmath.workdps(30):
            exact = mpmath.besselj(2 * order + 1, mpmath.mpf(x))
            jv_error = abs(float(scipy.special.jv(2 * order + 1.0, x) / exact) - 1.0)
        assert abs(value / want - 1.0) <= 1e-13 + jv_error
        checked += 1
    assert checked >= 7


@settings(max_examples=25, deadline=None)
@given(
    log_gamma=st.floats(math.log(1.01), math.log(1e4)),
    ns=st.lists(st.integers(1, 512), min_size=1, max_size=8),
)
def test_schott_closed_form_agrees_with_reference_rule(log_gamma, ns):
    gamma = min(math.exp(log_gamma), 1e4)
    beam = BeamParams.from_gamma_radius(gamma=gamma, R=1000.0)
    largest = semiclassical._schott_closed_form(beam, np.arange(1.0, 513.0).tobytes()).max()
    n = np.array(ns, dtype=float)
    got = semiclassical._schott_closed_form(beam, n.tobytes())
    want = _reference_integrals(beam, n.tobytes())
    carried = want >= 1e-12 * largest
    assert np.all(np.abs(got[carried] / want[carried] - 1.0) <= 1e-10)


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(1.0, 2000.0), ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_bessel_ratio_bound_behind_the_recurrence_certificate(nu, ratio):
    # J_nu(x)/J_{nu-1}(x) <= x / (nu + sqrt(nu^2 - x^2)) for x <= nu
    x = nu * ratio
    lower = scipy.special.jv(nu - 1.0, x)
    if lower > 1e-280:
        bound = x / (nu + math.sqrt((nu - x) * (nu + x)))
        assert scipy.special.jv(nu, x) / lower <= bound * (1.0 + 1e-12)


def _miller_terms_loop(x, a):
    # the certificate one candidate term count at a time
    rho = lambda nu: x / (nu + np.sqrt((nu - x) * (nu + x)))
    log_b = np.zeros_like(x)
    q = rho(a + 1.0) * rho(a + 2.0)
    for terms in range(1, semiclassical._MILLER_MAX_TERMS + 1):
        log_bound = log_b + np.log(terms * (terms - 1) + q / (1.0 - q))
        if np.all(log_bound <= math.log(semiclassical._MILLER_TOL)):
            return terms
        log_b += np.log(q)
        top = a + 2.0 * terms
        q = rho(top + 1.0) * rho(top + 2.0)
    raise AssertionError("not certified")


@pytest.mark.parametrize("chunk", [7, semiclassical._MILLER_CHUNK])
def test_miller_terms_equal_the_loop_reference(chunk, monkeypatch):
    # the exact harmonics' arguments, x = 2 n beta and a = 2n + 1; a small
    # chunk makes the running sum cross chunk boundaries
    monkeypatch.setattr(semiclassical, "_MILLER_CHUNK", chunk)
    n = np.arange(1.0, 513.0)
    counts = []
    for gamma in np.geomspace(1.0 + 1e-13, 1e4, 50).tolist():
        beta = BeamParams.from_gamma_radius(gamma=gamma, R=1000.0).beta
        x, a = 2.0 * n * beta, 2.0 * n + 1.0
        counts.append(semiclassical._miller_terms(x, a))
        assert counts[-1] == _miller_terms_loop(x, a)
    assert min(counts) < 8 and max(counts) == 68


def test_schott_closed_form_raises_when_the_recurrence_is_not_certified(monkeypatch):
    beam = BeamParams.from_gamma_radius(gamma=1e4, R=1000.0)
    monkeypatch.setattr(semiclassical, "_MILLER_MAX_TERMS", 20)
    semiclassical._schott_closed_form.cache_clear()
    with pytest.raises(ConvergenceError) as err:
        semiclassical._schott_closed_form(beam, np.arange(1.0, 513.0).tobytes())
    assert err.value.error_estimate > semiclassical._MILLER_TOL


def test_spectral_sum_matches_brute_force():
    per_n = lambda n: n * np.exp(-n / 1000.0)
    brute = math.fsum(per_n(k) for k in range(1, 6001))
    # most of the sum lies past n = 512, on the panel integral
    assert math.fsum(per_n(k) for k in range(513, 6001)) > 0.8 * brute
    assert spectral_sum(per_n, 6000) == pytest.approx(brute, rel=1e-7)
    # exact path when the cap is below the exact-summation threshold
    assert spectral_sum(per_n, 100) == pytest.approx(
        math.fsum(per_n(k) for k in range(1, 101)), rel=1e-14
    )


def test_total_power_matches_classical_oracle():
    for gamma in (1.01, 2.0):
        beam = BeamParams.from_gamma_radius(gamma=gamma, R=1000.0)
        assert total_power(beam) == pytest.approx(classical_power(beam), rel=1e-6, abs=0.0)


# (total_power, total_photon_rate) at R = 1000 bohr, Z = 1, pinned bit for
# bit: Schott's closed form on harmonics 1..512, the angular rule on the
# Gauss-Legendre panels of the tail.  Against Lienard's power: 4.4e-16, 2.2e-16, 3.9e-9,
# 2.5e-9 and 1.7e-9
_TOTALS = {
    1.01: (3.690927597066023e-08, 1.87346060537532e-06),
    2.0: (0.0008222159939999999, 0.0012080433219814604),
    10.0: (0.895393220940449, 0.01285144195828486),
    1e4: (913573310629.7885, 14.432235460579893),
    "FIAN_60": (2.0055838652241253e-07, 5.0780295060007434e-08),
}


@pytest.mark.parametrize("gamma", list(_TOTALS))
def test_totals_equal_scalar_quadrature(gamma):
    if gamma == "FIAN_60":
        beam = beam_from_lab(FIAN_60)
    else:
        beam = BeamParams.from_gamma_radius(gamma=gamma, R=1000.0)
    got = (total_power(beam), total_photon_rate(beam))
    assert got == _TOTALS[gamma]


def _count_bessel_elements(monkeypatch):
    calls = {"jv": 0, "jvp": 0, "airy": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += np.broadcast(*args[: 1 if name == "airy" else 2]).size
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(scipy.special, name, counted(name, getattr(scipy.special, name)))
    return calls


@pytest.mark.parametrize("gamma", [7.25, 300.0])
def test_totals_share_one_bessel_pass(gamma, monkeypatch):
    beam = BeamParams.from_gamma_radius(gamma=gamma, R=321.0, Z=2.0)
    semiclassical._angular_integrals.cache_clear()
    semiclassical._schott_closed_form.cache_clear()
    calls = _count_bessel_elements(monkeypatch)
    total_power(beam)
    total_photon_rate(beam)
    n, _, n_exact = _totals_grid(beam)
    olver = np.count_nonzero(n[n_exact:] >= semiclassical._OLVER_N)
    assert (olver > 0) == (gamma > 100.0)
    # one jv element per exact harmonic in the closed form; the rule's 32
    # nodes per tail harmonic take 2 jv elements each below the switch to
    # Olver's expansion and 1 airy element at and above it
    assert calls == {"jv": n_exact + 64 * (len(n) - n_exact - olver), "jvp": 0, "airy": 32 * olver}


def test_spectrum_run_bessel_budget(tmp_path, monkeypatch, capsys):
    # the totals of one `spectrum` run: at most 2 jv elements per exact
    # harmonic and 64 per tail harmonic (all below the switch to Olver's
    # expansion at gamma = 10), plus 2 per angular-table rate
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "command = spectrum\nbeam.gamma = 10.0\nbeam.radius_bohr = 1000.0\n"
        "spectrum.harmonics = 1:3\nspectrum.thetas = 0.5, 1.0\n"
    )
    beam = BeamParams.from_gamma_radius(gamma=10.0, R=1000.0)
    n, _, n_exact = _totals_grid(beam)
    assert n.max() < semiclassical._OLVER_N
    semiclassical._angular_integrals.cache_clear()
    semiclassical._schott_closed_form.cache_clear()
    calls = _count_bessel_elements(monkeypatch)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert 0 < calls["jv"] <= 2 * n_exact + 64 * (len(n) - n_exact) + 2 * 3 * 2
    assert calls["jvp"] == calls["airy"] == 0


def test_bessel_pair_derivative_is_jvp_bit_for_bit():
    # as _emission calls it: a column of exact and tail (non-integer)
    # orders against rows of arguments below the order
    beam = BeamParams.from_gamma_radius(gamma=7.25, R=321.0)
    n, _, _ = _totals_grid(beam)
    x = n[:, None] * np.linspace(1e-3, 0.9999, 64)
    _, jnp = semiclassical._bessel_pair(n[:, None], x)
    assert np.array_equal(jnp, scipy.special.jvp(n[:, None], x, 1))


@pytest.mark.parametrize("n", [1.0, 2.5, 10.0, 600.5, 3000.0])
def test_bessel_pair_order_n_matches_mpmath(n):
    # J_n from J_{n-1} + J_{n+1}; at n = 3000, x/n = 0.9 jv(n, x) itself is
    # off by 1.7e-13
    for ratio in (0.9, 0.99, 0.9999):
        x = n * ratio
        jn, _ = semiclassical._bessel_pair(np.float64(n), np.float64(x))
        with mpmath.workdps(30):
            want = float(mpmath.besselj(n, x))
        assert abs(jn / want - 1.0) <= 2e-13


@settings(max_examples=200, deadline=None)
@given(n=st.floats(1.0, 512.0), ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_bessel_pair_agrees_with_jv(n, ratio):
    x = n * ratio
    jn, jnp = semiclassical._bessel_pair(n, x)
    assert jnp == scipy.special.jvp(n, x, 1)
    want = scipy.special.jv(n, x)
    if abs(want) > 1e-280:
        assert abs(jn / want - 1.0) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(log_nu=st.floats(math.log(3e3), math.log(3e4)))
def test_olver_pair_matches_bessel_pair(log_nu):
    # the leading terms' error, measured against jv at 400 arguments from
    # x/nu = 0.9 to the turning point: 6.1e-8 of max |J_n| and 7.2e-11 of
    # max |J_n'| at nu = 1e4, falling as nu^(-4/3) and nu^(-2)
    nu = math.exp(log_nu)
    z = np.linspace(0.9, 1.0 - 1e-9, 400)
    n = np.full_like(z, nu)
    jn, jnp = semiclassical._olver_pair(n, np.sqrt((1.0 - z) * (1.0 + z)), z)
    want, want_p = semiclassical._bessel_pair(n, nu * z)
    assert np.max(np.abs(jn - want)) <= 8e-8 * (1e4 / nu) ** (4.0 / 3.0) * np.max(np.abs(want))
    assert np.max(np.abs(jnp - want_p)) <= 1e-10 * (1e4 / nu) ** 2 * np.max(np.abs(want_p))


def test_atanh_minus_identity_matches_mpmath():
    w = np.geomspace(1e-8, 0.99, 500)
    got = numerics._atanh_minus_identity(w)
    with mpmath.workdps(50):
        want = [mpmath.atanh(mpmath.mpf(x)) - mpmath.mpf(x) for x in w.tolist()]
    assert max(abs(float(g / v) - 1.0) for g, v in zip(got.tolist(), want)) <= 2e-15


def test_schott_bracket_is_smooth_in_n_above_the_switch():
    # at n = 1e10 jv's noise, amplified by J_n' = (J_{n-1} - J_{n+1}) / 2,
    # puts the bracket up to 8e-7 off a line over relative steps of 1e-10 in
    # n; Olver's expansion is smooth there, to 1.2e-15
    beam = BeamParams.from_gamma_radius(gamma=1e4, R=1000.0)
    n = 1e10 * (1.0 + 1e-10 * np.arange(-5.0, 6.0))[:, None]
    u = np.array([0.0, 1e-4, 3e-4])
    s2 = 1.0 - u * u
    bracket = semiclassical._schott_bracket(n, u, np.sqrt(s2), s2, beam)
    line = np.polynomial.polynomial.polyfit(n[:, 0] / 1e10 - 1.0, bracket, 1)
    fit = np.polynomial.polynomial.polyval(n / 1e10 - 1.0, line)
    assert np.all(np.abs(bracket - fit.T) <= 1e-12 * bracket[5])


@settings(max_examples=25, deadline=None)
@given(log_gamma=st.floats(math.log(1.01), math.log(GAMMA_MAX)))
def test_total_power_matches_lienard(log_gamma):
    # exp(log(g)) can round one step above g; the worst error found is
    # 1.04e-7, near gamma = 5.18 (the switch from the sum to the integral at
    # n = 512), and 3.9e-9 from gamma = 10 up
    gamma = min(math.exp(log_gamma), GAMMA_MAX)
    beam = BeamParams.from_gamma_radius(gamma=gamma, R=1e5)
    assert total_power(beam) == pytest.approx(classical_power(beam), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("gamma", [10.0, 1e2, 1e4, 1e5, 1e6, 1e8, 1e10, 1e12])
def test_total_power_matches_lienard_up_to_gamma_max(gamma):
    # gamma^-2 from gamma, not from the rounded beta (1 - beta^2 is off by
    # about gamma^2 times the double epsilon, and beta rounds to 1 above
    # 1.35e8): 2.5e-9 from gamma = 1e2 to 1e12
    beam = BeamParams.from_gamma_radius(gamma=gamma, R=1e5)
    assert abs(total_power(beam) / classical_power(beam) - 1.0) <= 1e-8


def test_total_rate_positive_and_at_rest_zero():
    beam = BeamParams.from_gamma_radius(gamma=2.0, R=1000.0)
    assert total_photon_rate(beam) > 0.0
    rest = BeamParams.from_gamma_radius(gamma=1.0, R=1000.0)
    assert total_photon_rate(rest) == 0.0
    assert total_power(rest) == 0.0
