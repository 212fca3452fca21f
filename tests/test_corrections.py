"""Photon-interaction exponent P and the exp(-P)-damped photon number."""

import gc
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synchrad import corrections
from synchrad.corrections import (
    ModeSum,
    PiecewiseConstantVelocity,
    UniformVelocityAmplitudes,
    corrected_photon_number,
    mu_coupling,
    p_const_velocity,
    p_general,
    p_nonrel_asymptotic,
)
from synchrad.errors import ConvergenceError, DomainError
from synchrad.numerics import EULER_GAMMA, gauss_nodes
from synchrad.semiclassical import PhotonMode
from synchrad.units import C_AU

V01 = 0.1 * C_AU


def steady(v):
    """Constant velocity v: the jump law with equal velocities on both sides."""
    return PiecewiseConstantVelocity(v, v, t_jump=0.0)


def small_mode_sum():
    return ModeSum(q_c=0.5, n_radial=12, n_polar=10, n_azimuth=10)


def test_mode_sum_weights_integrate_momentum_ball():
    # sum of weights = int q^2 dq dOmega / (2 pi)^3 = q_c^3 / (6 pi^2)
    ms = small_mode_sum()
    _, weights, e1, e2 = ms.nodes()
    assert float(np.sum(weights)) == pytest.approx(ms.q_c**3 / (6 * math.pi**2), rel=1e-10, abs=0.0)
    q_vecs = ms.nodes()[0]
    n = q_vecs / np.linalg.norm(q_vecs, axis=1, keepdims=True)
    assert np.max(np.abs(np.sum(e1 * n, axis=1))) < 1e-12
    assert np.max(np.abs(np.sum(e2 * n, axis=1))) < 1e-12
    assert np.max(np.abs(np.sum(e1 * e2, axis=1))) < 1e-12


def test_mode_sum_nodes_match_the_spherical_product():
    # reference: the radial x polar x azimuthal meshgrid product, directions
    # from the normalized momenta
    ms = ModeSum(q_c=3.0, n_radial=8, n_polar=6, n_azimuth=5)
    qr, wr = gauss_nodes(0.0, ms.q_c, ms.n_radial)
    cu, wu = gauss_nodes(-1.0, 1.0, ms.n_polar)
    phi = (np.arange(ms.n_azimuth) + 0.5) * (2.0 * math.pi / ms.n_azimuth)
    Q, CU, PH = np.meshgrid(qr, cu, phi, indexing="ij")
    WQ, WCU, _ = np.meshgrid(wr, wu, phi, indexing="ij")
    S = np.sqrt(1.0 - CU**2)
    q_ref = np.stack([Q * S * np.cos(PH), Q * S * np.sin(PH), Q * CU], axis=-1).reshape(-1, 3)
    w_ref = (WQ * Q**2 * WCU * (2.0 * math.pi / ms.n_azimuth) / (2.0 * math.pi) ** 3).ravel()
    q_vecs, weights, e1, e2 = ms.nodes()
    np.testing.assert_allclose(q_vecs, q_ref, rtol=0, atol=1e-15 * ms.q_c)
    np.testing.assert_allclose(weights, w_ref, rtol=1e-15)
    n = q_ref / np.linalg.norm(q_ref, axis=1, keepdims=True)
    np.testing.assert_allclose(np.cross(e1, e2), n, rtol=0, atol=1e-15)


def test_mu_coupling_sign_and_scale():
    q = np.array([0.0, 0.0, 2.0])
    qp = np.array([0.0, 0.0, 3.0])
    assert mu_coupling(q, qp, gamma=2.0) == pytest.approx(-3.0)
    # rows of q' give one shift per row, each equal to the single-row call
    rows = np.array([qp, [1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    assert mu_coupling(q, rows, gamma=2.0).tolist() == [mu_coupling(q, r, 2.0) for r in rows]
    amps = UniformVelocityAmplitudes([V01, 0.0, 0.0])
    for gamma in (0.5, math.nan):
        with pytest.raises(DomainError):
            mu_coupling(q, qp, gamma=gamma)
        with pytest.raises(DomainError):
            p_general(q, amps, gamma, 1.0, 2.0, small_mode_sum())


def test_p_diagonal_and_hermitian():
    v0 = np.array([V01, 0.0, 0.0])
    amps = UniformVelocityAmplitudes(v0)
    q = np.array([0.0, 0.0, 0.01])
    ms = small_mode_sum()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diag = p_general(q, amps, 1.005, 2.0, 2.0, mode_sum=ms).value
        p12 = p_general(q, amps, 1.005, 1.0, 2.0, mode_sum=ms).value
        p21 = p_general(q, amps, 1.005, 2.0, 1.0, mode_sum=ms).value
    assert abs(diag) <= 1e-12
    assert abs(p12 - np.conj(p21)) <= 1e-12
    const = p_const_velocity(v0, q, t1=1.0, t2=2.0)
    const_swap = p_const_velocity(v0, q, t1=2.0, t2=1.0)
    assert const.value == pytest.approx(np.conj(const_swap.value), rel=1e-13, abs=0.0)
    assert p_const_velocity(v0, q, t1=3.0, t2=3.0).value == 0.0


DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: 0.1 <= math.hypot(*v))


@settings(max_examples=60, deadline=None)
@given(
    v_dir=DIRECTIONS,
    speed=st.floats(0.0, 0.9),
    q_dir=DIRECTIONS,
    q_mag=st.floats(0.0, 1.0),
    q_c=st.floats(1e-2, 1e3),
    gamma=st.floats(1.0, 1e4),
    t1=st.floats(-1e3, 1e3),
    t2=st.floats(-1e3, 1e3),
)
# dt**2 underflows to 0 here; the logarithm used to turn P into NaN
@example((0.0, 0.0, 1.0), 0.5, (0.0, 0.0, 1.0), 0.0, 1.0, 1.0, 2.2758035083812248e-274, 0.0)
# tiny speeds: |v0| |w| underflows to 0, then F is subnormal, and the rule's
# error estimate is rounding at the subnormal floor
@example((0.0, 0.0, 1.0), 2.225073858507e-311, (0.0, 0.0, 1.0), 0.0, 1.0, 1.0, 0.0, 0.0)
@example((0.0, 0.0, 1.0), 1e-158, (0.0, 0.0, 1.0), 0.0, 1.0, 1.0, 0.0, 1.0)
def test_p_const_velocity_diagonal_and_hermitian_bit_for_bit(
    v_dir, speed, q_dir, q_mag, q_c, gamma, t1, t2
):
    # P(t, t) = 0 and P(t2, t1) = conj P(t1, t2): the Si terms are odd in
    # t1 - t2 and the rest is even, so the identity holds in floating point
    v0 = speed * C_AU * np.array(v_dir) / math.hypot(*v_dir)
    q = q_mag * np.array(q_dir) / math.hypot(*q_dir)
    kw = dict(q_c=q_c, gamma=gamma)
    assert p_const_velocity(v0, q, t1=t1, t2=t1, **kw).value == 0.0
    p12 = p_const_velocity(v0, q, t1=t1, t2=t2, **kw).value
    # drop the geometry and its per-|dt| memo, so p21 is computed, not recalled
    corrections._const_velocity_geometry.cache_clear()
    p21 = p_const_velocity(v0, q, t1=t2, t2=t1, **kw).value
    assert math.isfinite(p12.real) and math.isfinite(p12.imag)
    assert (p21.real, p21.imag) == (p12.real, -p12.imag)


def test_p_const_velocity_raises_where_w2_plus_w1_vanishes_on_the_sphere():
    # w2 + w1 = q_c (c - n'.w) with w = v0 - q/gamma has a zero on the sphere
    # unless |w| < c, and the bracket's logarithm is singular there
    v0 = np.array([0.5 * C_AU, 0.0, 0.0])
    for q, gamma in (([-0.5 * C_AU, 0.0, 0.0], 1.0), ([0.0, 2.0 * C_AU, 0.0], 2.0)):
        with pytest.raises(DomainError, match="v0 - q/gamma"):
            p_const_velocity(v0, np.array(q), gamma=gamma, t1=1.0)
    with pytest.raises(DomainError, match="v0 - q/gamma"):
        p_const_velocity(np.zeros(3), np.array([0.0, 0.0, 1.5 * C_AU]), t1=1.0)
    # |w| = 0.9 c is inside
    assert math.isfinite(abs(p_const_velocity(v0, np.array([-0.4 * C_AU, 0.0, 0.0]), t1=1.0).value))


def test_p_const_velocity_raises_where_its_rule_cannot_converge():
    # 1e-13 below c, F's pole at u = c/|v0| is 1e-13 past the end of the
    # range: 512 nodes do not resolve it, and no value is returned
    v0 = np.array([0.0, 0.0, (1.0 - 1e-13) * C_AU])
    with pytest.raises(ConvergenceError, match="512-node"):
        p_const_velocity(v0, np.zeros(3), t1=1.0)


def test_p_rule_doubles_its_nodes_while_its_legendre_tail_is_too_large():
    # from 4 nodes, the error estimate relative to the scale is 1.5e-5 at 4,
    # 2.6e-6 at 8 and 6.4e-10 at 16 nodes, and 1.5e-17 at 32, where it stops
    v0, q = np.array([0.0, 0.5 * C_AU, 0.0]), np.array([0.01, 0.0, 0.02])
    geometry = corrections._ConstVelocityGeometry(v0.tolist(), (v0 - q).tolist(), C_AU)
    want = geometry.integral(0.3)
    assert sorted(geometry.rules) == [35]
    geometry.nodes = 4
    got = geometry.integral(0.3)
    assert sorted(geometry.rules) == [4, 8, 16, 32, 35]
    assert abs(got - want) <= 1e-14 * abs(want)


def test_spherical_bessel_recurrences_match_scipy():
    # series below 1/2, Miller's recurrence up to n - 1, upward past it; at
    # n = 512 near b = n both this and scipy are off by up to 3e-13 relative
    for n in (16, 64, 512):
        for b in (0.0, 1e-300, 1e-8, 0.3, 0.5, 2.0, math.pi, 15.0, n / 3, n - 1.5, n - 1.0, 1e3, 1e8):
            got = np.array(corrections._spherical_bessel(n, b))
            want = scipy.special.spherical_jn(np.arange(n), b)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-14 * np.max(np.abs(want))), (n, b)


def test_cone_average_of_the_weight_matches_the_azimuthal_midpoint_rule():
    # <F>(u') = F averaged over the cone n'.w = |w| u', F = [n' x v0]^2 /
    # (1 - n'.v0/c)^2; its closed form has beta^2 factored out, so it keeps
    # its relative accuracy at small speeds
    u, _ = gauss_nodes(-1.0, 1.0, 16)
    phi = (np.arange(256) + 0.5) * (2.0 * math.pi / 256)
    for speed in (1e-6, 0.1, 0.9):
        v0 = np.array([0.0, 0.0, speed * C_AU])
        for alpha in (0.0, 0.3, 1.9, math.pi):
            axis = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
            e1 = np.array([math.cos(alpha), 0.0, -math.sin(alpha)])
            e2 = np.cross(axis, e1)
            s = np.sqrt((1.0 - u) * (1.0 + u))[:, None, None]
            n = u[:, None, None] * axis + s * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2)
            F = np.sum(np.cross(n, v0) ** 2, axis=-1) / (1.0 - n @ v0 / C_AU) ** 2
            geometry = corrections._ConstVelocityGeometry(v0.tolist(), (0.5 * C_AU * axis).tolist(), 1.0)
            weight = geometry._rule(16)[1]
            np.testing.assert_allclose(weight[16:], F.mean(axis=1), rtol=1e-13, atol=0.0)


def sphere_reference(v0, q, q_c, gamma, dt):
    """p_const_velocity's angular integral at lag dt, with the docstring's
    bracket evaluated as written, on Gauss-Legendre panels in u = n'.v0/|v0|
    (16 nodes per panel, at most 8 rad of phase each) times the midpoint rule
    in phi (64 nodes more than twice the phase span in phi)."""
    s = np.linalg.norm(v0)
    e3 = v0 / s
    e1 = np.cross(e3, [1.0, 0.0, 0.0] if abs(e3[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    w = v0 - q / gamma
    panels = math.ceil(2.0 * q_c * max(s, np.linalg.norm(w)) * dt / 8.0) + 2
    n_phi = 2 * math.ceil(dt * q_c * np.linalg.norm(np.cross(w, e3))) + 64
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    total = 0j
    for lo in range(0, panels, 64):
        hi = min(lo + 64, panels)
        u, wu = gauss_nodes(edges[lo:hi, None], edges[lo + 1 : hi + 1, None], 16)
        u, wu = u.reshape(-1, 1, 1), wu.reshape(-1, 1)
        n = u * e3 + np.sqrt((1.0 - u) * (1.0 + u)) * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2)
        ndotv = n @ v0
        w2 = (C_AU - ndotv) * q_c
        w12 = w2 + q_c * (n @ q) / gamma
        si2, ci2 = scipy.special.sici(w2 * dt)
        si12, ci12 = scipy.special.sici(np.abs(w12) * dt)
        bracket = 1j * si2 + 1j * np.sign(w12) * si12 + 2 * EULER_GAMMA - ci2 - ci12 + np.log(w2 * np.abs(w12) * dt**2)
        F = np.sum(np.cross(n, v0) ** 2, axis=-1) / (1.0 - ndotv / C_AU) ** 2
        total += np.sum(wu * F * bracket) * (2.0 * math.pi / n_phi)
    return total


@pytest.mark.parametrize(
    "v0, q",
    [
        # criterion 06's first velocity and two of its modes
        (np.array([0.1 * C_AU, 0.0, 0.0]), 10.0 / C_AU * np.array([0.0, 0.0, 1.0])),
        (np.array([0.1 * C_AU, 0.0, 0.0]), 3.0 / C_AU * np.array([0.5, 0.5, math.sqrt(0.5)])),
        # velocity_jump's fastest jump, off the axes
        (0.2 * C_AU * np.array([0.48, -0.6, 0.64]), 10.0 / C_AU * np.array([0.6, 0.0, 0.8])),
    ],
)
def test_p_const_velocity_matches_a_sphere_rule_that_resolves_the_phase(v0, q):
    # the 48 x 32 sphere rule this replaced was off by up to 5e-6 here
    for dt in (1e-3, 1.0 / 128, 0.1, 3.0):
        got = p_const_velocity(v0, q, t1=dt, t2=0.0).value * (4.0 * math.pi**2 * C_AU**3)
        want = sphere_reference(v0, q, C_AU, 1.0, dt)
        assert abs(got - want) <= 1e-12 * abs(want), dt


def mp_reduced_integral(v0, q, q_c, gamma, dt):
    """p_const_velocity's angular integral at lag dt > 0 as its two 1-D
    integrals, 2 pi int F(u) Ein(i x2(u)) du + 2 pi int <F>(u') Ein(i x12(u'))
    du', in mpmath at 24 digits: Ein(ix) = i Si(x) + C + ln x - Ci(x), <F> =
    c^2 [(beta^2 - 1) A / R^3 + 2 / R - 1] as written, and Gauss-Legendre
    quadrature on panels of at most 3 rad of phase."""
    with mpmath.workdps(24):
        v0 = [mpmath.mpf(float(a)) for a in v0]
        w = [a - mpmath.mpf(float(b)) / gamma for a, b in zip(v0, q)]
        c, q_c, dt = mpmath.mpf(C_AU), mpmath.mpf(q_c), mpmath.mpf(dt)
        s, w_speed = mpmath.norm(v0), mpmath.norm(w)
        beta = s / c
        cos_a = mpmath.fsum(a * b for a, b in zip(v0, w)) / (s * w_speed) if w_speed else mpmath.mpf(1)
        sin2_a = max(0, 1 - cos_a**2)

        def F(u):
            return s**2 * (1 - u * u) / (1 - beta * u) ** 2

        def F_avg(u):
            A = 1 - beta * u * cos_a
            R = mpmath.sqrt(A * A - beta**2 * (1 - u * u) * sin2_a)
            return c**2 * ((beta**2 - 1) * A / R**3 + 2 / R - 1)

        def ein_i(x):
            return 1j * mpmath.si(x) + mpmath.euler + mpmath.log(x) - mpmath.ci(x)

        total = 0
        for weight, speed in ((F, s), (F_avg, w_speed)):
            panels = mpmath.linspace(-1, 1, int(2 * q_c * speed * dt / 3) + 3)
            integrand = lambda u: weight(u) * ein_i(dt * q_c * (c - speed * u))  # noqa: E731
            total += mpmath.quad(integrand, panels, method="gauss-legendre")
        return complex(2 * mpmath.pi * total)


@settings(max_examples=25, deadline=None)
@given(
    v_dir=DIRECTIONS,
    speed=st.floats(1e-3, 0.9),
    q_dir=DIRECTIONS,
    q_mag=st.floats(0.0, 1.0),
    log_q_c=st.floats(-2.0, 3.0),
    log_gamma=st.floats(0.0, 4.0),
    log_dt=st.floats(-6.0, 3.0),
)
def test_p_const_velocity_matches_mpmath_on_its_1d_integrals(v_dir, speed, q_dir, q_mag, log_q_c, log_gamma, log_dt):
    # |dt| from 1e-6 to 1e3; q_c is lowered where needed so that either
    # integral spans at most 30 rad of phase, which the oracle can follow.
    # Below x = 1 the rule sums Ein(ix)'s power series instead of the Filon
    # form, whose log terms would cancel, so the bound is relative throughout
    v0 = speed * C_AU * np.array(v_dir) / math.hypot(*v_dir)
    q = q_mag * np.array(q_dir) / math.hypot(*q_dir)
    gamma, dt = 10.0**log_gamma, 10.0**log_dt
    fastest = max(np.linalg.norm(v0), np.linalg.norm(v0 - q / gamma))
    q_c = min(10.0**log_q_c, 30.0 / (2.0 * fastest * dt))
    got = p_const_velocity(v0, q, q_c, gamma, t1=dt, t2=0.0).value * (4.0 * math.pi**2 * C_AU**3)
    want = mp_reduced_integral(v0, q, q_c, gamma, dt)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_p_vanishing_momentum_limit():
    v0 = np.array([V01, 0.0, 0.0])
    amps = UniformVelocityAmplitudes(v0)
    ms = small_mode_sum()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tiny = p_general(np.array([0.0, 0.0, 1e-10]), amps, 1.005, 1.0, 2.0, mode_sum=ms).value
        ref = p_general(np.array([0.0, 0.0, 0.01]), amps, 1.005, 1.0, 2.0, mode_sum=ms).value
    assert abs(tiny) < 1e-6 * abs(ref)


def test_p_const_velocity_scales_as_the_speed_squared_down_to_tiny_speeds():
    # P is quadratic in |v0|: only v0 = 0 exactly (either sign of zero) gives
    # P = 0, not every speed within a tolerance of it
    q = np.array([0.0, 0.0, 0.01])
    slow = p_const_velocity(np.array([1e-8, 0.0, 0.0]), q, t1=1.0, t2=0.0).value
    fast = p_const_velocity(np.array([1e-6, 0.0, 0.0]), q, t1=1.0, t2=0.0).value
    assert slow != 0.0
    assert slow == pytest.approx(1e-4 * fast, rel=1e-12, abs=0.0)
    for zero in (0.0, -0.0):
        assert p_const_velocity(np.array([zero, 0.0, 0.0]), q, t1=1.0, t2=0.0).value == 0j


def test_const_velocity_matches_nonrel_asymptote():
    # c q_c dt >= 100 at beta = 0.1: closed angular form vs asymptote within 5%
    v0 = np.array([V01, 0.0, 0.0])
    q = np.array([0.0, 0.0, 1e-4])
    for dt in (100.0 / (C_AU * C_AU), 1.0):
        got = p_const_velocity(v0, q, t1=dt, t2=0.0).value
        ref = p_nonrel_asymptotic(V01, 1.0, C_AU, dt)
        assert abs(got - ref) <= 0.05 * abs(ref)
        assert got.real >= 0.0


def test_nonrel_asymptote_properties():
    # real part grows as ln|dt|; imaginary part is +/- pi * prefactor
    pref = 2 * V01**2 / (3 * math.pi * C_AU**3)
    p1 = p_nonrel_asymptotic(V01, 1.0, C_AU, 1.0)
    p2 = p_nonrel_asymptotic(V01, 1.0, C_AU, math.e)
    assert p2.real - p1.real == pytest.approx(2 * pref, rel=1e-12, abs=0.0)
    assert p1.imag == pytest.approx(math.pi * pref, rel=1e-12, abs=0.0)
    assert p_nonrel_asymptotic(V01, 1.0, C_AU, -1.0).imag == pytest.approx(
        -math.pi * pref, rel=1e-12, abs=0.0
    )
    assert p1.real == pytest.approx(
        2 * pref * (EULER_GAMMA + math.log(C_AU * C_AU)), rel=1e-12, abs=0.0
    )
    with pytest.raises(DomainError):
        p_nonrel_asymptotic(V01, 1.0, C_AU, 0.0)


def test_cutoff_sensitivity_is_logarithmic():
    # doubling q_c shifts Re P by the 2 * pref * ln 2 ultraviolet logarithm
    v0 = np.array([V01, 0.0, 0.0])
    q = np.array([0.0, 0.0, 1e-4])
    dt = 5.0
    p1 = p_const_velocity(v0, q, q_c=C_AU, t1=dt, t2=0.0).value
    p2 = p_const_velocity(v0, q, q_c=2 * C_AU, t1=dt, t2=0.0).value
    pref = 2 * V01**2 / (3 * math.pi * C_AU**3)
    assert p2.real - p1.real == pytest.approx(2 * pref * math.log(2.0), rel=0.05)


def test_corrected_number_semiclassical_path():
    # with no exponent the double integral factorizes into |int Qdot|^2
    v = np.array([0.05 * C_AU, 0.0, 0.0])
    law = steady(v)
    mode = PhotonMode(alpha=1, q=np.array([0.0, 0.0, 0.02]))
    T = 4.0
    got = corrected_photon_number(law, mode, T)
    dqv = mode.omega - float(mode.q @ v)
    ev = float(mode.e_vec @ v)
    expect = (1.0 / C_AU) ** 2 * mode.g_squared * ev**2 * 4 * math.sin(dqv * T / 2) ** 2 / dqv**2
    assert got == pytest.approx(expect, rel=1e-8)


def test_constant_exponent_factorizes():
    # P(t1, t2) = const real p multiplies the number by exp(-p) exactly
    law = steady(np.array([0.05 * C_AU, 0.0, 0.0]))
    mode = PhotonMode(alpha=1, q=np.array([0.0, 0.0, 0.02]))
    base = corrected_photon_number(law, mode, 2.0)
    # p = 0 gives the semiclassical number: the upper triangle's off-diagonal
    # terms count twice and the diagonal's once
    for p in (0.0, 0.3, 1.0, 2.5):
        got = corrected_photon_number(law, mode, 2.0, p_provider=lambda a, b: complex(p))
        assert got == pytest.approx(math.exp(-p) * base, rel=1e-10)
    # monotone damping in the exponent
    vals = [
        corrected_photon_number(law, mode, 2.0, p_provider=lambda a, b: complex(p))
        for p in (0.1, 0.5, 1.5)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_jump_law_kinematics():
    law = PiecewiseConstantVelocity(
        np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0]), t_jump=1.5
    )
    assert np.allclose(law.velocity(1.0), [1.0, 0.0, 0.0])
    assert np.allclose(law.velocity(2.0), [0.0, 2.0, 0.0])
    assert np.allclose(law.position(1.5), [1.5, 0.0, 0.0])
    assert np.allclose(law.position(2.5), [1.5, 2.0, 0.0])
    assert law.breakpoints(3.0) == [0.0, 1.5, 3.0]
    assert law.breakpoints(1.0) == [0.0, 1.0]


# A criterion-06-like jump off the axes, with the values the per-call
# Filon-Legendre rule and the per-entry Hermitian fill give, as literals: the
# cached geometry, the single Si/Ci pass and the triangle fill must reproduce
# them bit for bit.  Neither P nor the damped sum uses BLAS, and the sum
# takes no fused multiply-add, so the literals hold under any OpenBLAS kernel
# and at every numpy dispatch level.
JUMP_DIR = np.array([0.48, -0.6, 0.64])
JUMP_V1, JUMP_V2 = 0.126 * C_AU * JUMP_DIR, 0.148 * C_AU * JUMP_DIR
JUMP_Q = 6.0 / C_AU * np.array([0.0, 0.6, -0.8])
LAGS = np.linspace(-1.0, 1.0, 257)
P_EVERY_16TH_LAG = [
    0.0005167702351789312 - 7.797933841076837e-05j,
    0.0005101413110592773 - 7.797933841048835e-05j,
    0.000502488779778818 - 7.797933841057317e-05j,
    0.0004934377563359415 - 7.797933841101856e-05j,
    0.00048236019891581376 - 7.797933841301684e-05j,
    0.0004680787435292186 - 7.797933840447108e-05j,
    0.00044795016264770614 - 7.797933843696512e-05j,
    0.00041354012626811164 - 7.797933786602678e-05j,
    0j,
    0.00041354012626811164 + 7.797933786602678e-05j,
    0.00044795016264770614 + 7.797933843696512e-05j,
    0.0004680787435292186 + 7.797933840447108e-05j,
    0.00048236019891581376 + 7.797933841301684e-05j,
    0.0004934377563359415 + 7.797933841101856e-05j,
    0.000502488779778818 + 7.797933841057317e-05j,
    0.0005101413110592773 + 7.797933841048835e-05j,
    0.0005167702351789312 + 7.797933841076837e-05j,
]


def jump_p_table():
    return np.array(
        [p_const_velocity(JUMP_V1, JUMP_Q, t1=d, t2=0.0).value if d != 0 else 0.0 for d in LAGS]
    )


def test_p_table_equals_the_per_call_values():
    table = jump_p_table()
    assert table[::16].tolist() == P_EVERY_16TH_LAG
    assert math.fsum(table.real * (1 + LAGS)) == 0.11991670114483179
    assert math.fsum(table.imag * (1 + LAGS)) == 0.01005933462508562


def jump_lag_provider(calls):
    """P(t1, t2) interpolated in the lag from jump_p_table, appending one
    entry to calls per call."""
    table = jump_p_table()

    def provider(t1, t2):
        calls.append(None)
        d = t1 - t2
        return complex(np.interp(d, LAGS, table.real), np.interp(d, LAGS, table.imag))

    return provider


def test_corrected_numbers_equal_the_per_entry_fill():
    provider = jump_lag_provider([])
    law = PiecewiseConstantVelocity(JUMP_V1, JUMP_V2, t_jump=0.5)
    want = {1: (0.4932751500102361, 0.4936536546931265), 2: (0.019731006000409435, 0.019746146187725022)}
    for alpha, (plain, damped) in want.items():
        mode = PhotonMode(alpha=alpha, q=JUMP_Q)
        assert corrected_photon_number(law, mode, 1.0, nodes_per_piece=48) == plain
        assert corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=48) == damped


def test_p_table_makes_one_si_ci_pass_per_argument_and_one_sphere_build(monkeypatch):
    import scipy.special

    from synchrad import numerics

    sici, gauss = scipy.special.sici, numerics.gauss_nodes
    elems, builds = [], []
    monkeypatch.setattr(scipy.special, "sici", lambda x: elems.append(np.size(x)) or sici(x))
    # gauss_nodes is imported by name into corrections
    for module in (numerics, corrections):
        monkeypatch.setattr(module, "gauss_nodes", lambda *a: builds.append(a) or gauss(*a))
    numerics.sphere_rule.cache_clear()
    corrections._const_velocity_geometry.cache_clear()
    v0, q = np.array([0.0, 0.15 * C_AU, 0.0]), np.array([0.01, 0.0, 0.02])
    p_const_velocity(v0, q, t1=0.25, t2=0.0)
    # one 18-node Filon-Legendre rule per geometry, shared by both 1-D
    # integrals, and one Si/Ci pass over their 2 x 18 nodes per |dt|
    assert builds == [(-1.0, 1.0, 18)]
    assert elems == [2 * 18]
    # 128 lags and their exact negatives (linspace(-1, 1, 256) itself is not
    # symmetric in the last bit): one pass per |dt|, plus the first call's
    half = np.linspace(-1.0, 1.0, 256)[128:]
    for d in np.concatenate([-half[::-1], half]):
        p_const_velocity(v0, q, t1=d, t2=0.0)
    assert elems == [2 * 18] * 129
    assert builds == [(-1.0, 1.0, 18)]
    assert corrections._const_velocity_geometry.cache_info().misses == 1


def test_hermitian_fill_calls_the_provider_on_the_upper_triangle_in_order():
    calls = []

    def provider(t1, t2):
        calls.append((t1, t2))
        return 1e-3 * (t1 - t2) * (1.0 + 2.0j)

    law = steady(np.array([0.05 * C_AU, 0.0, 0.0]))
    mode = PhotonMode(alpha=1, q=np.array([0.0, 0.0, 0.02]))
    corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=6)
    # the first row holds every time; 6 nodes resolve 1.5 rad, so the one
    # piece, whose phase bound is 2.9 rad, is cut in two
    times = [t2 for t1, t2 in calls if t1 == calls[0][0]]
    assert len(times) == 12
    assert calls == [(a, b) for i, a in enumerate(times) for b in times[i:]]
    assert all(isinstance(t, float) for pair in calls for t in pair)


def counting_provider(calls):
    """A P(t1, t2) that appends each call's pair to calls."""

    def provider(t1, t2):
        calls.append((t1, t2))
        return 1e-3 * (t1 - t2) * (1.0 + 2.0j) + 2e-4 * (t1 + t2) ** 2

    return provider


def test_both_polarizations_share_one_exponent_fill():
    # exp(-P) depends on the provider and the time grid, not on the polarization
    law = PiecewiseConstantVelocity(JUMP_V1, JUMP_V2, t_jump=0.5)
    modes = [PhotonMode(alpha=alpha, q=JUMP_Q) for alpha in (1, 2)]
    fresh = [
        corrected_photon_number(law, mode, 1.0, p_provider=jump_lag_provider([]), nodes_per_piece=48)
        for mode in modes
    ]
    calls = []
    provider = jump_lag_provider(calls)
    shared = [
        corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=48) for mode in modes
    ]
    # two pieces of 48 nodes: one upper triangle of the 96 x 96 grid
    assert len(calls) == 96 * 97 // 2 == 4656
    assert shared == fresh


def test_another_grid_or_provider_fills_again():
    law = steady(np.array([0.05 * C_AU, 0.0, 0.0]))
    calls = []
    provider = counting_provider(calls)
    # 8 nodes resolve 3.6 rad: omega = 3 takes one piece of 8, omega = 6 two
    for omega, nodes in ((3.0, 8), (6.0, 16), (3.0, 8)):
        mode = PhotonMode(alpha=1, q=np.array([0.0, 0.0, omega / C_AU]))
        del calls[:]
        corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=8)
        assert len(calls) == nodes * (nodes + 1) // 2
    other = []
    corrected_photon_number(law, mode, 1.0, p_provider=counting_provider(other), nodes_per_piece=8)
    assert len(other) == 36


def test_a_failed_fill_is_not_kept():
    law = steady(np.array([0.05 * C_AU, 0.0, 0.0]))
    mode = PhotonMode(alpha=1, q=np.array([0.0, 0.0, 0.02]))
    calls = []

    def provider(t1, t2):
        calls.append((t1, t2))
        return complex(math.nan, 0.0)

    for attempt in (1, 2):
        with pytest.raises(DomainError, match="non-finite"):
            corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=8)
        assert len(calls) == 36 * attempt


def test_the_kept_exponent_dies_with_its_provider_and_is_read_only():
    law = steady(np.array([0.05 * C_AU, 0.0, 0.0]))
    mode = PhotonMode(alpha=1, q=np.array([0.0, 0.0, 0.02]))
    provider = counting_provider([])
    corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=8)
    ref, _, damping = corrections._damping_slot
    # the upper triangle of the 8 x 8 grid, diagonal included
    assert ref() is provider and damping.shape == (8 * 9 // 2,)
    with pytest.raises(ValueError):
        damping[0] = 0.0
    del provider, ref
    gc.collect()
    assert corrections._damping_slot is None


def test_a_provider_without_weak_references_is_never_kept():
    class Provider:
        __slots__ = ("calls",)

        def __init__(self):
            self.calls = 0

        def __call__(self, t1, t2):
            self.calls += 1
            return 0.1 + 0.0j

    law = steady(np.array([0.05 * C_AU, 0.0, 0.0]))
    mode = PhotonMode(alpha=1, q=np.array([0.0, 0.0, 0.02]))
    provider = Provider()
    for attempt in (1, 2):
        corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=8)
        assert provider.calls == 36 * attempt


def test_non_finite_exponent_raises_with_the_first_bad_pair():
    law = steady(np.array([0.05 * C_AU, 0.0, 0.0]))
    mode = PhotonMode(alpha=1, q=np.array([0.0, 0.0, 0.02]))
    seen = []

    def provider(t1, t2):
        seen.append((t1, t2))
        return complex(math.nan, 0.0) if t2 - t1 > 0.5 else 0j

    with pytest.raises(DomainError, match="non-finite") as info:
        corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=8)
    t1, t2 = next(pair for pair in seen if pair[1] - pair[0] > 0.5)
    assert f"({t1!r}, {t2!r})" in str(info.value)
    with pytest.raises(DomainError, match="non-finite"):
        corrected_photon_number(law, mode, 1.0, p_provider=lambda a, b: math.inf, nodes_per_piece=4)


def test_exponent_not_real_on_the_diagonal_raises_with_the_first_bad_pair():
    # P(t, t) must be real: Hermiticity, which the upper-triangle sum relies on
    law = steady(np.array([0.05 * C_AU, 0.0, 0.0]))
    mode = PhotonMode(alpha=1, q=np.array([0.0, 0.0, 0.02]))
    for bad_diagonal in (0, 3):
        calls = []

        def provider(t1, t2):
            calls.append((t1, t2))
            if bad_diagonal == 0:  # 1e-3j everywhere
                return 1e-3j
            diagonal = sum(a == b for a, b in calls) - 1
            return complex(0.1, 1e-3 if t1 == t2 and diagonal == bad_diagonal else 0.0)

        with pytest.raises(DomainError, match="non-real") as info:
            corrected_photon_number(law, mode, 1.0, p_provider=provider, nodes_per_piece=8)
        t = [a for a, b in calls if a == b][bad_diagonal]
        assert f"({t!r}, {t!r})" in str(info.value) and "non-finite" in str(info.value)
    # complex off the diagonal and real on it: accepted
    got = corrected_photon_number(law, mode, 1.0, p_provider=counting_provider([]), nodes_per_piece=8)
    assert math.isfinite(got)


def test_unresolvable_phase_raises_before_any_work():
    law = steady(np.array([5.0, 0.0, 0.0]))
    mode = PhotonMode(alpha=2, q=0.02 * np.array([0.6, 0.0, 0.8]))
    calls = []
    with pytest.raises(ConvergenceError):
        corrected_photon_number(law, mode, 1e9)
    # the kernel's limit is lower: its exponent matrix grows as the nodes squared
    corrected_photon_number(law, mode, 1e4)
    with pytest.raises(ConvergenceError):
        corrected_photon_number(law, mode, 1e4, p_provider=lambda a, b: calls.append(a) or 0j)
    assert calls == []


def test_qdot_equals_the_per_time_loop():
    from synchrad.corrections import _qdot

    def dot(a, b):
        # the fixed order _qdot sums in: a BLAS dot's depends on the CPU kernel
        return float((a[0] * b[0] + a[1] * b[1]) + a[2] * b[2])

    def loop(law, mode, Z, times):
        # the scalar reference: one velocity and position lookup per time
        g = math.sqrt(mode.g_squared)
        out = []
        for tp in times:
            v, r = law.velocity(float(tp)), law.position(float(tp))
            phase = mode.omega * tp - dot(mode.q, r)
            out.append(1j * (Z / C_AU) * g * dot(mode.e_vec, v) * np.exp(1j * phase))
        return np.array(out)

    times = np.linspace(0.0, 1.0, 97)
    for law in (
        PiecewiseConstantVelocity(JUMP_V1, JUMP_V2, t_jump=0.5),
        steady(JUMP_V2),
    ):
        for alpha in (1, 2):
            mode = PhotonMode(alpha=alpha, q=JUMP_Q)
            assert _qdot(law, mode, 1.3, times).tolist() == loop(law, mode, 1.3, times).tolist()
