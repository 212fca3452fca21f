"""Velocity-jump soft-photon model: level shift, regularized spectra, and
the infrared dichotomy."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrad import ir_model
from synchrad.errors import DomainError
from synchrad.ir_model import (
    VelocityJump,
    delta_shift,
    delta_shift_closed_form,
    soft_photon_number,
    soft_spectral_density,
    total_soft_count,
)
from synchrad.semiclassical import PhotonMode
from synchrad.units import C_AU


def make_jump(beta1=0.1, beta2=0.12, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return VelocityJump(
            v1=np.array([beta1 * C_AU, 0.0, 0.0]),
            v2=np.array([beta2 * C_AU, 0.0, 0.0]),
            **kw,
        )


def soft_mode(omega, direction=(0.0, 0.0, 1.0), alpha=1):
    q = omega / C_AU * np.array(direction, dtype=float)
    return PhotonMode(alpha=alpha, q=q)


def test_delta_matches_nonrel_closed_form():
    jump = make_jump()
    num = delta_shift(jump)
    closed = delta_shift_closed_form(jump)
    assert num == pytest.approx(closed, rel=5e-3)
    assert num > 0.0


def test_delta_scalings():
    j1 = make_jump(q_c=C_AU)
    j2 = make_jump(q_c=2 * C_AU)
    assert delta_shift(j2) == pytest.approx(2 * delta_shift(j1), rel=1e-10)
    j3 = make_jump(beta1=0.05, beta2=0.06)
    # quadratic in v1 in the nonrelativistic regime
    assert delta_shift(j3) == pytest.approx(delta_shift(j1) / 4.0, rel=2e-2)
    assert delta_shift_closed_form(j3) == delta_shift_closed_form(j1) / 4.0


def test_jump_validation_and_smallness():
    with pytest.raises(DomainError):
        VelocityJump(v1=np.array([C_AU, 0, 0]), v2=np.zeros(3))
    with pytest.warns(UserWarning, match="exceeds 0.3"):
        VelocityJump(v1=np.array([1.0, 0, 0]), v2=np.array([2.0, 0, 0]))
    jump = make_jump()
    assert jump.smallness == pytest.approx(0.2, rel=1e-12)


def test_soft_number_nonnegative_and_regular_across_delta():
    jump = make_jump()
    delta = delta_shift(jump)
    omegas = np.linspace(0.2 * delta, 5.0 * delta, 201)
    vals = [soft_photon_number(jump, soft_mode(w)) for w in omegas]
    assert all(v >= 0.0 for v in vals)
    assert max(vals) < math.inf
    # no pole: neighboring samples stay within a modest ratio
    ratios = [vals[i + 1] / vals[i] for i in range(len(vals) - 1) if vals[i] > 0]
    assert max(ratios) < 1.5 and min(ratios) > 0.5


def test_equal_velocities_emit_nothing():
    jump = make_jump(beta1=0.1, beta2=0.1)
    assert soft_photon_number(jump, soft_mode(1e-5)) == 0.0
    assert soft_spectral_density(jump, 1e-5) == pytest.approx(0.0, abs=1e-300)


def test_spectrum_quadratic_in_jump_size():
    # fix the pole shift, scale dv: number scales as |dv|^2 (exponent 2 +/- 0.05)
    base_delta = delta_shift(make_jump())
    scales = [1.0, 0.5, 0.25]
    omega = 1e-5
    vals = []
    for s in scales:
        jump = make_jump(beta1=0.1, beta2=0.1 + 0.02 * s)
        vals.append(soft_photon_number(jump, soft_mode(omega), delta_override=base_delta))
    slope = np.polyfit(np.log(scales), np.log(vals), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_per_mode_inverse_cube_law():
    # classical (unshifted) per-mode number over two decades of low omega
    jump = make_jump()
    omegas = np.logspace(-6, -4, 15)
    vals = [soft_photon_number(jump, soft_mode(w), delta_override=0.0) for w in omegas]
    slope = np.polyfit(np.log(omegas), np.log(vals), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.05)


def test_soft_regime_warning():
    jump = make_jump()
    with pytest.warns(UserWarning, match="soft regime"):
        soft_photon_number(jump, soft_mode(10.0 * np.linalg.norm(jump.delta_v) * C_AU))


def test_spectral_density_rotation_invariant():
    jump = make_jump()
    # rotate both velocities about y by 0.4 rad: density at fixed omega unchanged
    c, s = math.cos(0.4), math.sin(0.4)
    rot = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        jrot = VelocityJump(v1=rot @ jump.v1, v2=rot @ jump.v2)
    for w in (1e-6, 1e-4):
        assert soft_spectral_density(jrot, w) == pytest.approx(
            soft_spectral_density(jump, w), rel=1e-9
        )
    with pytest.raises(DomainError):
        soft_spectral_density(jump, 0.0)


def test_infrared_dichotomy():
    jump = make_jump()
    # shifted poles: total converges under omega_min halving
    prev = total_soft_count(jump, 1e-6)
    for k in range(1, 4):
        cur = total_soft_count(jump, 1e-6 / 2**k)
        assert abs(cur - prev) < 0.01 * prev
        prev = cur
    # unshifted: grows linearly in ln(1/omega_min) with stable slope
    mins = [1e-5 / 2**k for k in range(5)]
    totals = [total_soft_count(jump, m, delta_override=0.0) for m in mins]
    slopes = [
        (totals[i + 1] - totals[i]) / math.log(2.0) for i in range(len(totals) - 1)
    ]
    for s in slopes:
        assert s == pytest.approx(slopes[0], rel=0.03)
    with pytest.raises(DomainError):
        total_soft_count(jump, 1.0, omega_max=0.5)


def test_total_soft_count_computes_the_level_shift_once(monkeypatch):
    jump = make_jump()
    want = total_soft_count(jump, 1e-6)
    calls = []
    monkeypatch.setattr(ir_model, "delta_shift", lambda j: calls.append(1) or delta_shift(j))
    assert total_soft_count(jump, 1e-6) == want
    assert len(calls) == 1


@pytest.mark.parametrize(
    "kw",
    [
        {"v1": np.array([math.nan, 0.0, 1.0])},
        {"v2": np.array([0.0, math.inf, 0.0])},
        {"q_c": math.nan},
        {"q_c": math.inf},
        {"q_c": -1.0},
        {"Z": math.nan},
        {"Z": -math.inf},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_jump_rejects_non_finite_and_out_of_range_values(kw):
    args = {"v1": np.array([0.1 * C_AU, 0.0, 0.0]), "v2": np.array([0.12 * C_AU, 0.0, 0.0])}
    args.update(kw)
    with pytest.raises(DomainError):
        VelocityJump(**args)


def test_spectral_density_array_equals_scalar_calls():
    jump = VelocityJump(v1=np.array([8.0, -5.0, 3.0]), v2=np.array([9.0, -4.0, 3.5]))
    omegas = np.exp(np.linspace(math.log(1e-8), math.log(1e-2), 17))
    for shift in (None, 0.0):
        dens = soft_spectral_density(jump, omegas, delta_override=shift)
        assert isinstance(dens, np.ndarray) and dens.shape == omegas.shape
        scalar = [soft_spectral_density(jump, float(w), delta_override=shift) for w in omegas]
        assert all(isinstance(x, float) for x in scalar)
        assert dens.tolist() == scalar
    assert isinstance(soft_spectral_density(jump, np.float64(1e-4)), float)
    with pytest.raises(DomainError):
        soft_spectral_density(jump, np.array([1e-4, 0.0]))
    with pytest.raises(DomainError):
        soft_spectral_density(jump, np.ones((2, 2)))


def test_total_soft_count_equals_the_per_frequency_values():
    # the closed-form density on the totals' quarter-decade panels; the
    # shifted value is the one test_total_soft_count_matches_a_quad_of_the_density
    # checks to 1e-12 (the earlier 24-per-decade trapezoid read 4.3186e-11)
    u = np.array([0.48, -0.6, 0.64])
    jump = VelocityJump(v1=0.126 * C_AU * u, v2=0.148 * C_AU * u)
    assert total_soft_count(jump, 1e-8, 1e-2) == 4.3054464760673974e-11
    assert total_soft_count(jump, 1e-8, 1e-2, delta_override=0.0) == 1.0755184379902572e-05


def test_total_soft_count_evaluates_the_density_once(monkeypatch):
    jump = make_jump()
    calls = []
    density = ir_model.soft_spectral_density
    monkeypatch.setattr(
        ir_model, "soft_spectral_density", lambda *a, **k: calls.append(1) or density(*a, **k)
    )
    total_soft_count(jump, 1e-6)
    assert len(calls) == 1


# --- closed forms against references --------------------------------------
#
# In double precision 1 - |v|^2/c^2 loses log10(gamma^2) digits, and each
# mpmath reference below evaluates the same double inputs exactly, so the
# bounds carry a term in gamma^2 next to the rounding floor.


def _mp_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _mp_delta(jump):
    """The level shift's closed form at 40 digits."""
    with mpmath.workdps(40):
        v1 = [mpmath.mpf(x) for x in jump.v1.tolist()]
        beta = mpmath.sqrt(_mp_dot(v1, v1)) / mpmath.mpf(C_AU)
        at = mpmath.atanh(beta)
        pref = 2 * mpmath.mpf(jump.Z) ** 2 * mpmath.mpf(jump.q_c) / mpmath.pi
        return pref * (beta**2 * at - (at - beta)) / beta


def _mp_density(jump, omega, delta):
    """Weinberg's soft factor dN/domega = 2 Z^2 (eta/beta_rel - 1)/(pi c omega)
    at b_i = (v_i/c) omega/(omega + delta), at 80 digits: eta/beta_rel - 1
    ~ beta_rel^2/3 cancels 2 log10(1/beta_rel) of them, at most 35 on the
    draws below, and 40 remain."""
    with mpmath.workdps(80):
        c, w = mpmath.mpf(C_AU), mpmath.mpf(omega)
        s = w / (w + mpmath.mpf(delta))
        b1, b2 = ([mpmath.mpf(x) * s / c for x in v.tolist()] for v in (jump.v1, jump.v2))
        db = [y - x for x, y in zip(b1, b2)]
        one1, one2 = 1 - _mp_dot(b1, b1), 1 - _mp_dot(b2, b2)
        num = _mp_dot(db, db) * one1 + _mp_dot(b1, db) ** 2
        if num == 0:
            return mpmath.mpf(0)
        beta_rel = mpmath.sqrt(num) / (one1 - _mp_dot(b1, db))
        eta = mpmath.asinh(mpmath.sqrt(num / (one1 * one2)))
        return 2 * mpmath.mpf(jump.Z) ** 2 * (eta / beta_rel - 1) / (mpmath.pi * c * w)


def _gamma2(v):
    return 1.0 / (1.0 - float(v @ v) / C_AU**2)


def _unit(theta, phi):
    s = math.sin(theta)
    return np.array([s * math.cos(phi), s * math.sin(phi), math.cos(theta)])


def _z_jump(beta1, beta2, Z=1.0):
    z = np.array([0.0, 0.0, C_AU])
    return VelocityJump(v1=beta1 * z, v2=beta2 * z, Z=Z)


# speeds from 1e-6 c to 1 - 1e-8 c
_BETAS = st.one_of(st.floats(1e-6, 0.5), st.floats(0.3, 8.0).map(lambda k: 1.0 - 10.0**-k))
_ANGLES = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


@st.composite
def _jumps(draw):
    """Oblique jumps: v1 at beta1 c, v2 = v1 + dv with |dv|/|v1| in
    [1e-6, 0.29] in any direction, its component along v1 turned to slow
    the particle down, so that v2 stays below c."""
    beta1 = draw(_BETAS)
    u1 = _unit(*draw(_ANGLES))
    v1 = beta1 * C_AU * u1
    dv = 10.0 ** -draw(st.floats(0.54, 6.0)) * beta1 * C_AU * _unit(*draw(_ANGLES))
    dv -= 2.0 * max(float(dv @ u1), 0.0) * u1
    v2 = v1 + dv
    if float(v2 @ v2) >= float(v1 @ v1):  # nearly transverse: rotate only
        v2 *= beta1 * C_AU / math.sqrt(float(v2 @ v2))
    return VelocityJump(v1=v1, v2=v2, q_c=draw(st.floats(1.0, 1e3)), Z=draw(st.floats(0.5, 3.0)))


@settings(max_examples=300, deadline=None)
@given(jump=_jumps())
def test_delta_shift_matches_mpmath(jump):
    want = _mp_delta(jump)
    got = delta_shift(jump)
    assert math.isfinite(got)
    assert abs(got / float(want) - 1.0) <= 1e-14 + 1e-16 * _gamma2(jump.v1)


@settings(max_examples=300, deadline=None)
@given(jump=_jumps(), log_omega=st.floats(-6.0, 6.0), shifted=st.booleans())
def test_soft_spectral_density_matches_mpmath(jump, log_omega, shifted):
    omega = 10.0**log_omega
    delta = delta_shift(jump) if shifted else 0.0
    got = soft_spectral_density(jump, omega, delta_override=delta)
    want = float(_mp_density(jump, omega, delta))
    assert math.isfinite(got) and want > 0.0
    bound = 1e-13 + 1e-15 * max(_gamma2(jump.v1), _gamma2(jump.v2))
    assert abs(got / want - 1.0) <= bound


def test_results_are_finite_at_the_fastest_accepted_speeds():
    # the largest speeds VelocityJump accepts, along an axis and obliquely
    for u in (np.array([0.0, 0.0, 1.0]), np.array([0.48, -0.6, 0.64])):
        v = u * C_AU
        while True:
            try:
                VelocityJump(v1=v, v2=v)
                break
            except DomainError:
                v = np.nextafter(v, 0.0)
        for v2 in (v, 0.9 * v, np.array([v[1], v[2], v[0]])):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                jump = VelocityJump(v1=v, v2=v2)
            omegas = np.array([1e-8, 1.0, 1e6])
            assert math.isfinite(delta_shift(jump))
            for shift in (None, 0.0):
                assert np.all(np.isfinite(soft_spectral_density(jump, omegas, shift)))
                assert math.isfinite(total_soft_count(jump, 1e-8, 1e-2, delta_override=shift))


def test_density_rejects_a_negative_or_non_finite_shift():
    jump = make_jump()
    for bad in (-1e-3, math.nan, math.inf):
        with pytest.raises(DomainError):
            soft_spectral_density(jump, 1e-4, delta_override=bad)
    with pytest.raises(DomainError):
        soft_spectral_density(jump, math.inf)


def _collinear_density_quad(jump, omega, delta):
    """dN/domega of a jump along z (Z = 1) from the two-pole bracket, summed
    over polarizations and integrated over x = cos(theta) by mpmath:

        omega / (2 pi c^3) int (1 - x^2)
            [v2/(omega - omega x v2/c + Delta) - v1/(omega - omega x v1/c + Delta)]^2 dx
    """
    with mpmath.workdps(30):
        c, w, d = mpmath.mpf(C_AU), mpmath.mpf(omega), mpmath.mpf(delta)
        v1, v2 = mpmath.mpf(float(jump.v1[2])), mpmath.mpf(float(jump.v2[2]))

        def f(x):
            a = v2 / (w - w * x * v2 / c + d) - v1 / (w - w * x * v1 / c + d)
            return (1 - x * x) * a * a

        edge = 1 - 10 * (1 - max(v1, v2) / c)
        integral = mpmath.quad(f, [-1, 0, edge, 1 - (1 - edge) / 100, 1])
        return float(w / (2 * mpmath.pi * c**3) * integral)


@pytest.mark.parametrize("beta1, beta2", [(0.999, 0.9995), (0.9999, 0.99995)])
def test_density_near_c_matches_a_collinear_quad(beta1, beta2):
    # the 48 x 32 sphere rule read -11.3% and -95.7% low at these speeds
    jump = _z_jump(beta1, beta2)
    for omega in (1e-3, 1.0):
        for delta in (0.0, delta_shift(jump)):
            want = _collinear_density_quad(jump, omega, delta)
            got = soft_spectral_density(jump, omega, delta_override=delta)
            assert got == pytest.approx(want, rel=1e-11, abs=0.0)


def test_delta_shift_near_c_matches_a_quad():
    # Z^2 q_c / (2 pi^2 c) 2 pi int v^2 (1 - x^2) / (c - v x) dx at beta = 0.999,
    # where the 64 x 48 sphere rule was 1.8e-5 off
    jump = _z_jump(0.999, 0.9995)
    with mpmath.workdps(30):
        c, v = mpmath.mpf(C_AU), mpmath.mpf(float(jump.v1[2]))
        integrand = lambda x: v**2 * (1 - x * x) / (c - v * x)
        ang = 2 * mpmath.pi * mpmath.quad(integrand, [-1, 0, 0.99, 0.999, 1])
        want = float(mpmath.mpf(jump.q_c) / (2 * mpmath.pi**2 * c) * ang)
    assert delta_shift(jump) == pytest.approx(want, rel=1e-13, abs=0.0)


def _sphere_density(jump, omega, delta, n_polar=24, n_azimuth=24):
    """dN/domega as the paper's per-mode number summed over both
    polarizations on a Gauss-Legendre x midpoint sphere rule."""
    x, wx = np.polynomial.legendre.leggauss(n_polar)
    total = 0.0
    for cos_t, w_t in zip(x.tolist(), wx.tolist()):
        for k in range(n_azimuth):
            n = _unit(math.acos(cos_t), (k + 0.5) * 2.0 * math.pi / n_azimuth)
            q = omega / C_AU * n
            modes = sum(soft_photon_number(jump, PhotonMode(alpha=a, q=q), delta) for a in (1, 2))
            total += w_t * 2.0 * math.pi / n_azimuth * modes
    return (omega / C_AU) ** 2 / ((2.0 * math.pi) ** 3 * C_AU) * total


@pytest.mark.parametrize("beta1, beta2", [(0.1, 0.12), (0.2, 0.16)])
def test_density_equals_the_summed_per_mode_numbers(beta1, beta2):
    # ties the closed form to the per-mode photon number at low speeds
    u, u2 = np.array([0.48, -0.6, 0.64]), np.array([0.6, -0.48, 0.64])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        jump = VelocityJump(v1=beta1 * C_AU * u, v2=beta2 * C_AU * u2)
    for delta in (0.0, delta_shift(jump)):
        want = _sphere_density(jump, 1e-5, delta)
        got = soft_spectral_density(jump, 1e-5, delta_override=delta)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("beta1, beta2", [(0.1, 0.12), (0.126, 0.148), (0.5, 0.6)])
def test_total_soft_count_matches_a_quad_of_the_density(beta1, beta2):
    # the 24-per-decade trapezoid read 3.0e-3 high here: below Delta,
    # omega dN/domega grows as omega^2, which the trapezoid overestimates
    u = np.array([0.48, -0.6, 0.64])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        jump = VelocityJump(v1=beta1 * C_AU * u, v2=beta2 * C_AU * u)
    delta = delta_shift(jump)
    with mpmath.workdps(40):
        edges = [mpmath.log(10.0**k) for k in range(-8, -1)]
        want = mpmath.quad(lambda t: mpmath.exp(t) * _mp_density(jump, mpmath.exp(t), delta), edges)
    got = total_soft_count(jump, 1e-8, 1e-2)
    assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_unshifted_count_is_the_flat_spectrum_times_the_log_window():
    # at Delta = 0, omega dN/domega = Z^2 I / (4 pi^2 c) with
    # I = 2 pi int (1 - x^2) [beta2/(1 - x beta2) - beta1/(1 - x beta1)]^2 dx
    Z = 2.0
    jump = _z_jump(0.3, 0.36, Z=Z)
    with mpmath.workdps(30):
        b1, b2 = (mpmath.mpf(float(v[2])) / mpmath.mpf(C_AU) for v in (jump.v1, jump.v2))
        integrand = lambda x: (1 - x * x) * (b2 / (1 - x * b2) - b1 / (1 - x * b1)) ** 2
        i = 2 * mpmath.pi * mpmath.quad(integrand, [-1, 1])
    want = Z**2 * float(i) * math.log(1e4 / 1e-7) / (4.0 * math.pi**2 * C_AU)
    got = total_soft_count(jump, 1e-7, 1e4, delta_override=0.0)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
