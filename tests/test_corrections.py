"""Photon-interaction exponent P and the exp(-P)-damped photon number."""

import math
import warnings

import numpy as np
import pytest
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
    assert float(np.sum(weights)) == pytest.approx(ms.q_c**3 / (6 * math.pi**2), rel=1e-10)
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
    assert const.value == pytest.approx(np.conj(const_swap.value), rel=1e-13)
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


def test_p_vanishing_momentum_limit():
    v0 = np.array([V01, 0.0, 0.0])
    amps = UniformVelocityAmplitudes(v0)
    ms = small_mode_sum()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tiny = p_general(np.array([0.0, 0.0, 1e-10]), amps, 1.005, 1.0, 2.0, mode_sum=ms).value
        ref = p_general(np.array([0.0, 0.0, 0.01]), amps, 1.005, 1.0, 2.0, mode_sum=ms).value
    assert abs(tiny) < 1e-6 * abs(ref)


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
    assert p2.real - p1.real == pytest.approx(2 * pref, rel=1e-12)
    assert p1.imag == pytest.approx(math.pi * pref, rel=1e-12)
    assert p_nonrel_asymptotic(V01, 1.0, C_AU, -1.0).imag == pytest.approx(
        -math.pi * pref, rel=1e-12
    )
    assert p1.real == pytest.approx(
        2 * pref * (EULER_GAMMA + math.log(C_AU * C_AU)), rel=1e-12
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
    for p in (0.3, 1.0, 2.5):
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


# A criterion-06-like jump off the axes, with the values the per-call sphere
# build and the per-entry Hermitian fill gave before the caching, as literals:
# the cached geometry, the single Si/Ci pass and the triangle fill must
# reproduce them bit for bit.
JUMP_DIR = np.array([0.48, -0.6, 0.64])
JUMP_V1, JUMP_V2 = 0.126 * C_AU * JUMP_DIR, 0.148 * C_AU * JUMP_DIR
JUMP_Q = 6.0 / C_AU * np.array([0.0, 0.6, -0.8])
LAGS = np.linspace(-1.0, 1.0, 257)
P_EVERY_16TH_LAG = [
    0.0005167702411712686 - 7.797934301954255e-05j,
    0.0005101412562730608 - 7.797932409085023e-05j,
    0.0005024887681838614 - 7.797935096926039e-05j,
    0.0004934377498366474 - 7.797933063085594e-05j,
    0.0004823602286366853 - 7.797929829055687e-05j,
    0.0004680791664755539 - 7.797923515235346e-05j,
    0.00044794993208253496 - 7.797931195905637e-05j,
    0.0004135392446640696 - 7.79783357627206e-05j,
    0j,
    0.0004135392446640696 + 7.79783357627206e-05j,
    0.00044794993208253496 + 7.797931195905637e-05j,
    0.0004680791664755539 + 7.797923515235346e-05j,
    0.0004823602286366853 + 7.797929829055687e-05j,
    0.0004934377498366474 + 7.797933063085594e-05j,
    0.0005024887681838614 + 7.797935096926039e-05j,
    0.0005101412562730608 + 7.797932409085023e-05j,
    0.0005167702411712686 + 7.797934301954255e-05j,
]


def jump_p_table():
    return np.array(
        [p_const_velocity(JUMP_V1, JUMP_Q, t1=d, t2=0.0).value if d != 0 else 0.0 for d in LAGS]
    )


def test_p_table_equals_the_per_call_values():
    table = jump_p_table()
    assert table[::16].tolist() == P_EVERY_16TH_LAG
    assert math.fsum(table.real * (1 + LAGS)) == 0.11991670777439113
    assert math.fsum(table.imag * (1 + LAGS)) == 0.01005933396051814


def test_corrected_numbers_equal_the_per_entry_fill():
    table = jump_p_table()

    def provider(t1, t2):
        d = t1 - t2
        return complex(np.interp(d, LAGS, table.real), np.interp(d, LAGS, table.imag))

    law = PiecewiseConstantVelocity(JUMP_V1, JUMP_V2, t_jump=0.5)
    want = {1: (0.4932751500102361, 0.4936536489129677), 2: (0.019731006000409442, 0.019746145956518725)}
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
    monkeypatch.setattr(numerics, "gauss_nodes", lambda *a: builds.append(a) or gauss(*a))
    numerics.sphere_rule.cache_clear()
    corrections._const_velocity_geometry.cache_clear()
    v0, q = np.array([0.0, 0.15 * C_AU, 0.0]), np.array([0.01, 0.0, 0.02])
    p_const_velocity(v0, q, t1=0.25, t2=0.0)
    assert elems == [48 * 32, 48 * 32]
    # 128 lags and their exact negatives (linspace(-1, 1, 256) itself is not
    # symmetric in the last bit): one pass per |dt|, plus the first call's
    half = np.linspace(-1.0, 1.0, 256)[128:]
    for d in np.concatenate([-half[::-1], half]):
        p_const_velocity(v0, q, t1=d, t2=0.0)
    assert len(elems) == 2 * 129
    assert builds == [(-1.0, 1.0, 48)]
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

    def loop(law, mode, Z, times):
        # the scalar reference: one velocity and position lookup per time
        g = math.sqrt(mode.g_squared)
        out = []
        for tp in times:
            v, r = law.velocity(float(tp)), law.position(float(tp))
            phase = mode.omega * tp - float(mode.q @ r)
            out.append(1j * (Z / C_AU) * g * float(mode.e_vec @ v) * np.exp(1j * phase))
        return np.array(out)

    times = np.linspace(0.0, 1.0, 97)
    for law in (
        PiecewiseConstantVelocity(JUMP_V1, JUMP_V2, t_jump=0.5),
        steady(JUMP_V2),
    ):
        for alpha in (1, 2):
            mode = PhotonMode(alpha=alpha, q=JUMP_Q)
            assert _qdot(law, mode, 1.3, times).tolist() == loop(law, mode, 1.3, times).tolist()
