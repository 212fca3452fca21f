"""Velocity-jump soft-photon model: level shift, regularized spectra, and
the infrared dichotomy."""

import math
import warnings

import numpy as np
import pytest

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
    # the parent's values (one density call per frequency) as literals
    u = np.array([0.48, -0.6, 0.64])
    jump = VelocityJump(v1=0.126 * C_AU * u, v2=0.148 * C_AU * u)
    assert total_soft_count(jump, 1e-8, 1e-2) == 4.318596684935966e-11
    assert total_soft_count(jump, 1e-8, 1e-2, delta_override=0.0) == 1.075518437990257e-05


def test_total_soft_count_evaluates_the_density_once(monkeypatch):
    jump = make_jump()
    calls = []
    density = ir_model.soft_spectral_density
    monkeypatch.setattr(
        ir_model, "soft_spectral_density", lambda *a, **k: calls.append(1) or density(*a, **k)
    )
    total_soft_count(jump, 1e-6)
    assert len(calls) == 1
