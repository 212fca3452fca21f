"""Acceptance gate: ten numbered criteria covering radiated power, the
infrared model, the photon-interaction exponent, decoherence identities,
localization behavior, packet identities, and the special-function oracles.

Each test prints one summary line (visible without -s) so a full run reads
as a checklist.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.special

from synchrad.corrections import (
    PiecewiseConstantVelocity,
    UniformVelocityAmplitudes,
    corrected_photon_number,
    p_const_velocity,
    p_general,
    p_nonrel_asymptotic,
    ModeSum,
)
from synchrad.decoherence import localization_time, localization_width, s_averaged, s_ultrarel
from synchrad.ir_model import (
    VelocityJump,
    delta_shift,
    delta_shift_closed_form,
    soft_photon_number,
    total_soft_count,
)
from synchrad.packets import (
    larmor_frequency,
    level_spacing,
    mean_principal_number,
    packet_widths,
    relative_fluctuation,
    spreading_time,
)
from synchrad.semiclassical import PhotonMode, classical_power, total_photon_rate, total_power
from synchrad.units import C_AU, FIAN_60, BeamParams, beam_from_lab


def _report(capsys, label: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"[{label}] {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{label}: {detail}"


def _jump():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return VelocityJump(
            v1=np.array([0.1 * C_AU, 0.0, 0.0]),
            v2=np.array([0.12 * C_AU, 0.0, 0.0]),
        )


def _soft_mode(omega, direction=(0.0, 0.0, 1.0)):
    return PhotonMode(alpha=1, q=omega / C_AU * np.array(direction, dtype=float))


def test_criterion_01_total_power_matches_classical(capsys):
    worst = 0.0
    slowest = 0.0
    for gamma in (1.01, 2.0, 10.0):
        beam = BeamParams.from_gamma_radius(gamma, 1000.0)
        t0 = time.time()
        got = total_power(beam)
        slowest = max(slowest, time.time() - t0)
        ref = classical_power(beam)
        worst = max(worst, abs(got - ref) / ref)
    ok = worst <= 0.01 and slowest <= 60.0
    _report(
        capsys,
        "criterion 01: summed harmonic power vs classical formula",
        ok,
        f"worst rel err {worst:.2e}, slowest gamma {slowest:.1f} s",
    )


def test_criterion_02_soft_mode_occupation_slope(capsys):
    jump = _jump()
    omegas = np.logspace(-6, -4, 21)
    vals = [soft_photon_number(jump, _soft_mode(w), delta_override=0.0) for w in omegas]
    slope = float(np.polyfit(np.log(omegas), np.log(vals), 1)[0])
    ok = abs(slope + 3.0) <= 0.05
    _report(
        capsys,
        "criterion 02: per-mode soft photon number slope -3",
        ok,
        f"fitted slope {slope:.4f} over two decades",
    )


def test_criterion_03_level_shift_closed_form(capsys):
    jump = _jump()  # incoming speed beta = 0.1
    num = delta_shift(jump)
    closed = delta_shift_closed_form(jump)
    rel = abs(num - closed) / closed
    ok = rel <= 0.005
    _report(
        capsys,
        "criterion 03: angular quadrature of the level shift vs closed form",
        ok,
        f"rel err {rel:.2e} at beta = 0.1",
    )


def test_criterion_04_infrared_dichotomy(capsys):
    jump = _jump()
    # shifted poles: integrated count converges under omega_min halving
    totals = [total_soft_count(jump, 1e-6 / 2**k) for k in range(4)]
    max_change = max(
        abs(b - a) / a for a, b in zip(totals, totals[1:])
    )
    converged = max_change < 0.01
    # unshifted poles: count grows linearly in ln(1/omega_min), stable slope
    mins = [1e-5 / 2**k for k in range(5)]
    raw = [total_soft_count(jump, m, delta_override=0.0) for m in mins]
    slopes = [(b - a) / math.log(2.0) for a, b in zip(raw, raw[1:])]
    stable = max(abs(s - slopes[0]) / slopes[0] for s in slopes) <= 0.03
    ok = converged and stable
    _report(
        capsys,
        "criterion 04: infrared dichotomy of the integrated soft count",
        ok,
        f"shifted change {max_change:.2e}, log-slope scatter within 3%: {stable}",
    )


def test_criterion_05_interaction_exponent_properties(capsys):
    v0 = np.array([0.1 * C_AU, 0.0, 0.0])
    amps = UniformVelocityAmplitudes(v0)
    ms = ModeSum(q_c=0.5, n_radial=12, n_polar=10, n_azimuth=10)
    q = np.array([0.0, 0.0, 0.01])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diag = abs(p_general(q, amps, 1.005, 2.0, 2.0, mode_sum=ms).value)
        p12 = p_general(q, amps, 1.005, 1.0, 2.0, mode_sum=ms).value
        p21 = p_general(q, amps, 1.005, 2.0, 1.0, mode_sum=ms).value
        herm = abs(p12 - np.conj(p21))
        tiny = abs(p_general(np.array([0.0, 0.0, 1e-10]), amps, 1.005, 1.0, 2.0, mode_sum=ms).value)
    small_q = tiny < 1e-6 * abs(p12)
    # closed angular form vs long-time asymptote for c q_c dt >= 100
    worst = 0.0
    for dt in (100.0 / C_AU**2, 1.0):
        got = p_const_velocity(v0, q, t1=dt, t2=0.0).value
        ref = p_nonrel_asymptotic(0.1 * C_AU, 1.0, C_AU, dt)
        worst = max(worst, abs(got - ref) / abs(ref))
    ok = diag <= 1e-12 and herm <= 1e-12 and small_q and worst <= 0.05
    _report(
        capsys,
        "criterion 05: interaction exponent diagonal/Hermitian/limits",
        ok,
        f"diag {diag:.1e}, herm {herm:.1e}, asymptote rel err {worst:.2e}",
    )


def test_criterion_06_damping_reduces_emission(capsys):
    # velocity-jump benchmark inside the formation band omega T <= 10: the
    # exp(-P)-damped number never exceeds the semiclassical one
    warnings.simplefilter("ignore")
    v1 = np.array([0.1 * C_AU, 0.0, 0.0])
    v2 = np.array([0.12 * C_AU, 0.0, 0.0])
    law = PiecewiseConstantVelocity(v1, v2, t_jump=0.5)
    T = 1.0

    def make_provider(q):
        # for the constant-velocity exponent P depends only on t1 - t2
        dts = np.linspace(-T, T, 257)
        vals = np.array(
            [p_const_velocity(v1, q, t1=d, t2=0.0).value if d != 0 else 0.0 for d in dts]
        )

        def provider(t1, t2):
            d = t1 - t2
            return complex(np.interp(d, dts, vals.real), np.interp(d, dts, vals.imag))

        return provider

    dirs = [(0, 0, 1), (0.6, 0, 0.8), (0, 1, 0), (0.5, 0.5, math.sqrt(0.5))]
    worst_ratio = 0.0
    checked = 0
    for omega in (0.3, 1.0, 3.0, 10.0):
        for d in dirs:
            q = (omega / C_AU) * np.array(d, dtype=float)
            provider = make_provider(q)
            for alpha in (1, 2):
                mode = PhotonMode(alpha=alpha, q=q)
                sc = corrected_photon_number(law, mode, T, nodes_per_piece=48)
                if sc < 1e-300:
                    continue
                corr = corrected_photon_number(
                    law, mode, T, p_provider=provider, nodes_per_piece=48
                )
                worst_ratio = max(worst_ratio, corr / sc)
                checked += 1
    ok = checked >= 20 and worst_ratio <= 1.0 + 1e-9
    _report(
        capsys,
        "criterion 06: corrected photon number never exceeds semiclassical",
        ok,
        f"worst corrected/semiclassical {worst_ratio:.6f} over {checked} modes",
    )


def test_criterion_07_decoherence_cross_identities(capsys):
    worst = 0.0
    for gamma in (2.0, 10.0, 100.0):
        beam = BeamParams.from_gamma_radius(gamma, 1000.0)
        assert s_averaged(0.0, 0.9, 1.0, beam) == 0.0
        rate = total_photon_rate(beam)
        r_big = 1e6 * C_AU / beam.omega0
        got = s_averaged(r_big, 1.1, 1.0, beam)
        worst = max(worst, abs(got - rate) / rate)
    rate_ok = worst <= 0.01
    # ultrarelativistic Airy kernel vs the harmonic sum at gamma = 1000
    beam = BeamParams.from_gamma_radius(1000.0, 3.78e10)
    r_scale = C_AU / (beam.omega0 * beam.gamma**3)
    worst_k = 0.0
    for theta0 in (math.pi / 2, 0.0):
        for mult in (1.0, 30.0):
            r = mult * r_scale
            ref = s_averaged(r, theta0, 1.0, beam)
            got = s_ultrarel(r, theta0, 1.0, beam, epsilon=0.1)
            worst_k = max(worst_k, abs(got - ref) / ref)
    kernel_ok = worst_k <= 0.05
    ok = rate_ok and kernel_ok
    _report(
        capsys,
        "criterion 07: decoherence plateau and ultrarelativistic kernel",
        ok,
        f"plateau rel err {worst:.2e}, kernel rel err {worst_k:.2e}",
    )


def test_criterion_08_localization_anisotropy(capsys):
    beam = beam_from_lab(FIAN_60)
    times = (1e8, 1e10, 1e12, 1e14)
    trans = [localization_width(beam, t, "transverse") for t in times]
    longi = [localization_width(beam, t, "longitudinal") for t in times]
    finite = all(map(math.isfinite, trans + longi))
    monotone = all(b <= a for a, b in zip(trans, trans[1:])) and all(
        b <= a for a, b in zip(longi, longi[1:])
    )
    anisotropic = all(l > t for t, l in zip(trans, longi))
    # informational time scales: localization down to the quantum packet
    # width, and the spreading time of a Poisson-width level superposition
    drho, _, _ = packet_widths(beam)
    _, tau_c_s = localization_time(beam, drho, "transverse")
    n1 = mean_principal_number(beam)
    _, tau_1_s = spreading_time(beam, math.sqrt(n1))
    with capsys.disabled():
        print(
            f"[criterion 08: info] widths_transverse_bohr={['%.3e' % w for w in trans]} "
            f"widths_longitudinal_bohr={['%.3e' % w for w in longi]}"
        )
        print(
            f"[criterion 08: info] localization to packet width: {tau_c_s:.3e} s; "
            f"level-superposition spreading time: {tau_1_s:.3e} s"
        )
    ok = finite and monotone and anisotropic
    _report(
        capsys,
        "criterion 08: localization widths monotone and anisotropic",
        ok,
        f"finite {finite}, monotone {monotone}, longitudinal > transverse {anisotropic}",
    )


def test_criterion_09_packet_identities(capsys):
    beam = beam_from_lab(FIAN_60)
    drho, dphi, arc = packet_widths(beam)
    ident = abs(arc - drho / math.sqrt(2.0)) / arc
    n1 = int(mean_principal_number(beam))
    spacing = level_spacing(n1, beam.H0)
    spacing_rel = abs(spacing - 2.0 * larmor_frequency(beam.H0) / beam.gamma) / spacing
    lam = relative_fluctuation(beam)
    ok = ident <= 1e-12 and spacing_rel <= 1e-6
    _report(
        capsys,
        "criterion 09: packet width identity and level spacing",
        ok,
        f"arc identity {ident:.1e}, spacing rel err {spacing_rel:.1e}, "
        f"n1_mean {n1:.3e}, lambda {lam:.2e}",
    )


def test_criterion_10_special_function_oracles(capsys):
    # independent Maclaurin/asymptotic oracles, written out from scratch,
    # against the vectorized scipy.special calls the physics makes
    worst = 0.0

    def bessel_series(n, x, terms=40):
        total = 0.0
        for k in range(terms):
            total += (-1) ** k * (x / 2.0) ** (2 * k + n) / (
                math.factorial(k) * math.factorial(k + n)
            )
        return total

    def bessel_prime_series(n, x, terms=40):
        # termwise derivative of the series above
        total = 0.0
        for k in range(terms):
            if 2 * k + n > 0:
                total += (-1) ** k * (2 * k + n) / 2.0 * (x / 2.0) ** (2 * k + n - 1) / (
                    math.factorial(k) * math.factorial(k + n)
                )
        return total

    # as _emission calls them: harmonic column against argument rows
    orders, args = np.array([[0.0], [1.0], [5.0]]), np.array([[0.3, 1.7, 6.0]])
    jn = scipy.special.jv(orders, args)
    jnp = scipy.special.jvp(orders, args, 1)
    for i, n in enumerate((0, 1, 5)):
        for j, x in enumerate((0.3, 1.7, 6.0)):
            worst = max(worst, abs(jn[i, j] - bessel_series(n, x)))
            worst = max(worst, abs(jnp[i, j] - bessel_prime_series(n, x)))

    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)  # Ai(0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)  # -Ai'(0)

    def airy_series(x, terms=60):
        f_terms, g_terms = [1.0], [x]
        tf, tg = 1.0, x
        for k in range(1, terms):
            tf *= x**3 / ((3 * k) * (3 * k - 1))
            tg *= x**3 / ((3 * k + 1) * (3 * k))
            f_terms.append(tf)
            g_terms.append(tg)
        return c1 * math.fsum(f_terms) - c2 * math.fsum(g_terms)

    def airy_prime_series(x, terms=60):
        fp, gp = [0.0], [1.0]
        tf, tg = 1.0, x
        for k in range(1, terms):
            tf *= x**3 / ((3 * k) * (3 * k - 1))
            tg *= x**3 / ((3 * k + 1) * (3 * k))
            fp.append(tf * (3 * k) / x if x != 0 else 0.0)
            gp.append(tg * (3 * k + 1) / x if x != 0 else 0.0)
        return c1 * math.fsum(fp) - c2 * math.fsum(gp)

    # as s_ultrarel calls it: one array of all its nodes in, Ai and Ai' out
    ai, aip, _, _ = scipy.special.airy(np.array([0.0, 0.9, 2.5]))
    for i, x in enumerate((0.0, 0.9, 2.5)):
        worst = max(worst, abs(ai[i] - airy_series(x)))
        if x != 0.0:
            worst = max(worst, abs(aip[i] - airy_prime_series(x)))

    def si_series(x, terms=40):
        total = 0.0
        for k in range(terms):
            total += (-1) ** k * x ** (2 * k + 1) / (
                (2 * k + 1) * math.factorial(2 * k + 1)
            )
        return total

    def ci_series(x, terms=40):
        total = 0.57721566490153286 + math.log(x)
        for k in range(1, terms):
            total += (-1) ** k * x ** (2 * k) / (2 * k * math.factorial(2 * k))
        return total

    # as p_const_velocity calls it: sici on |x|, Si(x) = copysign(Si(|x|), x)
    x = np.array([0.2, 1.0, 4.0, -0.2, -1.0, -4.0])
    si_abs, ci = scipy.special.sici(np.abs(x))
    si = np.copysign(si_abs, x)
    for i, xi in enumerate(x.tolist()):
        worst = max(worst, abs(si[i] - si_series(xi)))
        worst = max(worst, abs(ci[i] - ci_series(abs(xi))))

    ok = worst <= 1e-10
    _report(
        capsys,
        "criterion 10: special functions vs independent series oracles",
        ok,
        f"worst abs err {worst:.1e}",
    )
