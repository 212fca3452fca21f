"""Tests of the benchmark itself: its reference formulas, checked against
integrals computed here from first principles; its percentile rule; the
tracer's self-time bookkeeping; the make-up of the seeded inputs; and the
agreement of BENCHMARK.json with the metrics the code prints."""

import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import orderstats
import reference as ref
import tracing

ROOT = Path(__file__).resolve().parents[1]
C = ref.C_AU


def _quad_inf(f):
    return integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=400)[0]


# --- percentile rule -------------------------------------------------------


def test_tail_needs_forty_samples():
    assert orderstats.tail_percentile([1.0] * 39) is None
    assert orderstats.tail_percentile(list(range(40))) == (75, 29)


def test_tail_keeps_ten_samples_beyond():
    for n in (40, 57, 100, 1000):
        samples = list(np.random.default_rng(n).permutation(n).astype(float))
        p, value = orderstats.tail_percentile(samples)
        assert sum(s > value for s in samples) >= orderstats.TAIL_BEYOND
        if p < 99:  # the next percentile up would leave fewer than ten beyond
            rank = math.ceil((p + 1) / 100.0 * n)
            assert sum(s > sorted(samples)[rank - 1] for s in samples) < orderstats.TAIL_BEYOND
    assert orderstats.tail_percentile(list(range(100)))[0] == 90


def test_tail_counts_ties_as_not_beyond():
    samples = [1.0] * 35 + [2.0] * 15
    p, value = orderstats.tail_percentile(samples)
    assert value == 1.0 and p == 70


def test_spread_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert orderstats.quartiles(values) == (q1, med, q3)
    assert orderstats.spread(values) == pytest.approx((q3 - q1) / med)


# --- reference formulas ----------------------------------------------------


def test_lienard_constant_from_synchrotron_spectrum():
    # P = (3 sqrt3 / 4 pi) c gamma^4 / R^2 * int F,  F(x) = x int_x^inf K_{5/3}
    # and int_0^inf F = int_0^inf t^2/2 K_{5/3}(t) dt
    int_f = _quad_inf(lambda t: 0.5 * t * t * special.kv(5.0 / 3.0, t))
    gamma, R = 1e5, 3e4
    scale = C * ref.beta_of(gamma) ** 4 * gamma**4 / R**2
    assert ref.lienard_power(1.0, gamma, R) / scale == pytest.approx(
        3.0 * math.sqrt(3.0) / (4.0 * math.pi) * int_f, rel=1e-9
    )
    assert ref.lienard_power(2.0, gamma, R) == pytest.approx(4.0 * ref.lienard_power(1.0, gamma, R))


def test_photon_rate_from_synchrotron_spectrum():
    # N = sqrt3 gamma / (2 pi R) * int F(x)/x dx = ... int t K_{5/3}(t) dt
    int_f_over_x = _quad_inf(lambda t: t * special.kv(5.0 / 3.0, t))
    gamma, R = 1330.0, 3.78e10
    want = math.sqrt(3.0) * gamma / (2.0 * math.pi * R) * int_f_over_x
    assert ref.photon_rate_ultrarel(1.0, gamma, R) == pytest.approx(want, rel=1e-9)


def test_transverse_constant_from_spectrum_second_moment():
    # c_perp = <k^2>/4 = 1/(4 c^2) * sqrt3 gamma/(2 pi R) * omega_c^2 * int x F(x) dx
    int_xf = _quad_inf(lambda t: t**3 / 3.0 * special.kv(5.0 / 3.0, t))
    gamma, R = 1e6, 1e12
    omega_c = 1.5 * gamma**3 * C / R
    want = math.sqrt(3.0) * gamma / (2.0 * math.pi * R) * omega_c**2 * int_xf / (4.0 * C**2)
    assert ref.diffusion_constant(1.0, gamma, R, "transverse") == pytest.approx(want, rel=1e-9)


def test_longitudinal_constant_from_angular_distribution():
    # energy-squared-weighted <psi^2> over the synchrotron angle-frequency
    # distribution, with psi in units of 1/gamma and the frequency integral
    # int z^3 K_nu(z)^2 dz done first
    i23 = _quad_inf(lambda z: z**3 * special.kv(2.0 / 3.0, z) ** 2)
    i13 = _quad_inf(lambda z: z**3 * special.kv(1.0 / 3.0, z) ** 2)

    def weight(s):
        return (1.0 + s * s) ** -4 * (i23 + s * s / (1.0 + s * s) * i13)

    num = _quad_inf(lambda s: s * s * weight(s))
    den = _quad_inf(weight)
    gamma, R = 1330.0, 3.78e10
    ratio = ref.diffusion_constant(1.0, gamma, R, "longitudinal") / ref.diffusion_constant(1.0, gamma, R, "transverse")
    assert num / den == pytest.approx(13.0 / 55.0, rel=1e-8)
    assert ratio == pytest.approx(2.0 * num / den / gamma**2, rel=1e-8)


def test_gaussian_width_from_fourier_square_root():
    gamma, R, t = 1330.0, 3.78e10, 1e12
    c = ref.diffusion_constant(1.0, gamma, R, "transverse")
    want = ref.gaussian_width(t, 1.0, gamma, R, "transverse")
    n, span = 2**14, 40.0 * want
    x = (np.arange(n) - n // 2) * (span / n)
    kernel = np.exp(-c * t * x**2)
    chi_q = np.sqrt(np.abs(np.fft.fft(np.fft.ifftshift(kernel))))
    chi_x = np.fft.fftshift(np.fft.ifft(chi_q).real)
    w2 = chi_x**2
    assert math.sqrt(np.sum(x**2 * w2) / np.sum(w2)) == pytest.approx(want, rel=1e-6)


def test_packet_closed_forms_match_larmor_definition():
    for gamma, R in ((2.0, 1e3), (1330.0, 3.78e10), (1e4, 1e11)):
        beta = ref.beta_of(gamma)
        omega_larmor = gamma * C * (beta * C / R) / (2.0 * C)  # H0 / 2c, H0 = gamma c omega0
        n1 = (gamma**2 - 1.0) * C**2 / (4.0 * omega_larmor)
        forms = ref.packet_closed_forms(gamma, R)
        assert forms["n1_mean"] == pytest.approx(n1, rel=1e-12)
        assert forms["drho_m"] * ref.BOHR_PER_METER == pytest.approx(R / math.sqrt(n1), rel=1e-12)
        assert forms["arc_m"] * ref.BOHR_PER_METER == pytest.approx(R / math.sqrt(2.0 * n1), rel=1e-12)


def _sphere_rule(n_polar=96, n_azimuth=96):
    x, w = np.polynomial.legendre.leggauss(n_polar)
    phi = (np.arange(n_azimuth) + 0.5) * 2.0 * math.pi / n_azimuth
    X, PHI = np.meshgrid(x, phi, indexing="ij")
    s = np.sqrt(1.0 - X**2)
    n = np.stack([s * np.cos(PHI), s * np.sin(PHI), X], axis=-1).reshape(-1, 3)
    return n, np.repeat(w, n_azimuth) * 2.0 * math.pi / n_azimuth


def test_jump_photon_number_matches_direct_quadrature():
    rng = np.random.default_rng(7)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    v1, v2 = 0.15 * C * u, 0.12 * C * u
    nq = rng.normal(size=3)
    nq /= np.linalg.norm(nq)
    q = 3.0 / C * nq
    omega = C * np.linalg.norm(q)

    def r_of(t):
        return v1 * t if t < 0.5 else v1 * 0.5 + v2 * (t - 0.5)

    def component(i, part):
        def f(t):
            v = v1 if t < 0.5 else v2
            z = v[i] * np.exp(1j * (omega * t - q @ r_of(t)))
            return z.real if part == 0 else z.imag

        return integrate.quad(f, 0.0, 1.0, points=[0.5], epsabs=0.0, epsrel=1e-12, limit=200)[0]

    A = np.array([component(i, 0) + 1j * component(i, 1) for i in range(3)])
    transverse = float(np.vdot(A, A).real) - abs(nq @ A) ** 2
    want = (1.0 / C) ** 2 * (2.0 * math.pi * C**2 / omega) * transverse
    assert ref.jump_photon_number(v1, v2, 0.5, 1.0, q) == pytest.approx(want, rel=1e-10)


def test_corrected_jump_number_matches_double_integral():
    # kernel exp(-P) with P = a|d| + i b d: linear on either side of d = 0, so
    # the lag table holds it exactly and the double integral needs no table
    rng = np.random.default_rng(11)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    v1, v2 = 0.18 * C * u, 0.14 * C * u
    nq = rng.normal(size=3)
    nq /= np.linalg.norm(nq)
    q = 6.0 / C * nq
    omega = C * np.linalg.norm(q)
    a, b = 0.3, 0.7
    lags = np.linspace(-1.0, 1.0, 9)
    table = a * np.abs(lags) + 1j * b * lags

    def vel(t):
        return v1 if t < 0.5 else v2

    def phase(t):
        return omega * t - q @ (v1 * t if t < 0.5 else v1 * 0.5 + v2 * (t - 0.5))

    def f(t2, t1, part):
        va, vb = vel(t1), vel(t2)
        pol = va @ vb - (nq @ va) * (nq @ vb)
        d = t1 - t2
        z = pol * np.exp(-1j * phase(t1) + 1j * phase(t2) - (a * abs(d) + 1j * b * d))
        return z.real if part == 0 else z.imag

    total = 0.0
    for lo1, hi1 in ((0.0, 0.5), (0.5, 1.0)):
        for lo2, hi2 in ((0.0, 0.5), (0.5, 1.0)):
            # split the diagonal block at t2 = t1, where the kernel has its kink
            regions = [(lambda t1: lo2, lambda t1: min(hi2, max(lo2, t1))), (lambda t1: min(hi2, max(lo2, t1)), lambda t1: hi2)]
            for g, h in regions:
                total += integrate.dblquad(f, lo1, hi1, g, h, args=(0,), epsabs=1e-13, epsrel=1e-11)[0]
    want = (1.0 / C) ** 2 * (2.0 * math.pi * C**2 / omega) * total
    got = ref.jump_corrected_photon_number(v1, v2, 0.5, 1.0, q, lags, table)
    assert got == pytest.approx(want, rel=1e-8)
    # with no damping the lag integral is the semiclassical number
    flat = ref.jump_corrected_photon_number(v1, v2, 0.5, 1.0, q, lags, np.zeros(9))
    assert flat == pytest.approx(ref.jump_photon_number(v1, v2, 0.5, 1.0, q), rel=1e-12)
    # omega T = 6 is near the first zero of the amplitude: here the damped
    # number is the larger one, and both stay under the Minkowski bound
    assert 0.0 < flat < got < ref.jump_number_scale(v1, v2, 0.5, 1.0, q)


def test_level_shift_matches_sphere_integral():
    rng = np.random.default_rng(3)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    n, w = _sphere_rule()
    for beta in (0.05, 0.2):
        v = beta * C * u
        cross2 = v @ v - (n @ v) ** 2
        ang = np.sum(w * cross2 / (C - n @ v))
        want = C / (2.0 * math.pi**2 * C) * ang
        assert ref.level_shift_collinear(beta, q_c=C) == pytest.approx(want, rel=1e-12)
    # nonrelativistic limit 4 v^2 q_c / (3 pi c^2)
    beta = 1e-4
    assert ref.level_shift_collinear(beta, q_c=C) == pytest.approx(
        4.0 * (beta * C) ** 2 * C / (3.0 * math.pi * C**2), rel=1e-7
    )


def test_flat_soft_spectrum_matches_sphere_integral():
    rng = np.random.default_rng(5)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    n, w = _sphere_rule()
    beta1, beta2 = 0.18, 0.13
    omega = 1e-5
    for b1, b2 in ((beta1, beta2), (beta2, beta1)):
        v1, v2 = b1 * C * u, b2 * C * u
        # polarization-summed |e.v2/(omega - q.v2) - e.v1/(omega - q.v1)|^2
        amp = v2[None, :] / (omega * (1.0 - n @ v2 / C))[:, None] - v1[None, :] / (omega * (1.0 - n @ v1 / C))[:, None]
        transverse = np.sum(amp**2, axis=1) - np.sum(n * amp, axis=1) ** 2
        q = omega / C
        dens = np.sum(w * q**2 / ((2.0 * math.pi) ** 3 * C) * (2.0 * math.pi * C**2 / omega) / C**2 * transverse)
        assert ref.flat_soft_spectrum(b1, b2) == pytest.approx(omega * dens, rel=1e-10)


# --- tracer ----------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2 and totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(totals["outer"]["s"] - totals["inner"]["s"], abs=1e-12)


def test_nested_spans_of_one_name_count_once():
    tracer = tracing.Tracer()

    def body(depth):
        return depth if depth == 0 else rec(depth - 1)

    rec = tracer.wrap("rec", body)
    rec(3)
    totals = tracer.totals()
    spans = np.array(tracer.end) - np.array(tracer.start)
    assert totals["rec"]["calls"] == 4
    assert totals["rec"]["s"] == pytest.approx(spans[0])


def test_missing_target_is_reported_absent():
    import types

    tracer = tracing.Tracer()
    module = types.ModuleType("fake")
    assert tracer.patch(module, "gone", "fake.gone") is None
    assert tracer.absent == ["fake.gone"]
    metrics = tracing.per_layer_metrics(tracer)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert all(m["value"] == 0 for m in metrics.values())


# --- seeded inputs and the benchmark file -----------------------------------


def _seeded(workload):
    import workloads

    if isinstance(workload, workloads.BeamSweep):
        return [beam[:3] for beam in workload.beams]
    if isinstance(workload, workloads.LocalizeFian60):
        return list(workload.rungs)
    return [(j["beta1"], j["beta2"], *np.ravel(j["modes"])) for j in workload.jumps]


def test_inputs_follow_the_seed(tmp_path):
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        a, b, c = (cls(seed, 6.0, tmp_path / f"{name}{i}") for i, seed in enumerate((5, 5, 6)))
        assert _seeded(a) == _seeded(b) != _seeded(c)
        assert len(a.operations()) == len(c.operations())


def test_input_make_up(tmp_path):
    import workloads

    sweep = workloads.BeamSweep(1, 20.0, tmp_path / "s")
    gammas = sorted(g for g, _, _, _ in sweep.beams)
    n = len(gammas)
    edges = np.exp(np.linspace(math.log(2.0), math.log(1e4), n + 1))
    assert all(lo <= g <= hi for g, lo, hi in zip(gammas, edges, edges[1:]))
    assert len(set(gammas)) == n

    ladder = workloads.LocalizeFian60(1, 20.0, tmp_path / "l")
    log_t = [math.log10(t) for t in ladder.ladder]
    assert log_t[0] == 8.0 and log_t[-1] == 14.0
    assert np.allclose(np.diff(log_t), 6.0 / 20)
    assert sorted(ladder.rungs) == sorted(ladder.ladder + [*ladder.EDGE_PROBES, ladder.ROUNDING_PROBE])

    jumps = workloads.VelocityJumpWorkload(1, 20.0, tmp_path / "v")
    for jump in jumps.jumps:
        assert max(jump["beta1"], jump["beta2"]) <= jumps.BETA_MAX
        assert 0.05 <= abs(jump["beta2"] / jump["beta1"] - 1.0) <= 0.29 + 1e-12
        for q in jump["modes"]:
            assert 0.3 - 1e-12 <= C * np.linalg.norm(q) * jumps.T <= jumps.OMEGA_T_MAX + 1e-12


def test_benchmark_file_names_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "op_p50_s", "peak_rss_mb"}
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()} | {"traced.wall_s": "s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
