"""Oracle checks for the special-function and quadrature layer.

Every reference value here is produced independently of the implementation:
ascending power series summed with math.fsum, closed-form integrals, and
recurrence identities.
"""

import math

import numpy as np
import pytest

from synchrad.errors import ConvergenceError, DomainError, RangeError
from synchrad.numerics import (
    EULER_GAMMA,
    Tolerance,
    adaptive_integral,
    airy_ai,
    airy_ai_prime,
    bessel_j,
    bessel_j_prime,
    cos_integral,
    gauss_nodes,
    harmonic_sum,
    sin_integral,
)


def bessel_series(n, x, terms=80):
    # J_n(x) = sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!)
    vals = []
    for k in range(terms):
        num = (-1.0) ** k * (x / 2.0) ** (n + 2 * k)
        vals.append(num / (math.factorial(k) * math.factorial(n + k)))
    return math.fsum(vals)


def airy_series(x, terms=60):
    # Ai(x) = c1 f(x) - c2 g(x), f and g the standard Maclaurin solutions
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    f_terms, g_terms = [1.0], [x]
    tf, tg = 1.0, x
    for k in range(1, terms):
        tf *= x**3 * (3 * k - 2) / ((3 * k) * (3 * k - 1) * (3 * k - 2))
        tg *= x**3 * (3 * k - 1) / ((3 * k + 1) * (3 * k) * (3 * k - 1))
        f_terms.append(tf)
        g_terms.append(tg)
    return c1 * math.fsum(f_terms) - c2 * math.fsum(g_terms)


def airy_prime_series(x, terms=60):
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    # termwise derivative of the f and g series
    fp, gp = [0.0], [1.0]
    tf, tg = 1.0, x
    for k in range(1, terms):
        tf *= x**3 * (3 * k - 2) / ((3 * k) * (3 * k - 1) * (3 * k - 2))
        tg *= x**3 * (3 * k - 1) / ((3 * k + 1) * (3 * k) * (3 * k - 1))
        fp.append(tf * (3 * k) / x if x != 0 else 0.0)
        gp.append(tg * (3 * k + 1) / x if x != 0 else 0.0)
    return c1 * math.fsum(fp) - c2 * math.fsum(gp)


def si_series(x, terms=60):
    vals = []
    for k in range(terms):
        vals.append((-1.0) ** k * x ** (2 * k + 1) / ((2 * k + 1) * math.factorial(2 * k + 1)))
    return math.fsum(vals)


def ci_series(x, terms=60):
    vals = []
    for k in range(1, terms):
        vals.append((-1.0) ** k * x ** (2 * k) / ((2 * k) * math.factorial(2 * k)))
    return EULER_GAMMA + math.log(x) + math.fsum(vals)


def test_bessel_matches_ascending_series():
    for n in (0, 1, 2, 5, 12):
        for x in (0.3, 1.0, 3.0, 8.0):
            assert bessel_j(n, x) == pytest.approx(bessel_series(n, x), rel=1e-12, abs=1e-15)


def test_bessel_recurrence_invariant():
    # 2n/x J_n = J_{n-1} + J_{n+1}
    for n in (1, 4, 9):
        for x in (0.7, 2.5, 6.0):
            lhs = 2.0 * n / x * bessel_j(n, x)
            rhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-14)


def test_bessel_negative_argument_reflection():
    assert bessel_j(3, -2.0) == pytest.approx(-bessel_j(3, 2.0), rel=1e-14)
    assert bessel_j(2, -2.0) == pytest.approx(bessel_j(2, 2.0), rel=1e-14)


def test_bessel_prime_matches_central_difference():
    h = 1e-6
    for n in (0, 1, 5):
        for x in (0.9, 4.2):
            fd = (bessel_j(n, x + h) - bessel_j(n, x - h)) / (2 * h)
            assert bessel_j_prime(n, x) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_bessel_range_contracts():
    with pytest.raises(RangeError):
        bessel_j(-1, 1.0)
    with pytest.raises(RangeError):
        bessel_j(10**6 + 1, 1.0)
    with pytest.raises(RangeError):
        bessel_j(2, 1e9)


def test_airy_matches_maclaurin_series():
    for x in (-4.0, -1.5, 0.0, 0.5, 2.0, 4.0):
        assert airy_ai(x) == pytest.approx(airy_series(x), rel=1e-10, abs=1e-13)
        if x != 0.0:
            assert airy_ai_prime(x) == pytest.approx(airy_prime_series(x), rel=1e-10, abs=1e-13)


def test_airy_range_contract():
    with pytest.raises(RangeError):
        airy_ai(-25.0)
    with pytest.raises(RangeError):
        airy_ai(300.0)


def test_sin_cos_integrals_match_series():
    for x in (0.1, 1.0, 4.0):
        assert sin_integral(x) == pytest.approx(si_series(x), rel=1e-12, abs=1e-15)
        assert cos_integral(x) == pytest.approx(ci_series(x), rel=1e-11, abs=1e-14)


def test_sin_integral_is_odd():
    for x in (0.5, 2.0, 7.0):
        assert sin_integral(-x) == pytest.approx(-sin_integral(x), rel=1e-14)


def test_cos_integral_domain():
    with pytest.raises(DomainError):
        cos_integral(0.0)
    with pytest.raises(DomainError):
        cos_integral(-1.0)


def test_adaptive_integral_closed_forms():
    # int_0^10 cos(50 x) e^(-x) dx = (1 - e^(-10)(cos 500 - 50 sin 500)) / 2501
    exact = (1.0 - math.exp(-10.0) * (math.cos(500.0) - 50.0 * math.sin(500.0))) / 2501.0
    val = adaptive_integral(lambda x: math.cos(50.0 * x) * math.exp(-x), 0.0, 10.0)
    assert val == pytest.approx(exact, rel=1e-9)

    val, err = adaptive_integral(lambda x: x**3, 0.0, 2.0, full=True)
    assert val == pytest.approx(4.0, rel=1e-12)
    assert err < 1e-8


def test_adaptive_integral_linearity():
    f = lambda x: math.exp(-(x**2))
    a = adaptive_integral(f, 0.0, 1.0)
    b = adaptive_integral(lambda x: 3.0 * f(x), 0.0, 1.0)
    assert b == pytest.approx(3.0 * a, rel=1e-10)


def test_adaptive_integral_domain():
    with pytest.raises(DomainError):
        adaptive_integral(lambda x: x, 1.0, 0.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_adaptive_integral_rejects_non_finite_integrand():
    with pytest.raises(ConvergenceError) as info:
        adaptive_integral(lambda x: math.nan, 0.0, 1.0)
    assert math.isnan(info.value.best_estimate)
    with pytest.raises(ConvergenceError):
        adaptive_integral(lambda x: math.nan if x > 0.5 else 1.0, 0.0, 1.0)


def test_harmonic_sum_geometric():
    assert harmonic_sum(lambda n: 0.5**n) == pytest.approx(1.0, rel=1e-9)
    # sum n^2 x^n = x (1 + x) / (1 - x)^3
    x = 0.8
    exact = x * (1 + x) / (1 - x) ** 3
    assert harmonic_sum(lambda n: n**2 * x**n) == pytest.approx(exact, rel=1e-8)


def test_harmonic_sum_nonconvergent_raises():
    with pytest.raises(ConvergenceError) as exc:
        harmonic_sum(lambda n: 1.0, n_max_cap=1000)
    assert exc.value.best_estimate == pytest.approx(1000.0)


def test_gauss_nodes_polynomial_exactness():
    x, w = gauss_nodes(0.0, 1.0, 8)
    assert float(np.sum(w * x**5)) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-13)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=-1e-3)
    with pytest.raises(ValueError):
        Tolerance(rel=0.0, abs=0.0)


def test_euler_gamma_against_independent_limit():
    # gamma = lim (H_n - ln n); accelerate with the 1/(2n) - 1/(12n^2) tail
    n = 10**6
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    approx = h - math.log(n) - 1.0 / (2.0 * n) + 1.0 / (12.0 * n**2)
    assert EULER_GAMMA == pytest.approx(approx, abs=1e-12)


def test_sphere_rule_is_cached_and_read_only():
    from synchrad.numerics import sphere_rule

    nvec, weights = sphere_rule(12, 8)
    assert sphere_rule(12, 8)[0] is nvec
    assert nvec.shape == (12, 8, 3) and weights.shape == (12, 8)
    assert math.fsum(weights.ravel()) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert np.allclose(np.linalg.norm(nvec, axis=-1), 1.0, rtol=0, atol=1e-15)
    for arr in (nvec, weights):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
