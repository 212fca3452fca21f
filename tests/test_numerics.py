"""Oracle checks for the special functions the physics evaluates and for the
quadrature layer.

The special functions are called as the physics modules call them: vectorized
scipy.special calls on arrays.  Every reference value here is produced
independently of the implementation: ascending power series summed with
math.fsum, closed-form integrals, and recurrence identities.
"""

import math

import numpy as np
import pytest
import scipy.special

from synchrad.numerics import EULER_GAMMA, gauss_nodes, sphere_rule


def bessel_series(n, x, terms=80):
    # J_n(x) = sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!)
    vals = []
    for k in range(terms):
        num = (-1.0) ** k * (x / 2.0) ** (n + 2 * k)
        vals.append(num / (math.factorial(k) * math.factorial(n + k)))
    return math.fsum(vals)


def bessel_prime_series(n, x, terms=80):
    # termwise derivative: (n+2k)/2 (x/2)^(n+2k-1) (-1)^k / (k! (n+k)!)
    vals = []
    for k in range(terms):
        if n + 2 * k > 0:
            num = (-1.0) ** k * (n + 2 * k) / 2.0 * (x / 2.0) ** (n + 2 * k - 1)
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


ORDERS = np.array([0, 1, 2, 5, 12])
ARGS = np.array([0.3, 0.9, 1.0, 3.0, 4.2, 8.0])


def test_bessel_matches_ascending_series():
    # as _emission calls it: a column of orders against rows of arguments
    got = scipy.special.jv(ORDERS[:, None], ARGS[None, :])
    for i, n in enumerate(ORDERS.tolist()):
        for j, x in enumerate(ARGS.tolist()):
            assert got[i, j] == pytest.approx(bessel_series(n, x), rel=1e-12, abs=1e-15)


def test_bessel_prime_matches_series():
    got = scipy.special.jvp(ORDERS[:, None], ARGS[None, :], 1)
    for i, n in enumerate(ORDERS.tolist()):
        for j, x in enumerate(ARGS.tolist()):
            assert got[i, j] == pytest.approx(bessel_prime_series(n, x), rel=1e-12, abs=1e-15)


def test_bessel_recurrence_invariant():
    # 2n/x J_n = J_{n-1} + J_{n+1}
    n = np.array([1.0, 4.0, 9.0])[:, None]
    x = np.array([0.7, 2.5, 6.0])[None, :]
    lhs = 2.0 * n / x * scipy.special.jv(n, x)
    rhs = scipy.special.jv(n - 1, x) + scipy.special.jv(n + 1, x)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-14)


def test_airy_matches_maclaurin_series():
    # as s_ultrarel calls it: one array of all its nodes in, Ai and Ai' out
    xs = [-4.0, -1.5, 0.0, 0.5, 2.0, 4.0]
    ai, aip, _, _ = scipy.special.airy(np.array(xs))
    for i, x in enumerate(xs):
        assert ai[i] == pytest.approx(airy_series(x), rel=1e-10, abs=1e-13)
        if x != 0.0:
            assert aip[i] == pytest.approx(airy_prime_series(x), rel=1e-10, abs=1e-13)


def test_sin_cos_integrals_match_series():
    # as p_const_velocity calls it: sici on |x|, Si(x) = copysign(Si(|x|), x)
    x = np.array([0.1, 1.0, 4.0, -0.1, -1.0, -4.0])
    si_abs, ci = scipy.special.sici(np.abs(x))
    si = np.copysign(si_abs, x)
    for i, xi in enumerate(x.tolist()):
        assert si[i] == pytest.approx(si_series(xi), rel=1e-12, abs=1e-15)
        assert ci[i] == pytest.approx(ci_series(abs(xi)), rel=1e-11, abs=1e-14)


def test_gauss_nodes_polynomial_exactness():
    x, w = gauss_nodes(0.0, 1.0, 8)
    assert float(np.sum(w * x**5)) == pytest.approx(1.0 / 6.0, rel=1e-13, abs=0.0)
    assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-13, abs=0.0)


def test_euler_gamma_against_independent_limit():
    # gamma = lim (H_n - ln n); accelerate with the 1/(2n) - 1/(12n^2) tail
    n = 10**6
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    approx = h - math.log(n) - 1.0 / (2.0 * n) + 1.0 / (12.0 * n**2)
    assert EULER_GAMMA == pytest.approx(approx, abs=1e-12)


def test_sphere_rule_is_cached_and_read_only():
    nvec, weights = sphere_rule(12, 8)
    assert sphere_rule(12, 8)[0] is nvec
    assert nvec.shape == (12, 8, 3) and weights.shape == (12, 8)
    assert math.fsum(weights.ravel()) == pytest.approx(4.0 * math.pi, rel=1e-14, abs=0.0)
    assert np.allclose(np.linalg.norm(nvec, axis=-1), 1.0, rtol=0, atol=1e-15)
    for arr in (nvec, weights):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
