"""Polynomial, log-gamma and quadrature kernel checks.

Expected values come from independent routes: the explicit binomial sum for
Jacobi polynomials, math.lgamma for the log-gamma, scipy.special for
cross-checks, and hand-solved exactness conditions for the small quadrature
rules.
"""

import math
import random
from functools import partial

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from pdmosc.errors import DomainError, ParameterError
from pdmosc.special_fn import (
    _GEGENBAUER,
    _recurrence,
    gauss_legendre,
    gegenbauer_poly,
    jacobi_poly,
    ln_gamma,
)


def jacobi_series(n, alpha, beta, z):
    """Explicit binomial-sum form, evaluated term by term.

    P_n^(a,b)(z) = 2^-n sum_m C(n+a, m) C(n+b, n-m) (z-1)^(n-m) (z+1)^m
    with generalized binomials through the gamma function.
    """

    def binom(a, k):
        return math.gamma(a + 1.0) / (math.gamma(k + 1.0) * math.gamma(a - k + 1.0))

    total = 0.0
    for m in range(n + 1):
        total += (
            binom(n + alpha, m)
            * binom(n + beta, n - m)
            * (z - 1.0) ** (n - m)
            * (z + 1.0) ** m
        )
    return total / 2.0**n


# --- jacobi_poly ---


def test_jacobi_degree_zero():
    assert jacobi_poly(0, 1.2, 0.4, 0.3) == 1.0


def test_jacobi_degree_one_closed_form():
    # (alpha+1) + (alpha+beta+2)(z-1)/2 at alpha=beta=1, z=0.5
    assert math.isclose(jacobi_poly(1, 1.0, 1.0, 0.5), 1.0, rel_tol=1e-14)


def test_jacobi_reflection_even_degree():
    left = jacobi_poly(2, 0.5, 0.25, -0.7)
    right = jacobi_poly(2, 0.25, 0.5, 0.7)
    assert math.isclose(left, right, rel_tol=1e-13)


def test_jacobi_reflection_odd_degree():
    left = jacobi_poly(3, 0.5, 0.25, -0.7)
    right = -jacobi_poly(3, 0.25, 0.5, 0.7)
    assert math.isclose(left, right, rel_tol=1e-13)


def test_jacobi_against_series_oracle():
    rng = random.Random(2024)
    for _ in range(250):
        n = rng.randrange(0, 7)
        alpha = rng.uniform(-0.9, 6.0)
        beta = rng.uniform(-0.9, 6.0)
        z = rng.uniform(-1.0, 1.0)
        want = jacobi_series(n, alpha, beta, z)
        got = jacobi_poly(n, alpha, beta, z)
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)


def test_jacobi_against_scipy():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(0, 13)
        alpha = rng.uniform(-0.9, 6.0)
        beta = rng.uniform(-0.9, 6.0)
        z = rng.uniform(-1.0, 1.0)
        want = float(sps.eval_jacobi(n, alpha, beta, z))
        got = jacobi_poly(n, alpha, beta, z)
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)


def test_jacobi_recurrence_residual():
    # a1(k) p_k+1 = (a2(k) + a3(k) z) p_k - a4(k) p_k-1 rearranged to a
    # residual, using only values returned by jacobi_poly
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 12)
        alpha = rng.uniform(-0.9, 6.0)
        beta = rng.uniform(-0.9, 6.0)
        z = rng.uniform(-1.0, 1.0)
        k = n
        s = 2.0 * k + alpha + beta
        c0 = 2.0 * (k + 1) * (k + alpha + beta + 1) * s
        c1 = (s + 1.0) * (alpha * alpha - beta * beta + z * s * (s + 2.0))
        c2 = 2.0 * (k + alpha) * (k + beta) * (s + 2.0)
        lhs = c0 * jacobi_poly(n + 1, alpha, beta, z)
        rhs = c1 * jacobi_poly(n, alpha, beta, z) - c2 * jacobi_poly(n - 1, alpha, beta, z)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-10


@pytest.mark.parametrize(
    "poly",
    [partial(jacobi_poly, 7, 1.3, 2.6), partial(gegenbauer_poly, 6, 3.25), partial(jacobi_poly, 0, 0.5, 0.5)],
)
def test_polynomials_on_arrays(poly):
    # a float gives a float; an array gives its shape, each entry bit for bit the point value
    assert type(poly(0.37)) is float
    zs = np.array([[-1.0, -0.62, 0.0], [0.31, 0.9, 1.7]])
    got = poly(zs)
    assert got.shape == zs.shape
    assert got.tolist() == [[poly(z) for z in row] for row in zs.tolist()]
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            poly(np.array([0.2, bad, 0.4]))


@pytest.mark.parametrize("poly, params", [
    (jacobi_poly, (np.array([1.3, 0.2, -0.4, 7.5, 2.0]), np.array([2.6, -0.9, 0.1, 0.3, 40.0]))),
    (gegenbauer_poly, (np.array([3.25, 0.7, -0.3, 12.5, 0.05]),)),
])
def test_polynomial_blocks_are_their_rows_one_at_a_time(poly, params):
    # row i of a block is degree i with the parameters at entry i, bit for bit, in one call
    zs = np.array([-1.7, -1.0, -0.62, 0.0, 0.31, 0.9, 1.0, 2.5])
    got = poly(4, *params, zs)
    assert got.shape == (5, zs.size)
    for i, row in enumerate(got):
        assert row.tobytes() == poly(i, *(float(v[i]) for v in params), zs).tobytes()
    assert poly(0, *(v[:1] for v in params), zs).tolist() == [[1.0] * zs.size]


@pytest.mark.parametrize("poly, params", [
    (jacobi_poly, (np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.5, 0.5]))),
    (gegenbauer_poly, (np.array([0.5, 0.5, 0.5]),)),
])
def test_polynomial_blocks_reject_bad_input(poly, params):
    zs = np.array([0.1, 0.2])
    with pytest.raises(ParameterError):  # an entry short of degrees 0..3
        poly(3, *params, zs)
    with pytest.raises(ParameterError):  # points not on a 1-D array
        poly(2, *params, zs[:, None])
    with pytest.raises(ParameterError):
        poly(2, *params, 0.3)
    with pytest.raises(DomainError):
        poly(2, *params, np.array([0.1, math.inf]))
    for bad in (math.nan, math.inf, -1.0, 0.0 if poly is gegenbauer_poly else -1.5):
        worse = params[0].copy()
        worse[1] = bad
        with pytest.raises(ParameterError):
            poly(2, worse, *params[1:], zs)


def test_jacobi_rejects_bad_input():
    with pytest.raises(ParameterError):
        jacobi_poly(-1, 1.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        jacobi_poly(2, -1.0, 0.5, 0.5)
    with pytest.raises(ParameterError):
        jacobi_poly(2, 0.5, -1.5, 0.5)
    with pytest.raises(DomainError):
        jacobi_poly(2, 0.5, 0.5, float("nan"))
    with pytest.raises(ParameterError):
        jacobi_poly(True, 0.5, 0.5, 0.5)


# --- gegenbauer_poly ---


def test_gegenbauer_degree_zero():
    assert gegenbauer_poly(0, 2.5, 0.9) == 1.0


def test_gegenbauer_degree_one():
    # C_1 = 2 lambda z
    assert math.isclose(gegenbauer_poly(1, 1.5, 0.2), 0.6, rel_tol=1e-14)


def test_gegenbauer_jacobi_proportionality():
    # C_n^(lam) = [G(lam+1/2) G(n+2 lam)] / [G(2 lam) G(n+lam+1/2)] P_n^(lam-1/2, lam-1/2)
    # with the prefactor from the stdlib lgamma, independent of ln_gamma
    for n, lam, z in [(3, 2.5, 0.4), (5, 1.5, -0.8), (2, 0.75, 0.1), (7, 3.0, 0.95)]:
        ln_pref = (
            math.lgamma(lam + 0.5)
            + math.lgamma(n + 2.0 * lam)
            - math.lgamma(2.0 * lam)
            - math.lgamma(n + lam + 0.5)
        )
        want = math.exp(ln_pref) * jacobi_poly(n, lam - 0.5, lam - 0.5, z)
        got = gegenbauer_poly(n, lam, z)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13)


def test_gegenbauer_parity():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(0, 10)
        lam = rng.uniform(0.6, 5.0)
        z = rng.uniform(0.0, 1.0)
        plus = gegenbauer_poly(n, lam, z)
        minus = gegenbauer_poly(n, lam, -z)
        assert abs(minus - (-1.0) ** n * plus) <= 1e-13 * max(1.0, abs(plus))


def test_gegenbauer_against_scipy():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(0, 11)
        lam = rng.uniform(0.55, 6.0)
        z = rng.uniform(-1.0, 1.0)
        want = float(sps.eval_gegenbauer(n, lam, z))
        got = gegenbauer_poly(n, lam, z)
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)


def test_gegenbauer_rejects_degenerate_lambda():
    with pytest.raises(ParameterError):
        gegenbauer_poly(2, 0.0, 0.5)
    with pytest.raises(ParameterError):
        gegenbauer_poly(2, -0.5, 0.5)


# --- ln_gamma ---


def test_ln_gamma_known_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert math.isclose(ln_gamma(5.0), math.log(24.0), rel_tol=1e-14)
    assert math.isclose(ln_gamma(0.5), 0.5 * math.log(math.pi), rel_tol=1e-14)


def test_ln_gamma_against_lgamma():
    x = 0.5
    while x <= 200.0:
        assert math.isclose(ln_gamma(x), math.lgamma(x), rel_tol=1e-13, abs_tol=1e-13)
        x += 0.618
    # scipy route as a second opinion on a few points
    for x in (0.5, 1.0, 7.25, 80.0, 199.5):
        assert math.isclose(ln_gamma(x), float(sps.gammaln(x)), rel_tol=1e-13, abs_tol=1e-13)


def test_ln_gamma_recurrence():
    x = 0.5
    while x <= 100.0:
        assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) < 1e-12
        x += 0.731


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-3.5)


# --- gauss_legendre ---


def _legendre_pair(x, n):
    # (P_{n-1}(x), P_n(x)) from n P_n = (2n - 1) x P_{n-1} - (n - 1) P_{n-2}, P_0 = 1, P_1 = x
    p0, p1 = 1.0 + 0.0 * x, 1.0 * x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2.0 * j - 1.0) * x * p1 - (j - 1.0) * p0) / j
    return p0, p1


@pytest.mark.parametrize("x", [0.3, np.linspace(-1.0, 1.0, 37)], ids=["float", "array"])
def test_the_rule_recurrence_is_legendre_at_lam_one_half(x):
    # gauss_legendre's Newton steps take degrees n - 1 and n from the Gegenbauer recurrence
    # at lam = 1/2, with degree -1 taken as 0; they are the Legendre recurrence's, bit for bit
    zero, one = _recurrence(_GEGENBAUER, 0, x, (0.5,))
    assert np.all(zero == 0.0) and np.all(one == 1.0)
    for n in range(1, 51):
        got = _recurrence(_GEGENBAUER, n, x, (0.5,))
        want = _legendre_pair(x, n)
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want], n


def test_rule_one_point():
    nodes, weights = gauss_legendre(1)
    assert nodes.tolist() == [0.0]
    assert weights.tolist() == [2.0]


def test_rule_two_point():
    nodes, weights = gauss_legendre(2)
    assert math.isclose(nodes[1], 1.0 / math.sqrt(3.0), rel_tol=1e-15)
    assert nodes[0] == -nodes[1]
    assert math.isclose(weights[0], 1.0, rel_tol=1e-15)
    assert weights[0] == weights[1]


def test_rule_sixteen_even_monomial():
    nodes, weights = gauss_legendre(16)
    val = sum(w * z**10 for z, w in zip(nodes, weights))
    assert abs(val - 2.0 / 11.0) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40])
def test_rule_invariants(n):
    nodes, weights = gauss_legendre(n)
    assert nodes.shape == weights.shape == (n,)
    assert abs(sum(weights) - 2.0) < 1e-13
    assert all(w > 0.0 for w in weights)
    assert all(-1.0 < z < 1.0 for z in nodes)
    assert all(a < b for a, b in zip(nodes, nodes[1:]))
    # exact symmetry, not just approximate
    assert all(
        lo == -hi for lo, hi in zip(nodes, reversed(nodes))
    )


@pytest.mark.parametrize("n", [1, 2, 7, 400])
def test_rule_arrays_are_cached_and_read_only(n):
    # the rule is shared by every caller, so none may change it
    nodes, weights = gauss_legendre(n)
    again = gauss_legendre(n)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        before = arr.copy()
        with pytest.raises(ValueError):
            arr[0] = 0.5
        with pytest.raises(ValueError):
            arr *= 2.0
        assert np.array_equal(arr, before)


@pytest.mark.parametrize("n", [2, 4, 7, 12, 20])
def test_rule_monomial_exactness(n):
    nodes, weights = gauss_legendre(n)
    for k in range(2 * n):
        val = sum(w * z**k for z, w in zip(nodes, weights))
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(val - exact) < 1e-12 * max(1.0, abs(exact))


def test_rule_against_scipy():
    want_nodes, want_weights = sps.roots_legendre(64)
    nodes, weights = gauss_legendre(64)
    for i in range(64):
        assert abs(nodes[i] - want_nodes[i]) < 1e-13
        assert abs(weights[i] - want_weights[i]) < 1e-13


def test_rule_400_against_polished_mpmath():
    # the norm column's smallest graded rule; each node is polished by Newton steps on
    # the Legendre recurrence at 40 digits, and its weight recomputed there
    n = 400
    nodes, weights = gauss_legendre(n)

    def legendre_pair(x):
        p0, p1 = mp.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p0, p1

    with mp.workdps(40):
        for i in (0, 1, 2, 3, 50, 100, 150, 199, 200, 250, 300, 396, 397, 398, 399):
            x = mp.mpf(float(nodes[i]))
            for _ in range(3):
                pm1, p = legendre_pair(x)
                x -= p / (n * (x * p - pm1) / (x * x - 1))
            pm1, p = legendre_pair(x)
            dp = n * (x * p - pm1) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            assert abs(float(nodes[i]) - x) < 1e-15
            assert abs(float(weights[i]) / w - 1) < 1e-11


def test_rule_rejects_nonpositive_size():
    with pytest.raises(ParameterError):
        gauss_legendre(0)
