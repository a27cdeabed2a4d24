"""Polynomial and quadrature kernels used by the closed-form solvers.

Everything here is dependency-light on purpose: three-term recurrences for
the Jacobi and Gegenbauer families, the standard library's log-gamma behind
a domain check, and Gauss-Legendre rules found by Newton iteration on the
Gegenbauer recurrence at lam = 1/2, which is Legendre's.  Each family's
recurrence is one body of arithmetic operators.  It evaluates one polynomial
at a float or on a numpy array, or a block: degrees 0..n on one array, each
row with its own parameters, all rows stepping together, so that the block
costs O(n) array operations, not one recurrence per row.  The closed-form
states evaluate every level of a model this way.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence, TypeAlias

from ._numpy import np
from .errors import DomainError, ParameterError

__all__ = [
    "gauss_legendre",
    "gegenbauer_poly",
    "jacobi_poly",
    "ln_gamma",
]


def is_int(v: object) -> bool:
    """True for a Python int that is not a bool: the test every integer argument passes."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_degree(n: int) -> None:
    if not is_int(n) or n < 0:
        raise ParameterError(f"polynomial degree must be a non-negative integer, got {n!r}")


def _largest_abs(x: float | np.ndarray) -> float:
    """max |x| over the entries of a float or an ndarray (0.0 for an empty one); NaN if any is NaN."""
    # a float skips numpy's reduction, which would dominate a one-point call's checks
    return np.abs(x).max(initial=0.0) if isinstance(x, np.ndarray) else abs(x)


def _check_finite(x: float | np.ndarray, what: str = "evaluation point") -> None:
    """DomainError unless every entry of x is finite; x is a float or an ndarray."""
    # NaN and +-inf both fail the one comparison
    if not _largest_abs(x) < math.inf:
        flat = np.ravel(x)
        raise DomainError(f"{what} must be finite, got {float(flat[~np.isfinite(flat)][0])!r}")


# a float or an ndarray: each recurrence formula below takes either
_Values: TypeAlias = "float | np.ndarray"


def _jacobi_first(x: _Values, alpha: _Values, beta: _Values) -> _Values:
    return (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0


def _jacobi_coeffs(k: _Values, alpha: _Values, beta: _Values) -> tuple:
    # step k >= 2 of a0 P_k = (s - 1)(s(s - 2) x + alpha^2 - beta^2) P_{k-1} - a2 P_{k-2},
    # s = 2k + alpha + beta.  a0 never vanishes for k >= 2 when alpha, beta > -1
    s = 2.0 * k + alpha + beta
    return (
        2.0 * k * (k + alpha + beta) * (s - 2.0),
        s - 1.0,
        s * (s - 2.0),
        alpha * alpha,
        beta * beta,
        2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s,
    )


def _jacobi_step(c: Sequence, x: _Values, p: _Values, pm1: _Values) -> _Values:
    a0, s1, ss, aa, bb, a2 = c
    u = ss * x
    u += aa
    u -= bb
    u *= s1
    u *= p
    u -= a2 * pm1
    u /= a0
    return u


def _gegenbauer_first(x: _Values, lam: _Values) -> _Values:
    return 2.0 * lam * x


def _gegenbauer_coeffs(k: _Values, lam: _Values) -> tuple:
    # step k >= 2 of k C_k = 2(k + lam - 1) x C_{k-1} - (k + 2 lam - 2) C_{k-2}
    return k, 2.0 * (k + lam - 1.0), k + 2.0 * lam - 2.0


def _gegenbauer_step(c: Sequence, x: _Values, p: _Values, pm1: _Values) -> _Values:
    a0, g, a2 = c
    u = g * x
    u *= p
    u -= a2 * pm1
    u /= a0
    return u


# a family is its degree-1 value, a step's coefficients and the step.  Each takes floats or
# arrays alike and uses arithmetic operators only, so one body serves one polynomial at a
# point, on an array, and a block of polynomials, and an array entry is bit for bit its
# point value.  A step updates in place the new array it makes
_Family = tuple[Callable, Callable, Callable]
_JACOBI: _Family = (_jacobi_first, _jacobi_coeffs, _jacobi_step)
_GEGENBAUER: _Family = (_gegenbauer_first, _gegenbauer_coeffs, _gegenbauer_step)
# a block's points go in slices of about this many block entries, 256 KB per array, so that
# a step's arrays stay in cache on a large block: unsliced, the 580 levels of A = 581 on
# 1 744 points took 1.87 s against 1.33 s sliced (and 1.67 s one level at a time)
_BLOCK_SIZE = 32768


def _recurrence(family: _Family, n: int, x: _Values, params: tuple) -> tuple[_Values, _Values]:
    """Degrees n - 1 and n of one family member at x, a float or an array: the forward
    recurrence, with degree -1 taken as 0."""
    p = 0.0 * x + 1.0
    if n == 0:
        return 0.0 * x, p
    first, coeffs, step = family
    pm1, p = p, first(x, *params)
    for k in range(2, n + 1):
        pm1, p = p, step(coeffs(k, *params), x, p, pm1)
    return pm1, p


def _recurrence_rows(family: _Family, n: int, x: np.ndarray, params: tuple) -> np.ndarray:
    """Degrees 0..n of n + 1 family members on a 1-D array x, row i of degree i.

    params are arrays of n + 1 entries, entry i the parameters of row i.  All
    rows step together, each step on the rows still below their degree, so a
    block costs O(n) array operations; each entry is bit for bit the value of
    _recurrence for its row at its point.
    """
    out = np.empty((n + 1, x.size))
    out[0] = 0.0 * x + 1.0
    if n == 0:
        return out
    first, coeffs, step = family
    # every step's coefficients for every row on a (step, row) grid, one array operation per
    # coefficient; row i reads its column up to step i and leaves the block after it
    steps = np.repeat(np.arange(2.0, n + 1.0), n + 1).reshape(n - 1, n + 1)
    table = coeffs(steps, *(np.tile(v, (n - 1, 1)) for v in params))
    by_step = [[c[k - 2, k:, None] for c in table] for k in range(2, n + 1)]
    first_params = [v[1:, None] for v in params]
    width = max(1, _BLOCK_SIZE // n)
    for lo in range(0, x.size, width):
        part = x[lo : lo + width]
        pm1 = np.ones((n, 1))  # degree 0 of rows 1..n
        p = first(part, *first_params)
        out[1, lo : lo + width] = p[0]
        for k, c in enumerate(by_step, 2):
            pm1, p = p[1:], step(c, part, p[1:], pm1[1:])
            out[k, lo : lo + width] = p[0]
    return out


def _polynomial(family: _Family, n: int, x: _Values, params: tuple) -> _Values:
    # one polynomial, or a block when the parameters are arrays
    if not isinstance(params[0], np.ndarray):
        return _recurrence(family, n, x, params)[1]
    if not all(np.shape(v) == (n + 1,) for v in params) or np.ndim(x) != 1:
        raise ParameterError(
            f"a block of degrees 0..{n} needs parameter arrays of {n + 1} entries and a "
            "1-D array of points"
        )
    return _recurrence_rows(family, n, x, params)


def _all_above(v: _Values, low: float, zero: bool = True) -> bool:
    """True if every entry of v is finite and above low, and also nonzero unless zero."""
    if isinstance(v, np.ndarray):
        return bool(np.all(v > low) and (zero or np.all(v != 0.0))) and _largest_abs(v) < math.inf
    return math.isfinite(v) and v > low and (zero or v != 0.0)


def jacobi_poly(
    n: int, alpha: float | np.ndarray, beta: float | np.ndarray, x: float | np.ndarray
) -> float | np.ndarray:
    """Evaluate the Jacobi polynomial P_n^(alpha, beta) at a point or on an array.

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    alpha, beta : float, or ndarray of n + 1 entries
        Family parameters, each > -1 so the weight is integrable.  Given as
        arrays, they ask for a block: row i is P_i^(alpha[i], beta[i]) of
        degree i, for i = 0..n, on a 1-D array x.
    x : float or ndarray
        Evaluation points (any finite reals; no clipping to [-1, 1]).  A
        non-finite entry raises DomainError.

    Returns
    -------
    float or ndarray
        The values from the forward three-term recurrence: a float for a
        float, an array of x's shape for an array, an (n + 1, x.size) array
        for a block.  The recurrence uses only arithmetic operators, so each
        array entry is bit for bit the value at that point alone, of that
        row's polynomial alone.
    """
    _check_degree(n)
    if not (_all_above(alpha, -1.0) and _all_above(beta, -1.0)):
        raise ParameterError(
            f"need finite alpha > -1 and beta > -1, got alpha={alpha}, beta={beta}"
        )
    _check_finite(x)
    return _polynomial(_JACOBI, n, x, (alpha, beta))


def gegenbauer_poly(n: int, lam: float | np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the Gegenbauer (ultraspherical) polynomial C_n^(lam) at a point or on an array.

    The recurrence is k C_k = 2(k + lam - 1) x C_{k-1} - (k + 2 lam - 2) C_{k-2};
    x, lam as an array of n + 1 entries (a block), the result and the checks
    are as in jacobi_poly.  lam = 0 is rejected: that family degenerates
    under the standard normalization (C_n^(0) = 0 for n >= 1).
    """
    _check_degree(n)
    if not _all_above(lam, -0.5, zero=False):
        raise ParameterError(f"need lam > -1/2 and lam != 0, got {lam!r}")
    _check_finite(x)
    return _polynomial(_GEGENBAUER, n, x, (lam,))


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0: math.lgamma behind a domain check."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule with n points on [-1, 1]: its nodes, ascending, and weights.

    Roots of P_n are found by Newton iteration from the Chebyshev-angle
    initial guesses, to a step tolerance of 1e-15.  Only the positive
    half is computed; mirroring makes the symmetry exact in floating
    point and puts the odd-n center node at exactly 0.  The two arrays
    are read-only and cached, so a repeat call returns the same objects.
    """
    _check_degree(n)
    if n == 0:
        raise ParameterError("a quadrature rule needs at least one node")
    k = np.arange(1, n // 2 + 1, dtype=float)
    x = np.cos(math.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for _ in range(100):
        pm1, p = _recurrence(_GEGENBAUER, n, x, (0.5,))
        dp = n * (x * p - pm1) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.all(np.abs(dx) <= 1e-15):
            break
    pm1, p = _recurrence(_GEGENBAUER, n, x, (0.5,))
    dp = n * (x * p - pm1) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    if n % 2:
        center = np.zeros(1)
        pm1c, _ = _recurrence(_GEGENBAUER, n, center, (0.5,))
        dpc = n * pm1c  # P_n'(0) = n P_{n-1}(0) since P_n(0) = 0 for odd n
        wc = 2.0 / (dpc * dpc)
        nodes = np.concatenate([-x, center, x[::-1]])
        weights = np.concatenate([w, wc, w[::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w, w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
