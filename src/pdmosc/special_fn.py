"""Polynomial and quadrature kernels used by the closed-form solvers.

Everything here is dependency-light on purpose: three-term recurrences for
the Jacobi and Gegenbauer families, written with arithmetic operators only
so that one body evaluates a float or a numpy array, the standard
library's log-gamma behind a domain check, and Gauss-Legendre rules found
by Newton iteration on the Legendre recurrence.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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


def jacobi_poly(n: int, alpha: float, beta: float, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the Jacobi polynomial P_n^(alpha, beta) at a point or on an array.

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    alpha, beta : float
        Family parameters, each > -1 so the weight is integrable.
    x : float or ndarray
        Evaluation points (any finite reals; no clipping to [-1, 1]).  A
        non-finite entry raises DomainError.

    Returns
    -------
    float or ndarray
        P_n^(alpha, beta)(x) from the forward three-term recurrence: a float
        for a float, an array of x's shape for an array.  The recurrence uses
        only arithmetic operators, so each array entry is bit for bit the
        value at that point alone.
    """
    _check_degree(n)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ParameterError("alpha and beta must be finite")
    if alpha <= -1.0 or beta <= -1.0:
        raise ParameterError(f"need alpha > -1 and beta > -1, got alpha={alpha}, beta={beta}")
    _check_finite(x)
    if n == 0:
        return 0.0 * x + 1.0
    pm1 = 1.0
    p = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        s = 2.0 * k + alpha + beta
        # denominator factors never vanish for k >= 2 when alpha, beta > -1
        a0 = 2.0 * k * (k + alpha + beta) * (s - 2.0)
        a1 = (s - 1.0) * (s * (s - 2.0) * x + alpha * alpha - beta * beta)
        a2 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s
        pm1, p = p, (a1 * p - a2 * pm1) / a0
    return p


def gegenbauer_poly(n: int, lam: float, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the Gegenbauer (ultraspherical) polynomial C_n^(lam) at a point or on an array.

    The recurrence is k C_k = 2(k + lam - 1) x C_{k-1} - (k + 2 lam - 2) C_{k-2};
    x, the result and the checks on x are as in jacobi_poly.  lam = 0 is
    rejected: that family degenerates under the standard normalization
    (C_n^(0) = 0 for n >= 1).
    """
    _check_degree(n)
    if not math.isfinite(lam) or lam <= -0.5 or lam == 0.0:
        raise ParameterError(f"need lam > -1/2 and lam != 0, got {lam!r}")
    _check_finite(x)
    if n == 0:
        return 0.0 * x + 1.0
    cm1 = 1.0
    c = 2.0 * lam * x
    for k in range(2, n + 1):
        cm1, c = c, (2.0 * (k + lam - 1.0) * x * c - (k + 2.0 * lam - 2.0) * cm1) / k
    return c


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0: math.lgamma behind a domain check."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def _legendre_pair(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (P_{n-1}(x), P_n(x)) by the forward Legendre recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2.0 * j - 1.0) * x * p1 - (j - 1.0) * p0) / j
    return p0, p1


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
        pm1, p = _legendre_pair(x, n)
        dp = n * (x * p - pm1) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.all(np.abs(dx) <= 1e-15):
            break
    pm1, p = _legendre_pair(x, n)
    dp = n * (x * p - pm1) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    if n % 2:
        center = np.zeros(1)
        pm1c, _ = _legendre_pair(center, n)
        dpc = n * pm1c  # P_n'(0) = n P_{n-1}(0) since P_n(0) = 0 for odd n
        wc = 2.0 / (dpc * dpc)
        nodes = np.concatenate([-x, center, x[::-1]])
        weights = np.concatenate([w, wc, w[::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w, w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
