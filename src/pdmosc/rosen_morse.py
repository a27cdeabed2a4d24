"""Bound states of the hyperbolic potential -A(A+1)sech^2(u) + 2B tanh(u).

This is the constant-mass reference problem; everything the oscillator
module produces is obtained from it by a change of variables.  Units are
hbar = 2 m0 = 1, so the eigenproblem is -phi'' + U phi = eps phi on the
whole real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ._numpy import np
from .errors import NoSuchStateError, ParameterError
from .special_fn import _check_finite, gegenbauer_poly, is_int, jacobi_poly, ln_gamma

__all__ = [
    "ConstantMassState",
    "RosenMorseParams",
    "WINDOW_MARGIN",
    "admitted_nmax",
    "rm_bound_states",
    "rm_energy",
    "rm_nmax",
    "rm_potential",
    "rm_wavefunction",
]

# states within this distance of the normalizability threshold are not admitted
WINDOW_MARGIN = 1e-12

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class RosenMorseParams:
    """Well depth A and tilt B of the hyperbolic potential; needs B < A^2."""

    A: float
    B: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.A) and math.isfinite(self.B)):
            raise ParameterError("A and B must be finite")
        if self.A <= 0.0:
            raise ParameterError(f"need A > 0, got A={self.A}")
        if self.B >= self.A * self.A:
            raise ParameterError(
                f"need B < A^2 for any bound state, got B={self.B} >= {self.A * self.A}"
            )


@dataclass(frozen=True)
class ConstantMassState:
    """One bound level: quantum number, energy, normalized wavefunction of u.

    wavefunction takes a float or an ndarray of u, as rm_wavefunction does.
    """

    n: int
    epsilon: float
    wavefunction: Callable[[float | np.ndarray], float | np.ndarray]


def admitted_nmax(threshold: float) -> int:
    """Largest integer n with n < threshold, or -1 when none qualifies.

    Values within WINDOW_MARGIN of the threshold count as outside it, so a
    level sitting at the edge of normalizability is dropped rather than
    returned with a blowing-up normalization constant.
    """
    if threshold <= WINDOW_MARGIN:
        return -1
    return math.ceil(threshold - WINDOW_MARGIN) - 1


def _ln1p_exp(y: float | np.ndarray) -> float | np.ndarray:
    """log(1 + e^y) without overflow."""
    return np.maximum(y, 0.0) + np.log1p(np.exp(-abs(y)))


def rm_potential(p: RosenMorseParams, u: float | np.ndarray) -> float | np.ndarray:
    """Potential value -A(A+1)sech^2(u) + 2B tanh(u) at a point or on an array.

    A float gives a float; an ndarray gives an array of its shape, each
    entry bit for bit the value at that point alone.  One non-finite entry
    raises DomainError.
    """
    _check_finite(u, "u")
    # sech in its exp(-|u|) form never overflows and underflows cleanly to 0
    e = np.exp(-abs(u))
    s = 2.0 * e / (1.0 + e * e)
    v = -p.A * (p.A + 1.0) * s * s + 2.0 * p.B * np.tanh(u)
    return v if isinstance(u, np.ndarray) else float(v)


def rm_nmax(p: RosenMorseParams) -> int:
    """Largest admitted quantum number, -1 if the well holds no state."""
    return admitted_nmax(p.A - math.sqrt(abs(p.B)))


def _check_level(n: int, count: int, model: object) -> None:
    """The level gate: n must be an integer in 0..count-1 of the given model."""
    if not is_int(n):
        raise NoSuchStateError(f"quantum number must be an integer, got {n!r}")
    if n < 0 or n >= count:
        raise NoSuchStateError(
            f"no bound state n={n} for {model}; admitted window is "
            + (f"0..{count - 1}" if count else "empty")
        )


def rm_energy(
    p: RosenMorseParams, n: int | range, *, from_floor: bool = False
) -> float | list[float]:
    """Bound-state energy -(A-n)^2 - B^2/(A-n)^2 of level n, or of every level of a range.

    With from_floor the energy is measured from the floor -A(A+1) of the
    sech^2 term: (2n+1)A - n^2 - B^2/(A-n)^2.  Its first part is formed
    from A and n, so at B = 0 the value keeps its relative accuracy at any
    depth, where eps_n + A(A+1) summed in floats loses about A eps.

    An int n gives a float.  A range gives the list of its levels' values,
    each bit for bit its one-level value, from one gate: every level of a
    range lies between its first and last, so only those two are checked
    against the window, with the message a one-level call gives.  An empty
    range gives [].
    """
    count = rm_nmax(p) + 1
    levels = n if isinstance(n, range) else (n,)
    if levels:
        _check_level(levels[0], count, p)
        _check_level(levels[-1], count, p)
    e = _level_energies(p.A, p.B, levels, from_floor)
    return e if isinstance(n, range) else e[0]


def _level_energies(
    A: float, B: float, levels: range | tuple[int], from_floor: bool
) -> list[float]:
    """rm_energy's expression for each of levels, with no gate: the caller holds them in
    the window of the well (A, B)."""
    if from_floor:
        e = [(2 * k + 1) * A - k * k for k in levels]
    else:
        e = [-(A - k) * (A - k) for k in levels]
    # x - 0.0 is x, so an unshifted well skips the tilt term with the same bits
    b2 = B * B
    if b2 != 0.0:
        e = [v - b2 / ((A - k) * (A - k)) for v, k in zip(e, levels)]
    return e


def _ln_norm_jacobi(A: float, n: int, m: float, beta: float) -> float:
    """Log of the normalization constant of the two-exponent envelope form."""
    return -m * _LN2 + 0.5 * (
        ln_gamma(n + 1.0)
        + ln_gamma(2.0 * A - n + 1.0)
        + math.log(m * m - beta * beta)
        - math.log(m)
        - ln_gamma(A + 1.0 + beta)
        - ln_gamma(A + 1.0 - beta)
    )


def _ln_norm_gegenbauer(A: float, n: int, m: float) -> float:
    """Log normalization of the sech^m envelope form (B = 0 only)."""
    return (
        ln_gamma(2.0 * m + 1.0)
        - m * _LN2
        - ln_gamma(m + 1.0)
        + 0.5 * (math.log(m) + ln_gamma(n + 1.0) - ln_gamma(2.0 * A - n + 1.0))
    )


@dataclass(frozen=True)
class _Level:
    """Level n's constants: phi = exp(ln_norm + e_1m log(1-t) + e_1p log(1+t)) poly(t).

    poly is C_n^(lam) for params (lam,) and P_n^(alpha, beta) for params
    (alpha, beta).  A stack of levels 0..n (_stack) holds the same fields as
    arrays, one entry per level, and evaluates to one row per level.
    """

    n: int
    e_1m: float | np.ndarray
    e_1p: float | np.ndarray
    ln_norm: float | np.ndarray
    params: tuple


def _resolve(
    p: RosenMorseParams, n: int, form: str, lower: float = 0.0, ln_scale: float = 0.0
) -> _Level:
    """Level n of p in the given form, times exp(ln_scale) (1 - t^2)^-lower.

    This is the per-level half of the one state kernel: the form checks,
    the family choice, the envelope exponents and the log-normalization.
    """
    if form not in ("auto", "jacobi", "gegenbauer"):
        raise ParameterError(f"unknown form {form!r}")
    if form == "gegenbauer" and p.B != 0.0:
        raise ParameterError("the gegenbauer form requires an unshifted well: b = 0, B = 0")
    m = p.A - n
    # the envelope exponents are (m_low -+ beta)/2
    m_low = m - 2.0 * lower
    if form == "gegenbauer" or (form == "auto" and p.B == 0.0):
        e = 0.5 * m_low
        return _Level(n, e, e, _ln_norm_gegenbauer(p.A, n, m) + ln_scale, (m + 0.5,))
    beta = p.B / m
    ln_norm = _ln_norm_jacobi(p.A, n, m, beta) + ln_scale
    return _Level(n, 0.5 * (m_low + beta), 0.5 * (m_low - beta), ln_norm, (m + beta, m - beta))


def _stack(levels: list[_Level]) -> _Level:
    """Levels 0..n of one family as one _Level: the envelope constants as columns, one
    row per level, and the polynomial parameters as arrays, which ask for a block."""
    e_1m, e_1p, ln_norm = (np.array(v)[:, None] for v in zip(*[
        (s.e_1m, s.e_1p, s.ln_norm) for s in levels]))
    params = tuple(np.array(v) for v in zip(*[s.params for s in levels]))
    return _Level(len(levels) - 1, e_1m, e_1p, ln_norm, params)


def _evaluate(
    s: _Level,
    t: float | np.ndarray,
    ln_1m_t: float | np.ndarray,
    ln_1p_t: float | np.ndarray,
) -> float | np.ndarray:
    """The per-point half of the state kernel: phi at t = tanh u from log(1-t) and log(1+t).

    t and the two logs are floats or arrays of one shape; each caller passes
    the form of the logs that stays accurate in its own variable, and runs
    this under np.errstate, since at a large depth the polynomial may
    overflow where the envelope underflows.  A stack of levels takes 1-D
    arrays and gives one row per level, each bit for bit that level's values.
    """
    poly = gegenbauer_poly if len(s.params) == 1 else jacobi_poly
    return np.exp(s.ln_norm + s.e_1m * ln_1m_t + s.e_1p * ln_1p_t) * poly(s.n, *s.params, t)


# tails underflow, and a large depth may overflow the polynomial: each
# gives its IEEE value, never a warning
def _phi(s: _Level, u: float | np.ndarray) -> float | np.ndarray:
    with np.errstate(all="ignore"):
        _check_finite(u, "u")
        # log(1 -+ tanh u) stays accurate far into both tails
        phi = _evaluate(s, np.tanh(u), _LN2 - _ln1p_exp(2.0 * u), _LN2 - _ln1p_exp(-2.0 * u))
        return phi if isinstance(u, np.ndarray) else float(phi)


def rm_wavefunction(
    p: RosenMorseParams, n: int, u: float | np.ndarray, form: str = "auto"
) -> float | np.ndarray:
    """Evaluate the normalized bound wavefunction phi_n at a point or on an array.

    Parameters
    ----------
    p : RosenMorseParams
    n : int
        Level inside the admitted window.
    u : float or ndarray
        Finite reals; tails underflow to 0.0 rather than raising.  One
        non-finite entry raises DomainError.
    form : str
        "jacobi" uses the two-exponent envelope times a Jacobi polynomial
        (works for any B); "gegenbauer" uses the symmetric sech^m envelope
        times a Gegenbauer polynomial and requires B = 0; "auto" picks
        gegenbauer when B = 0.

    Returns
    -------
    float or ndarray
        phi_n(u), normalized to unit integral of phi^2 over the line: a float
        for a float, an array of u's shape for an array, each entry bit for
        bit the value at that point alone.
    """
    _check_level(n, rm_nmax(p) + 1, p)
    return _phi(_resolve(p, n, form), u)


def rm_bound_states(p: RosenMorseParams) -> list[ConstantMassState]:
    """All admitted levels, ordered by n; each state's constants are resolved once."""
    levels = range(rm_nmax(p) + 1)
    return [
        ConstantMassState(n, e, partial(_phi, _resolve(p, n, "auto")))
        for n, e in zip(levels, rm_energy(p, levels))
    ]
