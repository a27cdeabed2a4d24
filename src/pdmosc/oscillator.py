"""Confined harmonic oscillator with position-dependent mass on (-a, a).

Closed-form spectra and wavefunctions of the model with mass profile
(1 - x^2/a^2)^-2 and effective potential (omega0^2/4)(x - 2b/omega0)^2,
obtained by transforming the hyperbolic reference well.  The half-width a
is tied to the well depth A; non-integer A is fully admitted, which is the
point of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import pct
from ._numpy import np
from .errors import DomainError, ParameterError
from .pct import shift_bound
from .rosen_morse import (
    RosenMorseParams,
    _check_level,
    _evaluate,
    _Level,
    _level_energies,
    _resolve,
    _stack,
    rm_energy,
)
from .special_fn import _check_finite, _largest_abs, gegenbauer_poly, is_int

__all__ = [
    "BoundState",
    "OscillatorParams",
    "bound_states",
    "confinement_length",
    "energy",
    "energy_harmonic_form",
    "jafarov_case",
    "num_bound_states",
    "shift_bound",
    "wavefunction",
]


@dataclass(frozen=True, init=False)
class OscillatorParams:
    """Model parameters: frequency omega0 > 0, depth A > 1, shift b.

    Construction validates them and derives the model once, in one
    pct.map_parameters call: the half-width a, the derived well rm and its
    level count.  These three are read-only and take no part in eq, hash or
    repr, which see (omega0, A, b) alone; dataclasses.replace derives anew.
    """

    omega0: float
    A: float
    b: float = 0.0
    a: float = field(init=False, repr=False, compare=False)
    rm: RosenMorseParams = field(init=False, repr=False, compare=False)
    count: int = field(init=False, repr=False, compare=False)

    def __init__(self, omega0: float, A: float, b: float = 0.0) -> None:
        # the one parameter map, which validates (omega0, A, b) and returns the three derived
        # fields; every field goes in with one update, since a generated __init__ would set
        # each through the frozen record's object.__setattr__
        a, rm, count = pct.map_parameters(omega0, A, b)
        self.__dict__.update(omega0=omega0, A=A, b=b, a=a, rm=rm, count=count)

    def _spectrum(self) -> list[float]:
        # every level, with no gate: range(count) lies inside the unshifted well's window,
        # since level_count(A, B) <= rm_nmax(A) + 1.  The floors are those of the unshifted
        # well, whose B^2 is 0, so no tilt term is taken
        levels = range(self.count)
        return _energies(self.A, self.a, self.b, levels, _level_energies(self.A, 0.0, levels, True))

    def _level(self, n: int, form: str = "auto") -> _Level:
        # the well's level n times the transform's prefactor a^(-1/2) (1 - t^2)^(-1/2)
        return _resolve(self.rm, n, form, lower=0.5, ln_scale=-0.5 * math.log(self.a))

    def _psi_of(
        self, n: int, form: str = "auto"
    ) -> Callable[[float | np.ndarray], float | np.ndarray]:
        # level n's wavefunction of x with its constants resolved, only the per-point work left
        return partial(_psi, self._level(n, form), self.a)

    def _psi_rows(self, x: np.ndarray) -> np.ndarray:
        # every level on the 1-D array x in one pass, with one polynomial call: row n is
        # _psi_of(n)(x) bit for bit
        return _psi(_stack([self._level(n) for n in range(self.count)]), self.a, x)


@dataclass(frozen=True)
class BoundState:
    """One bound level: quantum number, energy, normalized wavefunction of x.

    wavefunction takes a float or an ndarray of x, as oscillator.wavefunction does.
    """

    n: int
    energy: float
    wavefunction: Callable[[float | np.ndarray], float | np.ndarray]


def _energies(A: float, a: float, b: float, levels: range, floors: list[float]) -> list[float]:
    # a_bar^2 eps_n + c_bar of the derivation (A, a, b), summed before it is rounded, from
    # floors, the levels' energies D above the floor of the unshifted well (A, 0).  At
    # b = 0 its terms -(A-n)^2/a^2 and omega0^2 a^2/4 are each O(A) and cancel to
    # O(n + 1/2); as omega0^2 a^4/4 is exactly A(A+1) - 2, the sum is (D - 1)/a^2.  The
    # shift adds -b^2 (D - 2)/(A-n)^2, whose own O(A^2) terms cancel the same way.
    # x - 0.0 is x, so an unshifted model skips the shift term with the same bits
    a2, b2 = a * a, b * b
    if b2 == 0.0:
        return [(d - 1.0) / a2 for d in floors]
    return [
        (d - 1.0) / a2 - b2 * (d - 2.0) / ((A - n) * (A - n)) for n, d in zip(levels, floors)
    ]


def confinement_length(omega0: float, A: float) -> float:
    """Half-width a = sqrt(2/omega0) * (A(A+1) - 2)^(1/4)."""
    return pct.map_parameters(omega0, A, 0.0)[0]


def num_bound_states(p: OscillatorParams) -> int:
    """Count of admitted levels: pct.level_count of the derived well, at least 1."""
    return p.count


def energy(p: OscillatorParams, n: int) -> float:
    """Level energy from the transform route a_bar^2 eps_n + c_bar.

    eps_n is rosen_morse.rm_energy, taken from the floor of the unshifted
    well, with a_bar = 1/a and c_bar = omega0^2 a^2/4 + 1/a^2 + b^2; the
    sum is carried out in closed form before rounding, so the result keeps
    its relative accuracy at any depth.
    """
    # p derived again twice, once for the level check and once for the energy, and the
    # level through rm_energy's gate: bench/test_bench.py::test_tracer_counts_and_self_time
    # pins this path's 3 parameter maps, the constructor's included, and 1 rm_energy call,
    # so reading p's own derivation waits on a change to that benchmark test
    _check_level(n, pct.map_parameters(p.omega0, p.A, p.b)[2], p)
    a, levels = pct.map_parameters(p.omega0, p.A, p.b)[0], range(n, n + 1)
    floors = rm_energy(RosenMorseParams(p.A), levels, from_floor=True)
    return _energies(p.A, a, p.b, levels, floors)[0]


def _half_integer_form(omega0: float, a: float, n: int) -> float:
    # the b = 0 level in powers of (n + 1/2); the integer-l route shares it
    a2 = a * a
    half = n + 0.5
    return (
        omega0 * math.sqrt(1.0 + (3.0 / (omega0 * a2)) ** 2) * half
        - half * half / a2
        - 5.0 / (4.0 * a2)
    )


def energy_harmonic_form(p: OscillatorParams, n: int) -> float:
    """Same level via the (n + 1/2)-expanded printed form; redundant check route.

    omega0 sqrt(1 + (3/(omega0 a^2))^2) (n+1/2) - (n+1/2)^2/a^2 - 5/(4a^2),
    plus b^2 g(n)/f(n) with f(n) = (A-n)^2 and g(n) = f(n) - omega0^2 a^4/4
    when the shift is present.
    """
    _check_level(n, p.count, p)
    e = _half_integer_form(p.omega0, p.a, n)
    if p.b != 0.0:
        f = (p.A - n) ** 2
        g = f - 0.25 * (p.omega0 * p.a * p.a) ** 2
        e += p.b * p.b * g / f
    return e


def _interior(a: float, x: float | np.ndarray) -> bool | np.ndarray:
    """Check every entry of x against [-a, a]; True where it lies off the walls.

    Points within BOUNDARY_MARGIN a of a wall are on it, and their value is
    exactly 0.0; one non-finite entry or one beyond a wall raises DomainError.
    """
    top = _largest_abs(x)
    if not top <= a:
        _check_finite(x, "x")
        raise DomainError(f"|x|={top} is outside the confinement interval [-{a}, {a}]")
    return abs(x) < (1.0 - pct.BOUNDARY_MARGIN) * a


def _zero_on_walls(
    x: float | np.ndarray, inside: bool | np.ndarray, psi: float | np.ndarray
) -> float | np.ndarray:
    """psi off the walls and exactly 0.0 on them: a float for a float x, else an array."""
    # a float skips np.where, whose overhead is a large share of one point's evaluation
    if isinstance(x, np.ndarray):
        return np.where(inside, psi, 0.0)
    return float(psi) if inside else 0.0


# the wall points take log 0, tails underflow, and a large depth may
# overflow the polynomial: each gives its IEEE value, never a warning
def _psi(s: _Level, a: float, x: float | np.ndarray) -> float | np.ndarray:
    with np.errstate(all="ignore"):
        inside = _interior(a, x)
        # a -+ x is exact near each wall, where 1 -+ x/a would round x/a first
        psi = _evaluate(s, x / a, np.log((a - x) / a), np.log((a + x) / a))
        return _zero_on_walls(x, inside, psi)


def wavefunction(
    p: OscillatorParams, n: int, x: float | np.ndarray, form: str = "auto"
) -> float | np.ndarray:
    """Evaluate the normalized bound wavefunction psi_n at a point or on an array.

    psi_n(x) = sqrt(a_bar) M(x)^(1/4) phi_n(u(x)): the hyperbolic well's
    state, which rosen_morse evaluates at tanh u = x/a, times the transform's
    prefactor a^(-1/2) (1 - x^2/a^2)^(-1/2).  So the b = 0 path is the
    envelope (1 - x^2/a^2)^((A-n-1)/2) times a Gegenbauer polynomial, and
    b != 0 tilts the exponents and uses a Jacobi polynomial.  form forces
    one route ("gegenbauer" needs b = 0); "auto" picks by b.  The level and
    then the form are checked before x, so an unknown form is refused even
    at a wall or outside the interval.

    x is a float, which gives a float, or an ndarray, which gives an array
    of its shape whose entries are bit for bit the values at each point
    alone.  Within 1e-12 a of the interval ends the value is exactly 0.0;
    one entry that is not finite or lies beyond them raises DomainError.
    """
    _check_level(n, p.count, p)
    return p._psi_of(n, form)(x)


def bound_states(p: OscillatorParams) -> list[BoundState]:
    """All admitted levels, ordered by n, from p's one derivation.

    Each state's energy and wavefunction constants are computed here, so
    evaluating state.wavefunction(x) only does the per-point work, on a float
    or on an ndarray of x; it gives the same values as wavefunction(p, n, x).
    """
    return [BoundState(n, e, p._psi_of(n)) for n, e in enumerate(p._spectrum())]


def _jafarov_coeffs(l: int, a: float) -> list[float]:
    # integer-arithmetic normalizations (2l-2n)!/(2^(l-n) (l-n)!) * sqrt((l-n) n!/(a (2l-n)!))
    # for n = 0..l-2.  As floats the first factor overflows past l = 150 and the ratio
    # under the root underflows from l ~ 86, so the square is divided out in integers:
    # int / int rounds once, and the quotient stays between ~l^-4 and ~l^(1/2).
    # The first factor is lead_n = (2l-2n-1)!!, so lead_(n+1) = lead_n / (2l-2n-1):
    # num = lead_n^2 n! and den = (2l-n)! pass from level to level by exact small-integer
    # products and quotients, and each level divides the same integers as the factorials.
    den = math.factorial(2 * l)
    num = (den // (2**l * math.factorial(l))) ** 2
    out = []
    for n in range(l - 1):
        sq = num * (l - n) / den
        out.append(math.sqrt(sq / a))
        num = num // (2 * (l - n) - 1) ** 2 * (n + 1)
        den //= 2 * l - n
    return out


def _jafarov_wavefunction(
    coeff: float, l: int, a: float, n: int, x: float | np.ndarray
) -> float | np.ndarray:
    with np.errstate(all="ignore"):
        inside = _interior(a, x)
        s = (a - x) / a * ((a + x) / a)
        psi = coeff * np.power(s, 0.5 * (l - n - 1)) * gegenbauer_poly(n, l - n + 0.5, x / a)
        return _zero_on_walls(x, inside, psi)


def _jafarov_width(omega0: float, l: int) -> float:
    # the integer-l route's half-width a_l, from l and omega0, which it checks itself
    if not is_int(l) or l < 2:
        raise ParameterError(f"need an integer l >= 2, got {l!r}")
    # a bool passes the checks below; this route tests the type itself, apart from the map
    if type(omega0) is bool:
        raise ParameterError("omega0 must be a number, not a bool")
    if not math.isfinite(omega0) or omega0 <= 0.0:
        raise ParameterError(f"need omega0 > 0, got {omega0!r}")
    return math.sqrt(2.0 / omega0) * (l * (l + 1) - 2) ** 0.25


def _jafarov_levels(omega0: float, l: int, a: float) -> list[tuple[float, float]]:
    # the integer-l route's (energy, normalization) per level at its half-width a
    return [(_half_integer_form(omega0, a, n), c) for n, c in enumerate(_jafarov_coeffs(l, a))]


def jafarov_case(omega0: float, l: int) -> list[BoundState]:
    """The quantized-confinement special case: integer depth l >= 2.

    Returns the l - 1 bound states with the half-width a_l fixed by l.
    Energies and normalization constants are computed through the printed
    integer-l formulas (factorials, the (n+1/2) energy form), deliberately
    not through the general transform route, so the two can be compared.
    """
    a = _jafarov_width(omega0, l)
    return [
        BoundState(n, e, partial(_jafarov_wavefunction, coeff, l, a, n))
        for n, (e, coeff) in enumerate(_jafarov_levels(omega0, l, a))
    ]
