"""Change of variable and function linking the two eigenproblems.

The oscillator on (-a, a) with mass M(x) = (1 - x^2/a^2)^-2 maps onto the
constant-mass hyperbolic well on the line: u(x) = a_bar * v(x) with
v(x) = a * arctanh(x/a), energies transform affinely, and the potential picks
up a mass-derivative correction term.  This module holds the profile, the
transform maps, the parameter mapping from (omega0, A, b) to everything
derived, and the admission rule: which (omega0, A, b) give a model with at
least one level, and how many levels it has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._numpy import np
from .errors import DomainError, ParameterError
from .rosen_morse import WINDOW_MARGIN, RosenMorseParams, admitted_nmax
from .special_fn import _check_finite, _largest_abs

__all__ = [
    "BOUNDARY_MARGIN",
    "MassProfile",
    "PctMap",
    "level_count",
    "map_parameters",
    "mass",
    "mass_correction",
    "shift_bound",
    "transform_potential",
    "u_of_x",
    "v_of_x",
]

# x-space maps accept |x| <= (1 - BOUNDARY_MARGIN) * a; arctanh and M blow up at the ends
BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class MassProfile:
    """Confinement half-width a of the mass profile (1 - x^2/a^2)^-2."""

    a: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.a) or self.a <= 0.0:
            raise ParameterError(f"need a finite half-width a > 0, got {self.a!r}")


@dataclass(frozen=True)
class PctMap:
    """Transform constants: u = a_bar * v, E = a_bar^2 eps + c_bar.

    u carries no offset: one would break the even symmetry of the mass profile.
    """

    a_bar: float
    c_bar: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a_bar) and math.isfinite(self.c_bar)):
            raise ParameterError("a_bar and c_bar must be finite")
        if self.a_bar <= 0.0:
            raise ParameterError(f"need a_bar > 0, got {self.a_bar}")


def _check_x(profile: MassProfile, x: float | np.ndarray) -> None:
    """DomainError unless every entry of x is finite and inside the open interval."""
    top = _largest_abs(x)
    if not top <= (1.0 - BOUNDARY_MARGIN) * profile.a:
        _check_finite(x, "x")
        raise DomainError(
            f"|x|={top} is outside the open confinement interval of half-width {profile.a}"
        )


def mass(profile: MassProfile, x: float | np.ndarray) -> float | np.ndarray:
    """Mass value (1 - x^2/a^2)^-2 at a point or on an array; diverges toward the interval ends.

    A float gives a float; an ndarray gives an array of its shape, each
    entry bit for bit the value at that point alone (the body uses only
    arithmetic operators).  One entry that is not finite or lies within
    BOUNDARY_MARGIN a of a wall or beyond raises DomainError.
    """
    _check_x(profile, x)
    t = x / profile.a
    s = 1.0 - t * t
    return 1.0 / (s * s)


def v_of_x(profile: MassProfile, x: float) -> float:
    """Primitive of sqrt(M): v(x) = a * arctanh(x/a)."""
    _check_x(profile, x)
    return profile.a * math.atanh(x / profile.a)


def u_of_x(profile: MassProfile, pmap: PctMap, x: float) -> float:
    """Transformed coordinate u = a_bar * v(x)."""
    return pmap.a_bar * v_of_x(profile, x)


def mass_correction(profile: MassProfile, x: float) -> float:
    """Closed form of M''/(4M^2) - 7M'^2/(16M^3) for this profile: 1/a^2 - 2x^2/a^4."""
    _check_x(profile, x)
    a2 = profile.a * profile.a
    return 1.0 / a2 - 2.0 * x * x / (a2 * a2)


def transform_potential(
    source_potential: Callable[[float], float],
    profile: MassProfile,
    pmap: PctMap,
    x: float,
) -> float:
    """Target-space potential a_bar^2 U(u(x)) + mass correction + c_bar."""
    u = u_of_x(profile, pmap, x)
    return pmap.a_bar**2 * source_potential(u) + mass_correction(profile, x) + pmap.c_bar


def shift_bound(omega0: float, A: float) -> float:
    """Largest |b| keeping an admitted state: sqrt(omega0/2) A(A-1) / (A(A+1)-2)^(3/4).

    There |B| = A(A-1) and the level_count threshold reaches 0.  Where
    map_parameters(omega0, A, 0) refuses, no b is admitted and there is no
    bound: this raises the same ParameterError.
    """
    map_parameters(omega0, A, 0.0)
    return math.sqrt(omega0 / 2.0) * A * (A - 1.0) / ((A - 1.0) * (A + 2.0)) ** 0.75


def level_count(A: float, B: float) -> int:
    """Number of oscillator levels the derived well (A, B) holds: the window rule.

    Level n exists while A - n > (1 + sqrt(1 + 4|B|))/2, where both x-space
    envelope exponents (A - n - 1 -+ B/(A - n))/2 are positive; admitted_nmax
    applies the margin.  At B = 0 the threshold is exactly A - 1.
    """
    return admitted_nmax(A - 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * abs(B)))) + 1


def map_parameters(
    omega0: float, A: float, b: float = 0.0
) -> tuple[float, PctMap, RosenMorseParams, int]:
    """Derive (a, PctMap, RosenMorseParams, level count) from oscillator parameters.

    This is the admission rule: it refuses exactly the inputs whose
    derived well has level_count 0, so every model it accepts holds at
    least one level, and it returns that count, which it computes to
    decide.  It is also the one type check: a bool as any parameter is
    refused, not read as 0 or 1.

    Parameters
    ----------
    omega0 : float
        Oscillator frequency, > 0.
    A : float
        Well-depth parameter, > 1 (not necessarily an integer).
    b : float
        Linear shift; |b| must stay below shift_bound(omega0, A), where
        the lowest level reaches the normalizability threshold.

    Returns
    -------
    (a, PctMap, RosenMorseParams, count)
        Half-width a = sqrt(2/omega0) * (A(A+1) - 2)^(1/4), the affine
        transform constants, the source-well parameters with
        B = -omega0 a^3 b / 2, and level_count(A, B), at least 1.
    """
    # one type test per parameter, before the checks below, which a bool would pass
    if bool in (kinds := (type(omega0), type(A), type(b))):
        name = ("omega0", "A", "b")[kinds.index(bool)]
        raise ParameterError(f"{name} must be a number, not a bool")
    if not (math.isfinite(omega0) and math.isfinite(A) and math.isfinite(b)):
        raise ParameterError("omega0, A, b must be finite")
    if omega0 <= 0.0:
        raise ParameterError(f"need omega0 > 0, got {omega0}")
    if A <= 1.0:
        raise ParameterError(f"need A > 1 for a nonempty model, got A={A}")
    # A(A+1) - 2 as (A-1)(A+2): A - 1 is exact near 1, where the difference of two numbers
    # near 2 would lose eps/(A-1) of a and of every energy
    a = math.sqrt(2.0 / omega0) * ((A - 1.0) * (A + 2.0)) ** 0.25
    a3 = a * a * a
    if not 0.0 < a3 < math.inf:
        raise ParameterError(
            f"omega0={omega0} and A={A} put the confinement half-width a={a} out of "
            "range: a^3 overflows or underflows"
        )
    B = -0.5 * omega0 * a3 * b
    if (count := level_count(A, B)) == 0:
        stem = f"no bound state for omega0={omega0!r}, A={A!r}, b={b!r}: "
        if level_count(A, 0.0) == 0:
            raise ParameterError(
                stem + f"A is within {WINDOW_MARGIN} of 1, where the lowest level meets its "
                "normalizability threshold, so no b admits a level"
            )
        raise ParameterError(
            stem + f"the lowest level is past or within {WINDOW_MARGIN} of its normalizability "
            f"threshold, which |b| reaches at the admissibility bound {shift_bound(omega0, A):.17g}"
        )
    # omega0 a^2 = 2 sqrt(A(A+1) - 2) stays bounded where omega0^2 would overflow
    c_bar = 0.25 * omega0 * (omega0 * a * a) + 1.0 / (a * a)
    if b != 0.0:
        c_bar += b * b
    return a, PctMap(a_bar=1.0 / a, c_bar=c_bar), RosenMorseParams(A=A, B=B), count
