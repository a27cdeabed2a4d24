"""Change-of-variable machinery: mass profile, transforms, parameter map.

The mass-correction closed form is checked against a symbolic derivative
oracle (sympy) and against central finite differences of M itself; the
potential transform is pinned to the target parabola pointwise.
"""

import math
import random

import numpy as np
import pytest
import sympy

from pdmosc import oscillator
from pdmosc.errors import DomainError, ParameterError
from pdmosc.pct import (
    MassProfile,
    PctMap,
    map_parameters,
    mass,
    mass_correction,
    transform_potential,
    u_of_x,
    v_of_x,
)
from pdmosc.rosen_morse import rm_potential, rm_wavefunction


# --- mass profile ---


def test_mass_center():
    assert mass(MassProfile(2.0), 0.0) == 1.0


def test_mass_direct_value():
    # 1 - 2/4 = 1/2, inverse squared
    assert math.isclose(mass(MassProfile(2.0), math.sqrt(2.0)), 4.0, rel_tol=1e-14)


def test_mass_large_near_edge():
    val = mass(MassProfile(2.0), 1.999)
    assert math.isfinite(val)
    assert 1e5 < val < 1e7


def test_mass_at_least_one_and_even():
    prof = MassProfile(1.7)
    for x in (0.0, 0.3, 0.9, 1.5, 1.69):
        assert mass(prof, x) >= 1.0
        assert mass(prof, x) == mass(prof, -x)


def test_mass_domain_guard():
    prof = MassProfile(2.0)
    with pytest.raises(DomainError):
        mass(prof, 2.0)
    with pytest.raises(DomainError):
        mass(prof, -2.3)


def test_mass_on_arrays_equals_point_calls_bit_for_bit():
    # a float gives a float; an array gives its shape, each entry bit for bit the point value
    prof = MassProfile(1.7)
    assert type(mass(prof, 0.3)) is float
    xs = np.array([-1.69, -0.9, -1e-3, 0.0, 0.3, 1.2, 1.5, 1.7 * (1.0 - 2e-12)]).reshape(2, 4)
    got = mass(prof, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert got.tolist() == [[mass(prof, x) for x in row] for row in xs.tolist()]
    assert mass(prof, np.array([])).shape == (0,)


def test_mass_on_arrays_checks_every_entry():
    prof = MassProfile(2.0)
    for bad in (math.nan, math.inf, -math.inf, 2.0, -2.3, 2.0 * (1.0 - 1e-13)):
        with pytest.raises(DomainError):
            mass(prof, np.array([0.1, bad, -0.3]))


def test_profile_rejects_nonpositive_width():
    with pytest.raises(ParameterError):
        MassProfile(0.0)
    with pytest.raises(ParameterError):
        MassProfile(-1.0)


# --- v(x) and u(x) ---


def test_v_odd_at_center():
    assert v_of_x(MassProfile(2.0), 0.0) == 0.0


def test_v_inverts_tanh():
    assert math.isclose(v_of_x(MassProfile(2.0), 2.0 * math.tanh(1.0)), 2.0, rel_tol=1e-14)


def test_v_derivative_is_sqrt_mass():
    prof = MassProfile(2.0)
    h = 1e-6
    fd = (v_of_x(prof, 0.7 + h) - v_of_x(prof, 0.7 - h)) / (2.0 * h)
    assert abs(fd - math.sqrt(mass(prof, 0.7))) < 1e-8


def test_u_composition():
    prof = MassProfile(2.0)
    pmap = PctMap(a_bar=0.5, c_bar=1.25)
    assert u_of_x(prof, pmap, 0.0) == 0.0
    assert math.isclose(u_of_x(prof, pmap, 2.0 * math.tanh(1.5)), 1.5, rel_tol=1e-14)


def test_u_round_trip_and_monotone():
    prof = MassProfile(2.0)
    pmap = PctMap(a_bar=0.5, c_bar=1.25)
    xs = [-1.9 + 0.1 * i for i in range(39)]
    us = [u_of_x(prof, pmap, x) for x in xs]
    assert all(lo < hi for lo, hi in zip(us, us[1:]))
    for x, u in zip(xs, us):
        assert abs(2.0 * math.tanh(u) - x) < 1e-12


def test_pct_map_rejects_nonzero_offset():
    # the map has no offset field at all
    with pytest.raises(TypeError):
        PctMap(a_bar=0.5, c_bar=1.25, b_bar=0.1)


# --- mass_correction ---


def test_mass_correction_values():
    prof = MassProfile(2.0)
    assert math.isclose(mass_correction(prof, 0.0), 0.25, rel_tol=1e-14)
    assert math.isclose(mass_correction(prof, 1.0), 0.125, rel_tol=1e-14)


def test_mass_correction_edge_limit():
    prof = MassProfile(2.0)
    assert math.isclose(mass_correction(prof, 1.9999998), -0.25, rel_tol=1e-6)


def test_mass_correction_symbolic_oracle():
    # sympy evaluates M''/(4 M^2) - 7 M'^2/(16 M^3) for M = (1 - x^2/a^2)^-2
    x, a = sympy.symbols("x a", positive=True)
    M = (1 - x**2 / a**2) ** -2
    expr = sympy.diff(M, x, 2) / (4 * M**2) - 7 * sympy.diff(M, x) ** 2 / (16 * M**3)
    expr = sympy.simplify(expr)
    for aval, xval in [(2, 0), (2, 1), (2, sympy.Rational(19, 10)), (3, sympy.Rational(5, 2))]:
        want = float(expr.subs({a: aval, x: xval}))
        got = mass_correction(MassProfile(float(aval)), float(xval))
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14)


def test_mass_correction_finite_difference():
    prof = MassProfile(2.0)
    # h small enough that the h^2 truncation at x = 0.95a clears 1e-6
    h = 3e-5
    for x in [0.0, 0.4, -0.9, 1.3, 1.9]:
        m0 = mass(prof, x)
        mp = mass(prof, x + h)
        mm = mass(prof, x - h)
        d1 = (mp - mm) / (2.0 * h)
        d2 = (mp - 2.0 * m0 + mm) / (h * h)
        fd = d2 / (4.0 * m0 * m0) - 7.0 * d1 * d1 / (16.0 * m0**3)
        assert abs(mass_correction(prof, x) - fd) < 1e-6


# --- potential and energy transforms ---


def unshifted_setup():
    a, pmap, rm, _ = map_parameters(1.0, 2.0)
    prof = MassProfile(a)
    src = lambda u: rm_potential(rm, u)
    return a, pmap, prof, src


def test_transform_potential_center_cancels():
    _, pmap, prof, src = unshifted_setup()
    assert abs(transform_potential(src, prof, pmap, 0.0)) < 1e-13


def test_transform_potential_matches_parabola():
    _, pmap, prof, src = unshifted_setup()
    assert math.isclose(transform_potential(src, prof, pmap, 1.0), 0.25, rel_tol=1e-12)


def test_transform_potential_shifted_minimum():
    a, pmap, rm, _ = map_parameters(1.0, 3.0, 0.1)
    prof = MassProfile(a)
    src = lambda u: rm_potential(rm, u)
    x0 = 0.2
    assert abs(transform_potential(src, prof, pmap, x0)) < 1e-12
    assert transform_potential(src, prof, pmap, x0 + 0.3) > 0.0
    assert transform_potential(src, prof, pmap, x0 - 0.3) > 0.0


@pytest.mark.parametrize("omega0,A,b", [(1.0, 2.0, 0.0), (1.0, 3.0, 0.1), (2.0, 4.5, -0.2)])
def test_transform_potential_pointwise_identity(omega0, A, b):
    a, pmap, rm, _ = map_parameters(omega0, A, b)
    prof = MassProfile(a)
    src = lambda u: rm_potential(rm, u)
    x0 = 2.0 * b / omega0
    for i in range(200):
        x = -0.995 * a + 1.99 * a * i / 199
        want = 0.25 * omega0**2 * (x - x0) ** 2
        assert abs(transform_potential(src, prof, pmap, x) - want) < 1e-10


def test_transform_identities_random_parameters():
    # same identities at arbitrary non-integer depths; nothing below ties
    # these formulas to any particular parameter grid
    rng = random.Random(31)
    for _ in range(25):
        omega0 = rng.uniform(0.3, 4.0)
        A = rng.uniform(1.05, 6.0)
        b = rng.uniform(-0.8, 0.8) * oscillator.shift_bound(omega0, A)
        a, pmap, rm, _ = map_parameters(omega0, A, b)
        prof = MassProfile(a)
        src = lambda u: rm_potential(rm, u)
        x0 = 2.0 * b / omega0
        h = 1.5e-5 * a
        for i in range(40):
            x = -0.95 * a + 1.9 * a * i / 39
            want = 0.25 * omega0**2 * (x - x0) ** 2
            assert abs(transform_potential(src, prof, pmap, x) - want) < 1e-10
        for x in (-0.9 * a, 0.1 * a, 0.7 * a):
            m0 = mass(prof, x)
            d1 = (mass(prof, x + h) - mass(prof, x - h)) / (2.0 * h)
            d2 = (mass(prof, x + h) - 2.0 * m0 + mass(prof, x - h)) / (h * h)
            fd = d2 / (4.0 * m0 * m0) - 7.0 * d1 * d1 / (16.0 * m0**3)
            assert abs(mass_correction(prof, x) - fd) < 1e-6


# --- map_parameters ---


def test_map_unshifted_depth_two():
    a, pmap, rm, count = map_parameters(1.0, 2.0)
    assert count == 1
    assert math.isclose(a, 2.0, rel_tol=1e-14)
    assert math.isclose(pmap.a_bar, 0.5, rel_tol=1e-14)
    assert math.isclose(pmap.c_bar, 1.25, rel_tol=1e-13)
    assert rm.B == 0.0
    assert rm.A == 2.0


def test_map_unshifted_depth_three():
    a, pmap, _, count = map_parameters(1.0, 3.0)
    assert count == 2
    assert math.isclose(a, 2.5148669, rel_tol=1e-7)
    assert math.isclose(pmap.c_bar, 1.7392528, rel_tol=1e-7)


def test_map_shifted():
    a, pmap, rm, count = map_parameters(1.0, 3.0, 0.1)
    assert count == 2
    assert math.isclose(rm.B, -0.7952707, rel_tol=1e-6)
    assert math.isclose(pmap.c_bar, 1.7492528, rel_tol=1e-7)
    # B = -omega0 a^3 b / 2 with a^3 = 40^(3/4)
    assert math.isclose(rm.B, -0.05 * 40.0**0.75, rel_tol=1e-13)


def test_map_rejects_shallow_depth():
    with pytest.raises(ParameterError, match="A"):
        map_parameters(1.0, 1.0)
    with pytest.raises(ParameterError):
        map_parameters(1.0, 0.3)


def test_map_rejects_nonpositive_frequency():
    with pytest.raises(ParameterError):
        map_parameters(0.0, 2.0)
    with pytest.raises(ParameterError):
        map_parameters(-2.0, 2.0)


def test_map_rejects_excessive_shift_with_bound_in_message():
    bound = oscillator.shift_bound(1.0, 3.0)
    with pytest.raises(ParameterError) as err:
        map_parameters(1.0, 3.0, bound + 1e-6)
    msg = str(err.value)
    assert format(bound, ".6g")[:6] in msg


@pytest.mark.parametrize("omega0,A", [(1.0, 1.0 + 1e-13), (1e300, 3.0)])
def test_shift_bound_refuses_where_no_shift_is_admitted(omega0, A):
    # A - 1 inside the window margin, and a^3 underflowing: no b gives a model
    with pytest.raises(ParameterError):
        map_parameters(omega0, A, 0.0)
    with pytest.raises(ParameterError):
        oscillator.shift_bound(omega0, A)


def test_unshifted_refusal_quotes_no_bound():
    for b in (0.0, 1e-6):
        with pytest.raises(ParameterError) as err:
            oscillator.OscillatorParams(1.0, 1.0 + 1e-13, b)
        assert "admissibility bound" not in str(err.value)
        assert "no b admits a level" in str(err.value)


# --- change of function ---


@pytest.mark.parametrize(
    "omega0,A,b,form",
    [
        pytest.param(1.0, 2.0, 0.0, "auto", id="1.0-2.0-0.0"),
        pytest.param(1.0, 3.0, 0.1, "auto", id="1.0-3.0-0.1"),
        pytest.param(0.7, 9.3, 0.6 * oscillator.shift_bound(0.7, 9.3), "auto", id="deep-shifted"),
        pytest.param(1.0, 12.15, 0.0, "jacobi", id="deep-jacobi"),
    ],
)
def test_quarter_power_change_of_function(omega0, A, b, form):
    # psi_n(x) = sqrt(a_bar) M(x)^(1/4) phi_n(u(x)): the u-space solution
    # carried through the variable change reproduces the x-space one
    a, pmap, rm, _ = map_parameters(omega0, A, b)
    prof = MassProfile(a)
    p = oscillator.OscillatorParams(omega0, A, b)
    for n in range(oscillator.num_bound_states(p)):
        for i in range(40):
            x = -0.95 * a + 1.9 * a * i / 39
            u = u_of_x(prof, pmap, x)
            phi = rm_wavefunction(rm, n, u, form)
            via_u = math.sqrt(pmap.a_bar) * mass(prof, x) ** 0.25 * phi
            direct = oscillator.wavefunction(p, n, x, form)
            assert abs(via_u - direct) <= 1e-9 * max(abs(direct), 1e-6)


def test_domain_guard_near_boundary():
    prof = MassProfile(2.0)
    pmap = PctMap(a_bar=0.5, c_bar=1.25)
    edge = 2.0 * (1.0 - 1e-12)
    # inside the guard both evaluate; at or past the cut they refuse
    assert math.isfinite(v_of_x(prof, 0.999999 * 2.0))
    with pytest.raises(DomainError):
        v_of_x(prof, 2.0)
    with pytest.raises(DomainError):
        u_of_x(prof, pmap, edge * (1.0 + 1e-9))
    with pytest.raises(DomainError):
        mass_correction(prof, -2.0)
