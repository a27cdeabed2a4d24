"""Constant-mass hyperbolic-well solver: energies, window, wavefunctions.

Energy values are hand-evaluated from epsilon_n = -(A-n)^2 - B^2/(A-n)^2;
wavefunction values cross-check the log-space normalization against small
closed forms and quadrature.
"""

import math
import random

import numpy as np
import pytest

from pdmosc.errors import DomainError, NoSuchStateError, ParameterError
from pdmosc.rosen_morse import (
    RosenMorseParams,
    rm_bound_states,
    rm_energy,
    rm_nmax,
    rm_potential,
    rm_wavefunction,
)
from pdmosc.special_fn import gauss_legendre


def quad_u(f, g, half_width=30.0, size=400):
    total = 0.0
    for z, w in zip(*gauss_legendre(size)):
        u = half_width * z
        total += w * half_width * f(u) * g(u)
    return total


# --- parameter validation ---


def test_params_reject_asymmetry_at_depth_square():
    with pytest.raises(ParameterError):
        RosenMorseParams(0.5, 0.49)
    with pytest.raises(ParameterError):
        RosenMorseParams(2.0, 4.0)


def test_params_reject_nonpositive_depth():
    with pytest.raises(ParameterError):
        RosenMorseParams(0.0, 0.0)
    with pytest.raises(ParameterError):
        RosenMorseParams(-1.0, 0.0)


def test_params_reject_nonfinite():
    with pytest.raises(ParameterError):
        RosenMorseParams(float("inf"), 0.0)
    with pytest.raises(ParameterError):
        RosenMorseParams(2.0, float("nan"))


# --- rm_potential ---


def test_potential_at_origin():
    p = RosenMorseParams(2.0, 0.0)
    assert rm_potential(p, 0.0) == -6.0


def test_potential_asymptotically_flat():
    p = RosenMorseParams(2.0, 0.0)
    assert abs(rm_potential(p, 40.0)) < 1e-30
    assert abs(rm_potential(p, -40.0)) < 1e-30


def test_potential_against_direct_expression():
    p = RosenMorseParams(2.5, 1.5)
    want = -8.75 / math.cosh(1.0) ** 2 + 3.0 * math.tanh(1.0)
    assert math.isclose(rm_potential(p, 1.0), want, rel_tol=1e-14)


def test_potential_tilts_with_asymmetry():
    p = RosenMorseParams(3.0, -2.0)
    # negative B makes u -> +inf the low side (limit 2B) and u -> -inf the high side
    assert rm_potential(p, -10.0) > 0.0 > rm_potential(p, 10.0)
    assert math.isclose(rm_potential(p, 30.0), -4.0, rel_tol=1e-8)


def test_potential_on_arrays_equals_point_calls_bit_for_bit():
    # a float gives a float; an array gives its shape, each entry bit for bit the point value
    us = np.array([-800.0, -12.0, -0.8, 0.0, 1e-9, 0.7, 3.3, 800.0]).reshape(4, 2)
    for p in (RosenMorseParams(2.5, 1.5), RosenMorseParams(6.3), RosenMorseParams(3.0, -2.0)):
        assert type(rm_potential(p, 0.7)) is float
        got = rm_potential(p, us)
        assert isinstance(got, np.ndarray) and got.shape == us.shape
        assert got.tolist() == [[rm_potential(p, u) for u in row] for row in us.tolist()]


def test_potential_rejects_any_nonfinite_entry():
    p = RosenMorseParams(2.5, 1.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            rm_potential(p, bad)
        with pytest.raises(DomainError):
            rm_potential(p, np.array([0.1, bad, -0.3]))


# --- rm_nmax window ---


def test_window_symmetric_well():
    assert rm_nmax(RosenMorseParams(2.0, 0.0)) == 1


def test_window_with_asymmetry():
    assert rm_nmax(RosenMorseParams(2.5, 1.5)) == 1


def test_window_empty():
    # A - sqrt|B| = 0.5 - 0.7 < 0: no bound state survives
    assert rm_nmax(RosenMorseParams(0.5, -0.49)) == -1
    assert rm_bound_states(RosenMorseParams(0.5, -0.49)) == []


def test_window_threshold_margin():
    # a state within 1e-12 of the normalizability edge is rejected
    assert rm_nmax(RosenMorseParams(1.0 + 5.0e-13, 0.0)) == 0
    assert rm_nmax(RosenMorseParams(1.0 + 1.0e-11, 0.0)) == 1


# --- rm_energy ---


def test_energy_symmetric_well():
    p = RosenMorseParams(2.0, 0.0)
    assert rm_energy(p, 0) == -4.0
    assert rm_energy(p, 1) == -1.0


def test_energy_asymmetric_well():
    p = RosenMorseParams(2.5, 1.5)
    assert math.isclose(rm_energy(p, 0), -6.61, rel_tol=1e-14)
    assert math.isclose(rm_energy(p, 1), -3.25, rel_tol=1e-14)


def test_energy_increasing_in_n():
    for A, B in [(4.0, 0.0), (4.0, -2.0), (5.5, 3.0)]:
        p = RosenMorseParams(A, B)
        eps = [rm_energy(p, n) for n in range(rm_nmax(p) + 1)]
        assert all(lo < hi for lo, hi in zip(eps, eps[1:]))


def test_energy_from_floor_keeps_its_digits_at_depth():
    import mpmath as mp

    # eps_n + A(A+1) summed in floats loses about A eps; the floor form is formed from A and
    # n.  A tilt as large as the level spacing times A cancels it again, so B stays small here
    for A, B in [(1.5, 0.0), (12.25, -3.0), (2000.0, 0.0), (1e4, 0.0), (1e4 + 0.3, 900.0)]:
        p = RosenMorseParams(A, B)
        for n in sorted({0, 1, rm_nmax(p) // 2, rm_nmax(p)}):
            with mp.workdps(50):
                m = mp.mpf(A) - n
                want = mp.mpf(A) * (mp.mpf(A) + 1) - m**2 - mp.mpf(B) ** 2 / m**2
            got = rm_energy(p, n, from_floor=True)
            assert abs(got - want) <= 1e-15 * abs(want)
            # the plain energy agrees up to its own rounding, a few eps of A^2 + B^2/m^2
            scale = A * (A + 1.0) + B * B / float(m * m)
            assert abs(got - (rm_energy(p, n) + A * (A + 1.0))) <= 4e-16 * scale
    with pytest.raises(NoSuchStateError):
        rm_energy(RosenMorseParams(2.0, 0.0), 2, from_floor=True)


def test_energy_rejects_out_of_window():
    p = RosenMorseParams(2.0, 0.0)
    with pytest.raises(NoSuchStateError):
        rm_energy(p, 2)
    with pytest.raises(NoSuchStateError):
        rm_energy(p, -1)


# --- rm_wavefunction ---


def test_ground_state_peak_value():
    # phi_0(0) = sqrt(3)/2 for the A=2 symmetric well
    p = RosenMorseParams(2.0, 0.0)
    assert math.isclose(rm_wavefunction(p, 0, 0.0), math.sqrt(3.0) / 2.0, rel_tol=1e-13)


def test_odd_state_vanishes_at_origin():
    p = RosenMorseParams(2.0, 0.0)
    assert abs(rm_wavefunction(p, 1, 0.0)) < 1e-13


def test_first_excited_normalization():
    p = RosenMorseParams(2.0, 0.0)
    f = lambda u: rm_wavefunction(p, 1, u)
    assert abs(quad_u(f, f) - 1.0) < 1e-9


@pytest.mark.parametrize("A,B", [(2.0, 0.0), (3.0, 0.0), (2.5, 1.5), (4.0, -2.0)])
def test_orthonormality(A, B):
    p = RosenMorseParams(A, B)
    states = rm_bound_states(p)
    for i, si in enumerate(states):
        for sj in states[i:]:
            val = quad_u(si.wavefunction, sj.wavefunction)
            want = 1.0 if si.n == sj.n else 0.0
            assert abs(val - want) < 1e-8


def test_parity_symmetric_well():
    p = RosenMorseParams(3.0, 0.0)
    for n in range(rm_nmax(p) + 1):
        for u in (0.3, 1.1, 2.7, 6.0):
            plus = rm_wavefunction(p, n, u)
            minus = rm_wavefunction(p, n, -u)
            assert abs(minus - (-1.0) ** n * plus) < 1e-12 * max(1.0, abs(plus))


@pytest.mark.parametrize("A,B", [(2.0, 0.0), (4.0, 0.0), (2.5, 1.5), (4.0, -2.0)])
def test_node_counts(A, B):
    p = RosenMorseParams(A, B)
    m = 2500
    grid = [-25.0 + 50.0 * i / (m - 1) for i in range(m)]
    for st in rm_bound_states(p):
        vals = [st.wavefunction(u) for u in grid]
        signs = [v for v in vals if abs(v) > 1e-9]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
        assert flips == st.n


def test_gegenbauer_jacobi_route_equivalence():
    rng = random.Random(1717)
    for A in (2.0, 3.0, 4.5):
        p = RosenMorseParams(A, 0.0)
        for n in range(rm_nmax(p) + 1):
            for _ in range(100):
                u = rng.uniform(-6.0, 6.0)
                g = rm_wavefunction(p, n, u, form="gegenbauer")
                j = rm_wavefunction(p, n, u, form="jacobi")
                assert abs(g - j) <= 1e-11 * max(abs(g), abs(j), 1e-3)


def test_asymmetric_well_requires_jacobi_route():
    p = RosenMorseParams(2.5, 1.5)
    with pytest.raises(ParameterError):
        rm_wavefunction(p, 0, 0.5, form="gegenbauer")


def test_far_tail_underflows_cleanly():
    # log-space envelope: huge |u| must give 0.0, never NaN or overflow
    p = RosenMorseParams(2.5, 1.5)
    for u in (500.0, -500.0, 4000.0):
        val = rm_wavefunction(p, 0, u)
        assert val == 0.0 or abs(val) < 1e-100


def test_wavefunction_rejects_out_of_window():
    p = RosenMorseParams(2.0, 0.0)
    with pytest.raises(NoSuchStateError):
        rm_wavefunction(p, 2, 0.0)


def test_bound_states_agree_with_scalar_api():
    # both polynomial routes, out to tails that underflow: the same bits
    for p in (RosenMorseParams(4.0, -2.0), RosenMorseParams(6.3), RosenMorseParams(17.5, 40.0)):
        states = rm_bound_states(p)
        assert [s.n for s in states] == list(range(rm_nmax(p) + 1))
        for st in states:
            assert st.epsilon == rm_energy(p, st.n)
            for u in (-400.0, -9.5, -0.8, 0.0, 0.7, 3.3, 12.0, 400.0):
                assert st.wavefunction(u) == rm_wavefunction(p, st.n, u)
