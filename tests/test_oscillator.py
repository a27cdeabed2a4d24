"""Confined oscillator closed forms: spectra, wavefunctions, special case.

Pinned decimals come from evaluating the closed-form energy expressions by
hand (a^2 = sqrt(40) arithmetic and friends); route-equality tests compare
independently coded evaluation paths.
"""

import dataclasses
import math
import pickle
import random
import warnings
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmosc import oscillator, pct, rosen_morse
from pdmosc.errors import DomainError, NoSuchStateError, ParameterError
from pdmosc.oscillator import (
    BoundState,
    OscillatorParams,
    bound_states,
    confinement_length,
    energy,
    energy_harmonic_form,
    jafarov_case,
    num_bound_states,
    shift_bound,
    wavefunction,
)
from pdmosc.oracle import solve_pdm_numeric
from pdmosc.rosen_morse import rm_wavefunction
from pdmosc.special_fn import gauss_legendre


def quad_x(f, g, a, size=400):
    return sum(w * a * f(a * z) * g(a * z) for z, w in zip(*gauss_legendre(size)))


def mp_psi(a, A, B, n, x):
    """psi_n(x) at 60 digits from the normalized Jacobi closed form.

    psi_n = N a^(-1/2) (1-t)^((al-1)/2) (1+t)^((ga-1)/2) P_n^(al, ga)(t) with
    t = x/a, al = m + beta, ga = m - beta, m = A - n, beta = B/m, and
    1/N^2 = 2^(al+ga-1) (al+ga) G(n+al+1) G(n+ga+1) / (n! al ga G(n+al+ga+1)).
    a, A, B and x are taken exactly as the doubles given.
    """
    with mp.workdps(60):
        a, x = mp.mpf(a), mp.mpf(x)
        m = mp.mpf(A) - n
        beta = mp.mpf(B) / m
        al, ga = m + beta, m - beta
        norm2 = (
            mp.factorial(n) * al * ga * mp.gamma(n + al + ga + 1)
            / (mp.power(2, al + ga - 1) * (al + ga) * mp.gamma(n + al + 1) * mp.gamma(n + ga + 1))
        )
        env = ((a - x) / a) ** ((al - 1) / 2) * ((a + x) / a) ** ((ga - 1) / 2)
        return mp.sqrt(norm2 / a) * env * mp.jacobi(n, al, ga, x / a)


# 1 - |x/a| from 1e-3 down to 1e-8, on both walls
WALL_GAPS = [side * 10.0**-e for e in range(3, 9) for side in (1.0, -1.0)]


# --- derived constants ---


def test_params_derive_once_and_compare_on_their_inputs(count_calls):
    # a, rm and count come from the constructor's one map and take no part in eq, hash or
    # repr; replace derives anew, a pickle keeps them without a map, and none can be set
    p = OscillatorParams(1.0, 3.5)
    assert (p.count, p.a) == (3, confinement_length(1.0, 3.5))
    assert p.rm == pct.map_parameters(1.0, 3.5, 0.0)[2]
    assert repr(p) == "OscillatorParams(omega0=1.0, A=3.5, b=0.0)"
    assert p == OscillatorParams(1.0, 3.5, 0.0) != OscillatorParams(1.0, 3.5, 0.1)
    assert hash(p) == hash((1.0, 3.5, 0.0))
    assert [f.name for f in dataclasses.fields(p) if f.compare or f.repr] == ["omega0", "A", "b"]
    deeper = dataclasses.replace(p, A=5.5)
    assert deeper == OscillatorParams(1.0, 5.5)
    assert (deeper.count, deeper.a) == (5, confinement_length(1.0, 5.5))
    calls = count_calls(pct, "map_parameters")
    back = pickle.loads(pickle.dumps(p))
    assert calls == {"map_parameters": 0}
    assert back == p and (back.a, back.rm, back.count) == (p.a, p.rm, p.count)
    for name in ("omega0", "a", "rm", "count"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 2.0)
    with pytest.raises(ParameterError, match="not a bool"):
        dataclasses.replace(p, b=True)


def test_a_built_model_is_mapped_no_more(count_calls):
    # each entry point reads the derivation p's constructor made; energy alone derives p
    # twice more, as its own comment says why
    p = OscillatorParams(0.9, 7.4, 0.2)
    k = p.count
    calls = count_calls(pct, "map_parameters")
    for name, call in [
        ("num_bound_states", lambda: num_bound_states(p)),
        ("wavefunction", lambda: wavefunction(p, k - 1, 0.3 * p.a)),
        ("bound_states", lambda: bound_states(p)[k - 1].wavefunction(0.3 * p.a)),
        ("energy_harmonic_form", lambda: energy_harmonic_form(p, k - 1)),
        ("solve_pdm_numeric", lambda: solve_pdm_numeric(p, 1, 64)),
    ]:
        call()
        assert calls == {"map_parameters": 0}, name
    energy(p, 0)
    assert calls == {"map_parameters": 2}


def test_confinement_length_values():
    assert math.isclose(confinement_length(1.0, 2.0), 2.0, rel_tol=1e-14)
    assert math.isclose(confinement_length(1.0, 3.0), 2.5148669, rel_tol=1e-7)


def test_confinement_length_matches_quantized_case():
    a_general = confinement_length(1.0, 2.0)
    a_quantized = math.sqrt(2.0) * (2 * 3 - 2) ** 0.25
    assert a_general == a_quantized


def test_confinement_length_rejects_shallow():
    with pytest.raises(ParameterError):
        confinement_length(1.0, 1.0)


def test_shift_bound_values():
    # sqrt(1/2) * 6 / 10^(3/4); the closed form, evaluated independently
    want = math.sqrt(0.5) * 6.0 / 10.0**0.75
    assert math.isclose(shift_bound(1.0, 3.0), want, rel_tol=1e-14)
    assert math.isclose(want, 0.7544601, rel_tol=1e-6)
    assert math.isclose(shift_bound(1.0, 2.0), 0.5, rel_tol=1e-13)


def test_shift_bound_vanishes_at_unit_depth():
    # vanishes like (A-1)^(1/4): slow, but monotone toward zero
    assert shift_bound(1.0, 1.0 + 1e-9) < 0.01
    assert shift_bound(1.0, 1.0 + 1e-12) < shift_bound(1.0, 1.0 + 1e-9) < shift_bound(1.0, 1.001)


def test_params_reject_excessive_shift():
    bound = shift_bound(1.0, 3.0)
    with pytest.raises(ParameterError) as err:
        OscillatorParams(1.0, 3.0, bound * 1.000001)
    assert format(bound, ".6g")[:6] in str(err.value)
    # just inside the bound is fine
    OscillatorParams(1.0, 3.0, bound * 0.999)


@pytest.mark.parametrize(
    "args", [(True, 3.0), (1.0, True), (1.0, 3.0, False), (1.0, 3.0, True), (False, 3.0)]
)
def test_params_reject_bools(args):
    # pct.map_parameters refuses a bool as any parameter, so every entry that validates
    # through it does; confinement_length and shift_bound take (omega0, A) alone
    entries = [OscillatorParams, pct.map_parameters]
    if len(args) == 2:
        entries += [confinement_length, shift_bound]
    for entry in entries:
        with pytest.raises(ParameterError, match="must be a number, not a bool"):
            entry(*args)


def test_derived_constants_reproducible():
    p = OscillatorParams(1.0, 2.7, 0.05)
    a1, map1, rm1, k1 = pct.map_parameters(p.omega0, p.A, p.b)
    a2, map2, rm2, k2 = pct.map_parameters(p.omega0, p.A, p.b)
    assert (a1, map1.c_bar, rm1.B, k1) == (a2, map2.c_bar, rm2.B, k2)
    assert a1 == confinement_length(p.omega0, p.A)


# --- admission window ---


def test_window_counts():
    assert num_bound_states(OscillatorParams(1.0, 2.0)) == 1
    assert num_bound_states(OscillatorParams(1.0, 3.0)) == 2
    assert num_bound_states(OscillatorParams(1.0, 3.0, 0.1)) == 2


def test_window_shifted_threshold_arithmetic():
    # threshold A - (1 + sqrt(1 + 2 w a^3 |b|))/2 evaluated directly
    a = confinement_length(1.0, 3.0)
    threshold = 3.0 - 0.5 * (1.0 + math.sqrt(1.0 + 2.0 * a**3 * 0.1))
    assert math.isclose(threshold, 1.4776, rel_tol=1e-4)
    assert num_bound_states(OscillatorParams(1.0, 3.0, 0.1)) == math.floor(threshold) + 1


def test_window_integer_depth_is_strict():
    # n = A-1 sits exactly on the edge and is excluded
    assert num_bound_states(OscillatorParams(1.0, 2.0)) == 1
    assert num_bound_states(OscillatorParams(1.0, 2.0 + 1e-11)) == 2


def test_every_admitted_model_holds_a_level():
    # at |b| = shift_bound, or A = 1, the window threshold is 0: inputs just
    # inside either edge are refused or keep level 0, never admitted empty
    rng = random.Random(57)
    for _ in range(1500):
        omega0 = math.exp(rng.uniform(-4.0, 4.0))
        A = 1.0 + 10.0 ** rng.uniform(-13.0, 1.5)
        gaps = [10.0 ** rng.uniform(-16.0, -8.0) for _ in range(3)]
        # a bound exactly where b = 0 is admitted
        try:
            bound = shift_bound(omega0, A)
        except ParameterError:
            with pytest.raises(ParameterError):
                OscillatorParams(omega0, A, 0.0)
            continue
        OscillatorParams(omega0, A, 0.0)
        shifts = [0.0, bound, math.nextafter(bound, 0.0)]
        shifts += [bound * (1.0 - g) for g in gaps]
        for b in shifts:
            for sign in (1.0, -1.0):
                try:
                    p = OscillatorParams(omega0, A, sign * b)
                except ParameterError:
                    continue
                assert num_bound_states(p) >= 1, (omega0, A, sign * b)


# --- energies ---


def test_energy_depth_two():
    assert math.isclose(energy(OscillatorParams(1.0, 2.0), 0), 0.25, rel_tol=1e-14)


def test_energy_depth_three():
    # exact surds: E_0 = (40 - 32)/(4 sqrt(40)) = 1/sqrt(10), E_1 = 7/sqrt(40)
    p = OscillatorParams(1.0, 3.0)
    assert math.isclose(energy(p, 0), 1.0 / math.sqrt(10.0), rel_tol=1e-13)
    assert math.isclose(energy(p, 1), 7.0 / math.sqrt(40.0), rel_tol=1e-13)
    assert math.isclose(energy(p, 0), 0.3162278, rel_tol=5e-7)
    assert math.isclose(energy(p, 1), 1.1067972, rel_tol=5e-7)


def test_energy_shifted():
    p = OscillatorParams(1.0, 3.0, 0.1)
    assert math.isclose(energy(p, 0), 0.3151166, rel_tol=1e-6)
    assert math.isclose(energy(p, 1), 1.0917972, rel_tol=1e-6)


def test_energy_shift_corrections():
    # b^2 g(n)/f(n) with f = (A-n)^2, g = f - w^2 a^4 / 4: corrections
    # -b^2/9 and -3 b^2/2 at A=3, w=1
    flat = OscillatorParams(1.0, 3.0)
    tilted = OscillatorParams(1.0, 3.0, 0.1)
    assert math.isclose(energy(tilted, 0) - energy(flat, 0), -0.01 / 9.0, abs_tol=1e-12)
    assert math.isclose(energy(tilted, 1) - energy(flat, 1), -0.015, abs_tol=1e-12)


def test_energy_two_forms_agree():
    rng = random.Random(5)
    for _ in range(60):
        omega0 = rng.uniform(0.3, 4.0)
        A = rng.uniform(1.3, 7.0)
        b = rng.uniform(-0.8, 0.8) * shift_bound(omega0, A)
        p = OscillatorParams(omega0, A, b)
        for n in range(num_bound_states(p)):
            e1 = energy(p, n)
            e2 = energy_harmonic_form(p, n)
            assert abs(e1 - e2) <= 1e-12 * max(abs(e1), abs(e2))


def mp_energy(omega0, A, b, n):
    """E_n at 50 digits: (-(A-n)^2 - B^2/(A-n)^2)/a^2 + omega0^2 a^2/4 + 1/a^2 + b^2."""
    with mp.workdps(50):
        w, A, b = mp.mpf(omega0), mp.mpf(A), mp.mpf(b)
        a2 = 2 / w * mp.sqrt(A * (A + 1) - 2)
        B2 = w**2 * a2**3 * b**2 / 4
        m = A - n
        return (-(m**2) - B2 / m**2) / a2 + w**2 * a2 / 4 + 1 / a2 + b**2


@pytest.mark.parametrize("omega0", [0.3, 1.0, 7.0])
def test_energies_against_mpmath_at_any_depth(omega0):
    # the transform route's O(A) terms cancel to O(n + 1/2); summed in floats they lost
    # about A eps (6.8e-12 at A = 1e4).  The (n + 1/2) form is held to the same bound
    # at b = 0.  Its shift term b^2 g/f keeps that cancellation, g = f - omega0^2 a^4/4 of
    # two O(A^2) terms, so at b != 0 it is held to 32 A eps: the worst over this grid is
    # 15.5 A eps (6.9e-12 at omega0 = 1, A = 2000, b = 0.9 of its bound, n = 0)
    for A in (1.5, 2.7, 12.25, 60.0, 333.3, 2000.0, 1e4):
        for frac in (0.0, 0.3, -0.6, 0.9):
            p = OscillatorParams(omega0, A, frac * shift_bound(omega0, A))
            k = num_bound_states(p)
            for n in sorted({0, 1, k // 2, k - 1} & set(range(k))):
                want = mp_energy(omega0, A, p.b, n)
                assert abs(energy(p, n) - want) <= 1e-14 * abs(want)
                tol = 1e-14 if p.b == 0.0 else 32 * A * np.finfo(float).eps
                assert abs(energy_harmonic_form(p, n) - want) <= tol * abs(want)


def mp_unshifted_term(omega0, A, n):
    """(D - 1)/a^2 at 50 digits, D = (2n+1)A - n^2: E_n at b = 0, and the scale of E_n at any b."""
    with mp.workdps(50):
        w, A = mp.mpf(omega0), mp.mpf(A)
        a2 = 2 / w * mp.sqrt(A * (A + 1) - 2)
        return ((2 * n + 1) * A - n * n - 1) / a2


@st.composite
def _admitted_params(draw):
    # omega0 and A - 1 log-uniform, b zero or uniform in +-0.999 of its bound
    omega0 = 10.0 ** draw(st.floats(-3.0, 3.0))
    A = 1.0 + 10.0 ** draw(st.floats(-9.0, 4.0))
    frac = draw(st.one_of(st.just(0.0), st.floats(-0.999, 0.999)))
    return OscillatorParams(omega0, A, frac * shift_bound(omega0, A))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_admitted_params())
def test_energies_against_mpmath_over_the_admitted_space(p):
    # near A = 1, a half-width formed from A(A+1) - 2 loses eps/(A-1) of a and of every
    # energy.  At b != 0 the shift term cancels the unshifted one near the bound, so each energy is
    # held to its unshifted term (D - 1)/a^2, which is |E| at b = 0.  At most 40 levels of a
    # deep model are checked: the first 16, the last 16 and 8 between
    k = p.count
    assert k >= 1
    energies = p._spectrum()
    assert all(lo < hi for lo, hi in zip(energies, energies[1:]))
    levels = set(range(16)) | set(range(k - 16, k)) | set(range(0, k, max(1, k // 8)))
    for n in sorted(levels & set(range(k))):
        want = mp_energy(p.omega0, p.A, p.b, n)
        assert abs(energies[n] - want) <= 1e-14 * mp_unshifted_term(p.omega0, p.A, n), n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_admitted_params())
@example(OscillatorParams(1.0, 3.0))
@example(OscillatorParams(1.0, 2.0 + 1e-11))
@example(OscillatorParams(1.0, 1.0 + 1e-9))
@example(OscillatorParams(1.0, 3.0, 0.999 * shift_bound(1.0, 3.0)))
def test_levels_lie_inside_the_unshifted_well_window(p):
    # range(level_count(A, B)) lies inside the window of the unshifted well (A, 0), whose
    # floor a level's energy is taken from, so the scan takes its rows' energies ungated.
    # The map returns that count
    _, _, rm, count = pct.map_parameters(p.omega0, p.A, p.b)
    assert count == pct.level_count(p.A, rm.B)
    assert count <= rosen_morse.rm_nmax(rosen_morse.RosenMorseParams(p.A)) + 1


def _bits(values: list[float]) -> bytes:
    return np.array(values, dtype=float).tobytes()


@st.composite
def _well_and_levels(draw):
    # a well of the admitted space, shifted (B != 0 where b != 0) or unshifted with B = 0.0
    # or -0.0, and a range of levels inside its window
    p = draw(_admitted_params())
    A, B = p.rm.A, p.rm.B
    well = rosen_morse.RosenMorseParams(A, draw(st.sampled_from([B, 0.0, -0.0])))
    count = rosen_morse.rm_nmax(well) + 1
    i, j = sorted(draw(st.lists(st.integers(0, count), min_size=2, max_size=2)))
    return well, count, i, j


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_well_and_levels(), st.booleans())
def test_a_range_of_levels_is_its_levels_one_at_a_time(case, from_floor):
    well, count, i, j = case
    got = rosen_morse.rm_energy(well, range(i, j), from_floor=from_floor)
    want = [rosen_morse.rm_energy(well, n, from_floor=from_floor) for n in range(i, j)]
    assert _bits(got) == _bits(want)
    assert all(type(e) is float for e in got)
    assert rosen_morse.rm_energy(well, range(i, i), from_floor=from_floor) == []


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_well_and_levels(), st.integers(1, 3), st.booleans())
def test_a_range_with_an_end_out_of_the_window_gives_that_levels_message(case, past, from_floor):
    # only the range's first and last levels are checked; each is refused with the message
    # of the one-level call
    well, count, i, _ = case
    i = min(i, count - 1)
    for bad, levels in ((-past, range(-past, i)), (count - 1 + past, range(i, count + past))):
        with pytest.raises(NoSuchStateError) as one:
            rosen_morse.rm_energy(well, bad, from_floor=from_floor)
        with pytest.raises(NoSuchStateError) as many:
            rosen_morse.rm_energy(well, levels, from_floor=from_floor)
        assert str(many.value) == str(one.value)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_admitted_params())
def test_a_spectrum_in_one_call_is_its_energies_one_at_a_time(p):
    assert _bits(p._spectrum()) == _bits([energy(p, n) for n in range(p.count)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(-12.0, 12.0), st.floats(-12.0, 3.0), st.sampled_from([0.0, -0.0]))
@example(0.0, 0.0, 0.0)
@example(12.0, -12.0, -0.0)
@example(-12.0, 3.0, 0.0)
def test_an_unshifted_spectrum_is_the_two_term_sum(log_omega0, log_excess, b):
    # at b = 0 the spectrum skips the shift term, since x - 0.0 is x: every level keeps the
    # bits of the two-term sum (D - 1)/a^2 - b^2 (D - 2)/(A-n)^2, with D = (2n+1)A - n^2
    p = OscillatorParams(10.0**log_omega0, 1.0 + 10.0**log_excess, b)
    A, a2, b2 = p.A, p.a * p.a, p.b * p.b
    want = [
        (d - 1.0) / a2 - b2 * (d - 2.0) / ((A - n) * (A - n))
        for n, d in enumerate((2 * n + 1) * A - n * n for n in range(p.count))
    ]
    assert _bits(p._spectrum()) == _bits(want)


@st.composite
def _sampled_model(draw):
    # omega0 log-uniform, A - 1 log-uniform up to A = 150, b zero or within 0.9 of its bound;
    # points on the walls, within the wall margin, near the walls and inside
    omega0 = 10.0 ** draw(st.floats(-1.5, 1.5))
    A = 1.0 + 10.0 ** draw(st.floats(-6.0, math.log10(149.0)))
    frac = draw(st.one_of(st.just(0.0), st.floats(-0.9, 0.9)))
    p = OscillatorParams(omega0, A, frac * shift_bound(omega0, A))
    near = st.floats(0.5, 15.0).map(lambda e: 1.0 - 10.0 ** -e)
    t = draw(st.lists(st.one_of(near, st.floats(-1.0, 1.0), near.map(lambda v: -v)), max_size=12))
    return p, [-1.0, 1.0, -1.0 + 1e-13, 1.0 - 1e-13] + t


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_sampled_model())
def test_all_levels_at_once_are_the_levels_one_at_a_time(case):
    # each row of the one-pass evaluation is, byte for byte, its level's own wavefunction on
    # the same points, on both polynomial routes
    p, t = case
    x = p.a * np.array(t)
    rows = p._psi_rows(x)
    assert rows.shape == (p.count, x.size)
    for n, row in enumerate(rows):
        assert row.tobytes() == p._psi_of(n)(x).tobytes(), n


@st.composite
def _mirrored_models(draw):
    # omega0 in 1e-3 ... 1e3 and A - 1 in 1e-2 ... 10^2.5, both log-uniform, |b| up to 0.95
    # of its bound; points across the interval and toward both walls
    omega0 = 10.0 ** draw(st.floats(-3.0, 3.0))
    A = 1.0 + 10.0 ** draw(st.floats(-2.0, 2.5))
    b = draw(st.floats(-0.95, 0.95)) * shift_bound(omega0, A)
    near = st.floats(0.5, 12.0).map(lambda e: 1.0 - 10.0 ** -e)
    t = draw(st.lists(st.one_of(near, st.floats(-1.0, 1.0), near.map(lambda v: -v)), max_size=12))
    t = np.linspace(-1.0, 1.0, 33).tolist() + t
    return OscillatorParams(omega0, A, b), OscillatorParams(omega0, A, -b), t


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_mirrored_models())
def test_the_mirror_b_to_minus_b_reflects_every_state(case):
    # x -> -x with b -> -b leaves the model unchanged: every energy keeps its bits, and
    # psi_n(x) at -b is (-1)^n psi_n(-x) at b.  Over 3 300 random models of this space the
    # largest difference was 4.6e-12 of max|psi|, at A near 200
    p, q, t = case
    here, there = bound_states(p), bound_states(q)
    assert _bits([s.energy for s in there]) == _bits([s.energy for s in here])
    x = p.a * np.array(t)
    for s, r in zip(here, there):
        psi = s.wavefunction(x)
        tol = 1e-11 * np.max(np.abs(psi))
        assert np.max(np.abs(r.wavefunction(-x) - (-1) ** s.n * psi)) <= tol, s.n


@st.composite
def _scaled_models(draw):
    # the models of _mirrored_models and a scale factor lam in 1e-4 ... 1e4, log-uniform;
    # points across the interval and up to 1e-4 of either wall
    omega0 = 10.0 ** draw(st.floats(-3.0, 3.0))
    A = 1.0 + 10.0 ** draw(st.floats(-2.0, 2.5))
    b = draw(st.floats(-0.95, 0.95)) * shift_bound(omega0, A)
    lam = 10.0 ** draw(st.floats(-4.0, 4.0))
    near = st.floats(0.5, 4.0).map(lambda e: 1.0 - 10.0 ** -e)
    inside = st.floats(-0.9999, 0.9999)
    t = draw(st.lists(st.one_of(near, inside, near.map(lambda v: -v)), max_size=12))
    t = np.linspace(-1.0, 1.0, 33)[1:-1].tolist() + t
    scaled = OscillatorParams(lam * omega0, A, math.sqrt(lam) * b)
    return OscillatorParams(omega0, A, b), scaled, lam, t


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_scaled_models())
def test_the_scaling_omega0_to_lam_omega0_scales_every_state(case):
    # omega0 -> lam omega0 with b -> sqrt(lam) b keeps A and b/shift_bound: a -> a/sqrt(lam),
    # E_n -> lam E_n and psi_n(x) -> lam^(1/4) psi_n(sqrt(lam) x).  Over 6 300 random models
    # of this space the largest differences were 4.4e-16 in a, 3.2 A eps in E and 6.4e-11
    # of max|psi|, at A near 280
    p, q, lam, t = case
    a_p, a_q = p.a, q.a
    assert abs(math.sqrt(lam) * a_q - a_p) <= 1e-15 * a_p
    here, there = bound_states(p), bound_states(q)
    assert len(here) == len(there)
    eps = np.finfo(float).eps
    for s, r in zip(here, there):
        assert abs(r.energy - lam * s.energy) <= 8.0 * p.A * eps * abs(lam * s.energy), s.n
    x = a_q * np.array(t)
    for s, r in zip(here, there):
        psi = lam**0.25 * s.wavefunction(math.sqrt(lam) * x)
        tol = 2e-10 * np.max(np.abs(psi))
        assert np.max(np.abs(r.wavefunction(x) - psi)) <= tol, s.n


def test_energy_takes_each_level_from_rm_energy_once(monkeypatch):
    # pin: one energy reads the reference well's level through rm_energy's gate, as a
    # one-level range; the bound states take their spectrum ungated, with no rm_energy call
    calls = []

    def counted(p, n, **kw):
        calls.append(n)
        return rosen_morse.rm_energy(p, n, **kw)

    monkeypatch.setattr(oscillator, "rm_energy", counted)
    p = OscillatorParams(1.0, 5.3, 0.2)
    energy(p, 2)
    assert calls == [range(2, 3)]
    bound_states(p)
    assert calls == [range(2, 3)]


@pytest.mark.parametrize("omega0", [1e155, 1e200])
def test_energy_two_forms_agree_at_large_frequency(omega0):
    # omega0^2 overflows a float here; omega0 a^2 = 2 sqrt(A(A+1) - 2) does not
    for frac in (0.0, 0.5):
        p = OscillatorParams(omega0, 3.0, frac * shift_bound(omega0, 3.0))
        for n in range(num_bound_states(p)):
            e1 = energy(p, n)
            e2 = energy_harmonic_form(p, n)
            assert math.isfinite(e1)
            assert abs(e1 - e2) <= 1e-14 * abs(e1)


def test_energy_increasing():
    for p in (OscillatorParams(1.0, 5.3), OscillatorParams(2.0, 4.0, 0.3)):
        es = [energy(p, n) for n in range(num_bound_states(p))]
        assert all(lo < hi for lo, hi in zip(es, es[1:]))


def test_energy_rejects_out_of_window():
    p = OscillatorParams(1.0, 2.0)
    with pytest.raises(NoSuchStateError):
        energy(p, 1)


def test_harmonic_limit():
    p = OscillatorParams(1.0, 1.0e4)
    for n in range(4):
        assert abs(energy(p, n) / (n + 0.5) - 1.0) < 0.01


# --- wavefunctions ---


def test_ground_state_center_value():
    p = OscillatorParams(1.0, 2.0)
    assert math.isclose(wavefunction(p, 0, 0.0), math.sqrt(3.0 / 8.0), rel_tol=1e-13)


def test_odd_state_center_zero():
    p = OscillatorParams(1.0, 3.0)
    assert abs(wavefunction(p, 1, 0.0)) < 1e-13


def test_shifted_ground_state_normalized():
    p = OscillatorParams(1.0, 3.0, 0.1)
    a = confinement_length(1.0, 3.0)
    f = lambda x: wavefunction(p, 0, x)
    assert abs(quad_x(f, f, a) - 1.0) < 1e-9


def test_shifted_peak_moves_with_shift():
    p = OscillatorParams(1.0, 3.0, 0.1)
    assert wavefunction(p, 0, 0.2) > wavefunction(p, 0, -0.2)


def test_boundary_evaluates_to_exact_zero():
    p = OscillatorParams(1.0, 2.0)
    a = confinement_length(1.0, 2.0)
    assert wavefunction(p, 0, a) == 0.0
    assert wavefunction(p, 0, -a * (1.0 - 1e-13)) == 0.0


def test_rejects_beyond_boundary():
    p = OscillatorParams(1.0, 2.0)
    with pytest.raises(DomainError):
        wavefunction(p, 0, 2.0000001)


def test_rejects_out_of_window_state():
    p = OscillatorParams(1.0, 2.0)
    with pytest.raises(NoSuchStateError):
        wavefunction(p, 1, 0.5)


def test_unknown_form_rejected_everywhere():
    # the form is checked before the wall shortcut, so x = a raises too
    p = OscillatorParams(1.0, 3.0)
    a, _, rm, _ = pct.map_parameters(1.0, 3.0)
    for x in (0.3, a, -a):
        with pytest.raises(ParameterError, match="form"):
            wavefunction(p, 1, x, form="legendre")
    with pytest.raises(ParameterError, match="form"):
        rm_wavefunction(rm, 1, 0.3, form="legendre")


def test_route_equality_at_zero_shift():
    rng = random.Random(23)
    for A in (2.0, 3.0, 4.5):
        p = OscillatorParams(1.0, A)
        a = confinement_length(1.0, A)
        for n in range(num_bound_states(p)):
            for _ in range(50):
                x = rng.uniform(-0.98, 0.98) * a
                g = wavefunction(p, n, x, form="gegenbauer")
                j = wavefunction(p, n, x, form="jacobi")
                assert abs(g - j) <= 1e-11 * max(abs(g), abs(j), 1e-3)


def test_orthonormality_random_parameters():
    # the quadrature rule converges algebraically in the endpoint exponent
    # of psi^2, not spectrally, so states hugging the wall (exponent below
    # 1/2) get a looser certificate; A stays above 1.6 for the same reason
    rng = random.Random(41)
    for _ in range(6):
        omega0 = rng.uniform(0.5, 2.5)
        A = rng.uniform(1.6, 6.0)
        b = rng.uniform(-0.7, 0.7) * shift_bound(omega0, A)
        p = OscillatorParams(omega0, A, b)
        a = confinement_length(omega0, A)
        rm = pct.map_parameters(omega0, A, b)[2]
        k = num_bound_states(p)

        def exponent(n):
            depth = rm.A - n
            return (depth - 1.0 - abs(rm.B) / depth) / 2.0

        for m in range(k):
            fm = lambda x: wavefunction(p, m, x)
            for n in range(m, k):
                fn = lambda x: wavefunction(p, n, x)
                want = 1.0 if m == n else 0.0
                tol = 1e-8 if min(exponent(m), exponent(n)) >= 0.5 else 5e-7
                assert abs(quad_x(fm, fn, a, size=800) - want) < tol


@pytest.mark.parametrize("omega0,A,b", [(1.0, 2.0, 0.0), (1.0, 3.5, 0.0), (1.0, 4.0, -0.3)])
def test_node_counts(omega0, A, b):
    p = OscillatorParams(omega0, A, b)
    a = confinement_length(omega0, A)
    m = 3001
    grid = [-0.999 * a + 1.998 * a * i / (m - 1) for i in range(m)]
    for st in bound_states(p):
        vals = [st.wavefunction(x) for x in grid]
        top = max(abs(v) for v in vals)
        signs = [v for v in vals if abs(v) > 1e-9 * top]
        flips = sum(1 for lo, hi in zip(signs, signs[1:]) if (lo > 0) != (hi > 0))
        assert flips == st.n


def test_boundary_decay_exponent():
    # log-log slope of |psi| against s = 1 - x^2/a^2 near the wall
    for A, n in [(2.0, 0), (3.0, 0), (3.0, 1), (4.5, 0)]:
        p = OscillatorParams(1.0, A)
        a = confinement_length(1.0, A)
        s1, s2 = 1e-5, 1e-7
        slopes = []
        for side in (1.0, -1.0):
            x1 = side * a * math.sqrt(1.0 - s1)
            x2 = side * a * math.sqrt(1.0 - s2)
            slope = (
                math.log(abs(wavefunction(p, n, x1)))
                - math.log(abs(wavefunction(p, n, x2)))
            ) / (math.log(s1) - math.log(s2))
            slopes.append(slope)
        want = (A - n - 1) / 2.0
        for slope in slopes:
            assert abs(slope - want) < 0.02 * want


def test_wall_accuracy_against_mpmath():
    # the reference takes the program's own rounded a and B: rounding a alone
    # moves psi by about (A-n)/2 eps / (1 - |x/a|), which is conditioning of
    # the inputs, not error of the evaluation
    for omega0, A, frac in [(1.0, 12.15, 0.0), (0.8, 59.3, 0.0), (1.3, 27.6, 0.4), (0.9, 58.7, 0.3)]:
        b = frac * shift_bound(omega0, A)
        p = OscillatorParams(omega0, A, b)
        a, _, rm, k = pct.map_parameters(omega0, A, b)
        for n in sorted({0, 1, k // 2, k - 1}):
            for gap in WALL_GAPS:
                x = math.copysign(a * (1.0 - abs(gap)), gap)
                want = mp_psi(a, rm.A, rm.B, n, x)
                got = wavefunction(p, n, x)
                assert abs(got - want) <= 1e-12 * abs(want), (omega0, A, b, n, gap)


def test_quantized_case_wall_accuracy_against_mpmath():
    for omega0, l in [(1.0, 40), (0.7, 13)]:
        a = confinement_length(omega0, float(l))
        states = jafarov_case(omega0, l)
        for n in (0, 1, l // 2, l - 2):
            for gap in WALL_GAPS:
                x = math.copysign(a * (1.0 - abs(gap)), gap)
                want = mp_psi(a, float(l), 0.0, n, x)
                got = states[n].wavefunction(x)
                assert abs(got - want) <= 1e-12 * abs(want), (omega0, l, n, gap)


def test_bound_states_assembly():
    p = OscillatorParams(1.0, 3.0, 0.1)
    states = bound_states(p)
    assert [s.n for s in states] == [0, 1]
    assert isinstance(states[0], BoundState)
    assert states[1].energy == energy(p, 1)
    assert states[0].wavefunction(0.4) == wavefunction(p, 0, 0.4)
    # both polynomial routes, at interior, near-wall and wall points: the
    # same bits as the scalar API
    models = [
        OscillatorParams(0.7, 9.3),
        OscillatorParams(1.4, 25.6, -0.3 * shift_bound(1.4, 25.6)),
        OscillatorParams(2.0, 14.0),
    ]
    for p in models:
        a = confinement_length(p.omega0, p.A)
        fracs = (-1.0, -(1.0 - 1e-13), -(1.0 - 1e-8), -0.61, 0.0, 0.37, 1.0 - 1e-5, 1.0)
        states = bound_states(p)
        assert len(states) == num_bound_states(p)
        for s in states:
            assert s.energy == energy(p, s.n)
            for f in fracs:
                assert s.wavefunction(f * a) == wavefunction(p, s.n, f * a)


def test_bound_states_derive_once(count_calls):
    # the one map is the constructor's
    count_calls(pct, "map_parameters")
    calls = count_calls(rosen_morse, "ln_gamma")
    for args in [(0.9, 7.4, 0.2), (1.0, 5.5)]:
        calls.update(map_parameters=0, ln_gamma=0)
        states = bound_states(OscillatorParams(*args))
        assert calls["map_parameters"] == 1
        calls.update(map_parameters=0, ln_gamma=0)
        for s in states:
            for x in (-1.3, 0.0, 0.45, 2.1):
                s.wavefunction(x)
        assert calls == {"map_parameters": 0, "ln_gamma": 0}


# --- quantized special case ---


def test_quantized_case_minimal():
    states = jafarov_case(1.0, 2)
    assert len(states) == 1
    assert math.isclose(states[0].energy, 0.25, rel_tol=1e-12)


def test_quantized_case_explicit_arithmetic():
    # (5/4)(1/2) - 1/16 - 5/16 with w a^2 = 4
    want = 1.25 * 0.5 - 1.0 / 16.0 - 5.0 / 16.0
    assert want == 0.25
    assert math.isclose(jafarov_case(1.0, 2)[0].energy, want, rel_tol=1e-12)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_quantized_case_matches_general_solver(l):
    states = jafarov_case(1.0, l)
    p = OscillatorParams(1.0, float(l))
    assert len(states) == num_bound_states(p)
    a = confinement_length(1.0, float(l))
    for st in states:
        e_general = energy(p, st.n)
        assert abs(st.energy - e_general) <= 1e-12 * abs(e_general)
        for x in (-0.7 * a, -0.2 * a, 0.33 * a, 0.81 * a):
            got = st.wavefunction(x)
            want = wavefunction(p, st.n, x)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1e-8)


def test_quantized_case_deep_well_normalization():
    # the factorial ratios in the normalization leave the float range from
    # l ~ 90; the ground state must still match the general route
    l = 100
    got = jafarov_case(1.0, l)[0].wavefunction(0.0)
    want = wavefunction(OscillatorParams(1.0, float(l)), 0, 0.0)
    assert want > 0.5
    assert math.isclose(got, want, rel_tol=1e-12)


@pytest.mark.parametrize("l", [2, 3, 10, 150, 151, 400, 1000])
def test_quantized_norms_equal_the_factorial_formula_bit_for_bit(l):
    # the running integers divide the same numerator and denominator as the
    # four factorials, so the one rounding of int / int gives the same floats
    a = confinement_length(1.0, float(l))
    want = []
    for n in range(l - 1):
        lead = math.factorial(2 * l - 2 * n) // (2 ** (l - n) * math.factorial(l - n))
        sq = lead * lead * (l - n) * math.factorial(n) / math.factorial(2 * l - n)
        want.append(math.sqrt(sq / a))
    got = oscillator._jafarov_levels(1.0, l)
    assert got[0] == a
    assert [norm for _, norm in got[1]] == want


def test_quantized_case_rejections():
    with pytest.raises(ParameterError):
        jafarov_case(1.0, 1)
    with pytest.raises(ParameterError):
        jafarov_case(1.0, 2.5)
    with pytest.raises(ParameterError):
        jafarov_case(0.0, 3)
    # the integer-l route's own omega0 check: True read as 1.0 gave 2 states
    for omega0 in (True, False):
        with pytest.raises(ParameterError, match="omega0 must be a number, not a bool"):
            jafarov_case(omega0, 3)


# --- states on arrays ---

ARRAY_MODELS = [
    OscillatorParams(1.0, 6.4),
    OscillatorParams(0.8, 9.7, 0.3),
    OscillatorParams(1.3, 4.0, -0.2 * shift_bound(1.3, 4.0)),
]


def _array_points(a):
    # interior, wall and near-wall points, in a 2-D shape
    inner = [f * a for f in (-0.97, -0.61, -0.2, 0.0, 0.13, 0.5, 0.88, 0.999)]
    walls = [a, -a, a * (1.0 - 1e-13), -a * (1.0 - 5e-13)]
    return np.array(inner + walls).reshape(3, 4)


def _state_families():
    # (name, state wavefunction or API call, half-width) for every route
    for p in ARRAY_MODELS:
        a = confinement_length(p.omega0, p.A)
        for s in bound_states(p):
            yield f"bound_states {p} n={s.n}", s.wavefunction, a
            yield f"wavefunction {p} n={s.n}", partial(wavefunction, p, s.n), a
        if p.b == 0.0:
            yield f"jacobi form {p}", partial(wavefunction, p, 1, form="jacobi"), a
    for l in (2, 5, 9):
        a = math.sqrt(2.0) * (l * (l + 1) - 2) ** 0.25
        for s in jafarov_case(1.0, l):
            yield f"jafarov_case l={l} n={s.n}", s.wavefunction, a


def test_float_in_float_out():
    for name, f, a in _state_families():
        assert type(f(0.3 * a)) is float, name
        assert type(f(a)) is float, name
    rm = pct.map_parameters(0.8, 9.7, 0.3)[2]
    assert type(rm_wavefunction(rm, 2, 0.4)) is float
    assert all(type(s.wavefunction(-1.1)) is float for s in rosen_morse.rm_bound_states(rm))


def test_array_entries_equal_point_calls_bit_for_bit():
    for name, f, a in _state_families():
        xs = _array_points(a)
        got = f(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape, name
        want = [[f(x) for x in row] for row in xs.tolist()]
        assert got.tolist() == want, name


def test_well_states_on_arrays_equal_point_calls_bit_for_bit():
    us = np.array([-400.0, -9.5, -0.8, 0.0, 0.7, 3.3, 12.0, 400.0]).reshape(2, 2, 2)
    for p in (rosen_morse.RosenMorseParams(4.0, -2.0), rosen_morse.RosenMorseParams(6.3)):
        for s in rosen_morse.rm_bound_states(p):
            for f in (s.wavefunction, partial(rm_wavefunction, p, s.n)):
                got = f(us)
                assert got.shape == us.shape
                assert got.tolist() == [[[f(u) for u in r] for r in m] for m in us.tolist()]


def test_wall_entries_are_exactly_zero():
    for name, f, a in _state_families():
        vals = f(np.array([a, -a, a * (1.0 - 1e-13), -a * (1.0 - 9e-13), 0.5 * a]))
        assert vals[:4].tolist() == [0.0] * 4, name
        assert all(math.copysign(1.0, v) == 1.0 for v in vals[:4]), name
        assert vals[4] != 0.0, name


def test_one_bad_entry_rejects_the_array():
    for name, f, a in _state_families():
        for bad in (math.nan, math.inf, -math.inf, a * (1.0 + 1e-9), -2.0 * a):
            xs = np.array([0.1 * a, bad, -0.3 * a])
            with pytest.raises(DomainError):
                f(xs)
    rm = rosen_morse.RosenMorseParams(4.0, -2.0)
    with pytest.raises(DomainError):
        rm_wavefunction(rm, 1, np.array([0.2, math.nan]))
    with pytest.raises(DomainError):
        rosen_morse.rm_bound_states(rm)[0].wavefunction(np.array([[0.0, -math.inf]]))


def test_empty_array_gives_empty_array():
    p = ARRAY_MODELS[1]
    assert wavefunction(p, 0, np.array([])).shape == (0,)


def test_deep_model_point_emits_no_warning():
    # at A = 1e4, n = 299 the polynomial overflows where the envelope
    # underflows (a known NaN); neither the point nor the array path warns
    p = OscillatorParams(1.0, 1e4)
    a = confinement_length(1.0, 1e4)
    rm = pct.map_parameters(1.0, 1e4)[2]
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        wavefunction(p, 299, 0.3 * a)
        wavefunction(p, 299, np.array([0.3 * a, a, -0.999 * a]))
        rm_wavefunction(rm, 299, 0.3)
        rm_wavefunction(rm, 299, np.array([0.3, -800.0]))
