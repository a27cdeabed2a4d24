"""Finite-difference eigensolver: stencil, Sturm bisection, eigenvectors.

Reference values are particle-in-a-box closed forms, hand-diagonalized 3x3
matrices, and the analytic spectra the solver is meant to reproduce; scipy's
tridiagonal eigensolver gives an extra independent check.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmosc import cli, oracle, oscillator, pct
from pdmosc.errors import ConvergenceError, DomainError, ParameterError
from pdmosc.oracle import (
    Grid1D,
    SineGrid,
    TridiagonalOperator,
    _gershgorin,
    _sturm_count,
    discretize_bdd,
    eigenvalues_sturm,
    eigenvector,
    overlap,
    solve_constant_mass_numeric,
    solve_pdm_numeric,
)
from pdmosc.oscillator import (
    OscillatorParams,
    confinement_length,
    energy,
    num_bound_states,
    wavefunction,
)
from pdmosc.rosen_morse import RosenMorseParams

ONE = lambda x: 1.0
ZERO = lambda x: 0.0


def pdm_mass_and_potential(p):
    a, _, _ = pct.map_parameters(p.omega0, p.A, p.b)
    prof = pct.MassProfile(a)
    x0 = 2.0 * p.b / p.omega0
    pot = lambda x: 0.25 * p.omega0**2 * (x - x0) ** 2
    return a, (lambda x: pct.mass(prof, x)), pot


# --- Grid1D ---


def test_grid_geometry():
    g = Grid1D(0.0, 4.0, 3)
    assert g.h == 1.0
    assert list(g.nodes()) == [1.0, 2.0, 3.0]
    assert list(g.half_nodes()) == [0.5, 1.5, 2.5, 3.5]


def test_grid_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ParameterError):
        Grid1D(1.0, 1.0, 10)


def test_sine_grid_geometry():
    # the points of Grid1D(-1, 1, n) through t = sin(pi s/2), with dt/ds as the Jacobian
    g = SineGrid(3)
    assert isinstance(g, Grid1D) and (g.lo, g.hi, g.n) == (-1.0, 1.0, 3)
    assert g.h == Grid1D(-1.0, 1.0, 3).h == 0.5
    s = np.array([-0.5, 0.0, 0.5])
    jac, jac_h = g._map(g._s(1.0, 3))[1], g._map(g._s(0.5, 4))[1]
    assert g.nodes().tolist() == np.sin(0.5 * math.pi * s).tolist()
    assert jac.tolist() == ((0.5 * math.pi) * np.cos(0.5 * math.pi * s)).tolist()
    sh = np.array([-0.75, -0.25, 0.25, 0.75])
    assert g.half_nodes().tolist() == np.sin(0.5 * math.pi * sh).tolist()
    assert jac_h.tolist() == ((0.5 * math.pi) * np.cos(0.5 * math.pi * sh)).tolist()
    with pytest.raises(ParameterError):
        SineGrid(2)
    with pytest.raises(ParameterError):
        SineGrid(10.5)


@pytest.mark.parametrize("n", [3, 8, 641, 1282])
def test_sine_grid_points_are_exact_mirror_pairs(n):
    # so that an even mass and potential assemble to an operator that reads the same reversed
    g = SineGrid(n)
    for x in (g.nodes(), g.half_nodes()):
        assert x.tolist() == (-x[::-1]).tolist()
    for jac in (g._map(g._s(1.0, n))[1], g._map(g._s(0.5, n + 1))[1]):
        assert jac.tolist() == jac[::-1].tolist()
    op = discretize_bdd(lambda t: pct.mass(pct.MassProfile(1.0), t), lambda t: 3.0 * t * t, g)
    assert op.diag.tolist() == op.diag[::-1].tolist()
    assert op.off.tolist() == op.off[::-1].tolist()


# --- discretize_bdd ---


def test_unit_laplacian_stencil():
    op = discretize_bdd(ONE, ZERO, Grid1D(0.0, 4.0, 3))
    assert list(op.diag) == [2.0, 2.0, 2.0]
    assert list(op.off) == [-1.0, -1.0]


def test_each_callable_is_called_once_on_the_node_arrays():
    g = Grid1D(-1.0, 2.0, 40)
    seen = {"mass": [], "potential": []}

    def mass_fn(x):
        seen["mass"].append(x.copy())
        return 1.0 + x * x

    def potential_fn(x):
        seen["potential"].append(x.copy())
        return 3.0 * x

    op = discretize_bdd(mass_fn, potential_fn, g)
    assert [len(v) for v in seen.values()] == [1, 1]
    assert seen["mass"][0].tolist() == g.half_nodes().tolist()
    assert seen["potential"][0].tolist() == g.nodes().tolist()
    w = 1.0 / (1.0 + g.half_nodes() ** 2)
    h2 = g.h * g.h
    assert op.diag.tolist() == ((w[:-1] + w[1:]) / h2 + 3.0 * g.nodes()).tolist()
    assert op.off.tolist() == (-w[1:-1] / h2).tolist()


def test_uniform_grid_and_constant_mass_report_keep_the_x_stencil_bit_for_bit():
    # pin: on a Grid1D the Jacobian is 1 and the assembly is the plain stencil
    # (1/M_{i-1/2} + 1/M_{i+1/2})/h^2 + V_i and -1/M_{i+1/2}/h^2, and the
    # constant-mass report, which runs on Grid1Ds, keeps its bits
    g = Grid1D(-3.0, 2.0, 57)
    mass_fn = lambda x: 1.0 + 0.3 * np.cos(x)
    op = discretize_bdd(mass_fn, lambda x: x * x, g)
    w = 1.0 / mass_fn(g.half_nodes())
    h2 = g.h * g.h
    assert op.diag.tolist() == ((w[:-1] + w[1:]) / h2 + g.nodes() ** 2).tolist()
    assert op.off.tolist() == (-w[1:-1] / h2).tolist()
    rep = solve_constant_mass_numeric(RosenMorseParams(2.5, 1.5), 25.0, 2, 600, estimate_order=True)
    assert [v.hex() for v in rep.numeric] == ["-0x1.a70a39c1911d6p+2", "-0x1.9fffe3e595306p+1"]
    assert [v.hex() for v in rep.order] == ["0x1.00fe58de7411bp+1", "0x1.037057921fa9cp+1"]
    assert rep.spacings == (50.0 / 301.0, 50.0 / 601.0, 50.0 / 1201.0)


def test_sine_grid_operator_is_the_weighted_stencil():
    # G^-1/2 K G^-1/2 with K = -d/ds (1/(M J)) d/ds + J V and G = diag(J)
    g = SineGrid(40)
    mass_fn = lambda x: 1.0 + x * x
    op = discretize_bdd(mass_fn, lambda x: 2.0 * x, g)
    J, Jh = g._map(g._s(1.0, g.n))[1], g._map(g._s(0.5, g.n + 1))[1]
    w = 1.0 / (mass_fn(g.half_nodes()) * Jh)
    h2 = g.h * g.h
    assert np.allclose(op.diag, (w[:-1] + w[1:]) / (h2 * J) + 2.0 * g.nodes(), rtol=1e-15)
    assert np.allclose(op.off, -w[1:-1] / (h2 * np.sqrt(J[:-1] * J[1:])), rtol=1e-15)


def test_box_ground_energy():
    g = Grid1D(0.0, math.pi, 999)
    op = discretize_bdd(ONE, ZERO, g)
    (lam,) = eigenvalues_sturm(op, 1)
    assert abs(lam - 1.0) < 1e-5


def test_rejects_nonfinite_samples():
    g = Grid1D(-1.0, 1.0, 50)
    bad_pot = lambda x: np.where(abs(x) < 0.1, np.nan, 0.0)
    with pytest.raises(DomainError):
        discretize_bdd(ONE, bad_pot, g)
    bad_mass = lambda x: np.where(x > 0.9, np.nan, 1.0)
    with pytest.raises(DomainError):
        discretize_bdd(bad_mass, ZERO, g)


def test_residual_second_order_in_interior():
    # H psi_0 - E_0 psi_0 at sampled analytic psi_0: sup over |x| <= 0.9a
    # shrinks by ~4x per grid doubling; rows at the wall do not (the
    # s^(1/2) envelope has unbounded derivatives there)
    p = OscillatorParams(1.0, 2.0)
    a, mass_fn, pot = pdm_mass_and_potential(p)
    e0 = 0.25
    sup_in, sup_all = [], []
    for n in (250, 500, 1000):
        g = Grid1D(-a, a, n)
        op = discretize_bdd(mass_fn, pot, g)
        xs = g.nodes()
        psi = [wavefunction(p, 0, x) for x in xs]
        res = op.apply(psi)
        top = max(abs(v) for v in psi)
        r_in = max(
            abs(r - e0 * v) for x, r, v in zip(xs, res, psi) if abs(x) <= 0.9 * a
        )
        r_all = max(abs(r - e0 * v) for r, v in zip(res, psi))
        sup_in.append(r_in / top)
        sup_all.append(r_all / top)
    assert 3.4 < sup_in[0] / sup_in[1] < 4.6
    assert 3.4 < sup_in[1] / sup_in[2] < 4.6
    assert sup_all[0] / sup_all[1] < 2.5


# --- eigenvalues_sturm ---


def test_three_point_laplacian_spectrum():
    op = TridiagonalOperator((2.0, 2.0, 2.0), (-1.0, -1.0))
    lams = eigenvalues_sturm(op, 3)
    want = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    for got, w in zip(lams, want):
        assert abs(got - w) < 1e-12


def test_diagonal_operator_spectrum():
    op = TridiagonalOperator((3.0, 1.0, 2.0), (0.0, 0.0))
    lams = eigenvalues_sturm(op, 3)
    for got, w in zip(lams, [1.0, 2.0, 3.0]):
        assert abs(got - w) < 1e-12


def test_box_first_three_levels():
    g = Grid1D(0.0, math.pi, 999)
    op = discretize_bdd(ONE, ZERO, g)
    lams = eigenvalues_sturm(op, 3)
    for got, w in zip(lams, [1.0, 4.0, 9.0]):
        assert abs(got - w) / w < 1e-4


def test_sturm_counts_monotone():
    op = discretize_bdd(ONE, ZERO, Grid1D(0.0, math.pi, 60))
    d = list(op.diag)
    e2 = [v * v for v in op.off]
    pivmin = 2.3e-308 * max(1.0, max(e2))
    lo, hi = _gershgorin(op)
    lams = [lo + (hi - lo) * i / 40.0 for i in range(41)]
    counts = [_sturm_count(d, e2, lam, pivmin) for lam in lams]
    assert counts[0] == 0
    assert counts[-1] == op.size
    assert all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))


def _laplacian_shifts(n=7):
    # tridiag(-1, 2, -1) has levels 2 - 2cos(k pi/(n + 1)), k = 1..n: a shift below them all,
    # one midway between each pair and one above them all has count 0, 1, ..., n
    levels = [2.0 - 2.0 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)]
    cuts = [-1.0] + [0.5 * (u + v) for u, v in zip(levels, levels[1:])] + [5.0]
    return [([2.0] * n, [1.0] * (n - 1), lam, count) for count, lam in enumerate(cuts)]


def test_a_capped_count_is_the_count_up_to_its_cap():
    # the pass stops at the first row that takes the count above cap, so it returns cap + 1
    for d, e2, lam, want in _laplacian_shifts():
        assert _sturm_count(d, e2, lam, 2.3e-308) == want
        for cap in range(len(d) + 2):
            assert _sturm_count(d, e2, lam, 2.3e-308, cap) == min(want, cap + 1)


def test_negative_pivots_number_the_sturm_count():
    # and a zero pivot, at row 1 of [[1, 1, 0], [1, 1, 1], [0, 1, 1]] shifted by 0: its one
    # level below 0 is 1 - sqrt(2)
    for d, e2, lam, want in _laplacian_shifts() + [([1.0] * 3, [1.0] * 2, 0.0, 1)]:
        pivots = oracle._pivots(d, e2, lam, 2.3e-308)
        assert sum(q < 0.0 for q in pivots) == _sturm_count(d, e2, lam, 2.3e-308) == want


def test_eigenvalues_rejects_bad_k():
    op = TridiagonalOperator((2.0, 2.0), (-1.0,))
    with pytest.raises(ParameterError):
        eigenvalues_sturm(op, 0)
    with pytest.raises(ParameterError):
        eigenvalues_sturm(op, 3)


def test_against_scipy_tridiagonal():
    p = OscillatorParams(1.0, 3.0, 0.1)
    a, mass_fn, pot = pdm_mass_and_potential(p)
    op = discretize_bdd(mass_fn, pot, Grid1D(-a, a, 400))
    mine = eigenvalues_sturm(op, 6)
    ref = scipy.linalg.eigvalsh_tridiagonal(list(op.diag), list(op.off))[:6]
    scale = max(abs(v) for v in ref)
    for got, w in zip(mine, ref):
        assert abs(got - w) < 1e-10 * scale


@pytest.mark.parametrize("p", [OscillatorParams(1.0, 3.25), OscillatorParams(0.7, 12.6, -0.3)])
def test_sine_grid_operator_against_scipy(p):
    # the x-space operator in t = x/a: d/dx = (1/a) d/dt puts a^2 on the mass
    a, mass_fn, pot = pdm_mass_and_potential(p)
    op = discretize_bdd(lambda t: (a * a) * mass_fn(a * t), lambda t: pot(a * t), SineGrid(500))
    k = num_bound_states(p)
    mine = eigenvalues_sturm(op, k)
    ref = scipy.linalg.eigvalsh_tridiagonal(op.diag, op.off, select="i", select_range=(0, k - 1))
    for got, w in zip(mine, ref):
        assert abs(got - w) <= 1e-11 * max(1.0, abs(w))


def test_wilkinson_w21_plus_against_scipy():
    # diag |10 - i|, unit off-diagonal: the top pairs agree to ~1e-14
    op = TridiagonalOperator([abs(10.0 - i) for i in range(21)], [1.0] * 20)
    mine = eigenvalues_sturm(op, 21)
    ref = scipy.linalg.eigvalsh_tridiagonal(list(op.diag), list(op.off))
    for got, w in zip(mine, ref):
        assert abs(got - w) <= 1e-12 * max(1.0, abs(w))


def test_diagonal_operator_repeated_eigenvalue():
    op = TridiagonalOperator((2.0, 1.0, 2.0, 3.0, 2.0), (0.0, 0.0, 0.0, 0.0))
    lams = eigenvalues_sturm(op, 5)
    for got, w in zip(lams, [1.0, 2.0, 2.0, 2.0, 3.0]):
        assert abs(got - w) <= 1e-12


def pdm_operator(p, n):
    a, mass_fn, pot = pdm_mass_and_potential(p)
    return discretize_bdd(mass_fn, pot, Grid1D(-a, a, n))


def test_sturm_counts_certify_every_level():
    op = pdm_operator(OscillatorParams(1.0, 6.5, 0.2), 1200)
    d = list(op.diag)
    e2 = [v * v for v in op.off]
    pivmin = 2.3e-308 * max(1.0, max(e2))
    lams = eigenvalues_sturm(op, 6)
    for j, lam in enumerate(lams, start=1):
        t = 1e-12 * max(1.0, abs(lam))
        assert _sturm_count(d, e2, lam - t, pivmin) < j <= _sturm_count(d, e2, lam + t, pivmin)


def test_starts_change_no_result():
    p = OscillatorParams(1.0, 5.5, -0.1)
    k = 5
    coarse = eigenvalues_sturm(pdm_operator(p, 600), k)
    op = pdm_operator(p, 1200)
    plain = eigenvalues_sturm(op, k)
    lo, hi = _gershgorin(op)
    nan, inf = float("nan"), float("inf")
    for starts in (
        coarse,
        plain,
        plain[::-1],  # each start is another level's eigenvalue
        [plain[0]] * k,
        [lo - 1.0, hi + 1.0, nan, inf, -inf],  # outside every bracket
    ):
        seeded = eigenvalues_sturm(op, k, starts=starts)
        for got, want in zip(seeded, plain):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_newton_and_starts_cut_the_passes(monkeypatch):
    # bisection alone from the Gershgorin bounds makes about 50 Sturm
    # passes per level on this operator
    passes = []
    for name in ("_sturm_count", "_sturm_newton"):
        fn = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *a, fn=fn: passes.append(1) or fn(*a))
    p = OscillatorParams(1.0, 5.5, -0.1)
    k = 5
    coarse = eigenvalues_sturm(pdm_operator(p, 600), k)
    assert len(passes) <= 20 * k
    passes.clear()
    eigenvalues_sturm(pdm_operator(p, 1200), k, starts=coarse)
    assert len(passes) <= 10 * k


@pytest.fixture
def sturm_rows(monkeypatch):
    # the matrix rows every Sturm pass walks, by kind: a Newton pass walks all of them, and a
    # count stops at the row where it passes its cap.  A Newton row costs about twice a count
    # row in pure Python
    rows = {"newton": 0, "count": 0}
    for name, kind in (("_sturm_count", "count"), ("_sturm_newton", "newton")):
        fn = getattr(oracle, name)

        def counted(d, e2, *args, fn=fn, kind=kind):
            def walk():
                for v in e2:
                    rows[kind] += 1
                    yield v

            rows[kind] += 1
            return fn(d, walk(), *args)

        monkeypatch.setattr(oracle, name, counted)
    return rows


def test_start_chain_cuts_the_sturm_rows(sturm_rows):
    # pre-grids and starts on the h^2 line through the two grids before:
    # 534 000 rows when each grid started from the previous one alone, on
    # grids uniform in x; 404 750 on the sine-mapped grids with one pre-grid
    solve_pdm_numeric(OscillatorParams(1.0, 12.25), 12, 2000, estimate_order=True)
    assert sum(sturm_rows.values()) <= 450_000


def test_default_verify_grid_cuts_the_sturm_rows(sturm_rows, capsys):
    # 425 500 rows on the --grid 2000 that verify used by default on a grid uniform in x;
    # 102 131 on its sine-mapped grids with one pre-grid and counts that walk every row
    assert cli.main(["verify", "--omega0", "1", "--A", "12.25"]) == 0
    assert 0 < sum(sturm_rows.values()) <= 95_000
    capsys.readouterr()


def test_the_mirror_fold_halves_the_default_verify_rows(sturm_rows, capsys):
    # at b = 0 the operator reads the same reversed, and each Sturm pass walks one of its two
    # halves: 90 434 rows when every grid was solved whole
    assert cli.main(["verify", "--omega0", "1", "--A", "12.25"]) == 0
    assert 0 < sum(sturm_rows.values()) <= 50_000
    capsys.readouterr()


def test_two_pre_grids_cut_the_constant_mass_rows(sturm_rows):
    # the first reported grid starts on the h^2 line through the pre-grids of 250 and 500
    # points.  From the 250-point pre-grid's values alone it took 189 750 rows: no count
    # came out above k, so the top level's bracket kept its Gershgorin end, and each
    # rejected Newton step fell back to bisection from there
    solve_constant_mass_numeric(RosenMorseParams(5.191, -2.939), 23.54, 4, 2000)
    assert 0 < sum(sturm_rows.values()) <= 150_000


@pytest.mark.parametrize(
    "run, bound",
    [
        # 32 750 Newton rows (of 44 739) when a level took one more Newton pass after a step
        # below 4.9e-13 relative, and every grid started on the line through the two before
        (lambda: cli.main(["verify", "--omega0", "1", "--A", "12.25"]), 25_000),
        # 108 500 (of 134 358) then
        (
            lambda: solve_constant_mass_numeric(RosenMorseParams(5.191, -2.939), 23.54, 4, 2000),
            90_000,
        ),
    ],
    ids=["verify-A-12.25", "constant-mass"],
)
def test_landing_and_quadratic_starts_cut_the_newton_rows(sturm_rows, capsys, run, bound):
    # a Newton step below _LAND relative lands, and its level ends on two counts; each grid
    # after three solved ones starts from the quadratic in h^2 through them
    run()
    capsys.readouterr()
    assert 0 < sturm_rows["newton"] <= bound


# entries from a small set of integers, so that ties, zero pivots and zero couplings come up,
# or any floats
_ENTRY = st.one_of(st.integers(-4, 4).map(float), st.floats(-10.0, 10.0))


@st.composite
def _tridiagonal_rows(draw):
    # diag and off of n rows, n from 1 to 30, drawn as one list of 2n - 1 entries
    n = draw(st.integers(1, 30))
    entries = draw(st.lists(_ENTRY, min_size=2 * n - 1, max_size=2 * n - 1))
    return entries[:n], entries[n:]


@st.composite
def _tridiagonal_and_shift(draw):
    d, off = draw(_tridiagonal_rows())
    return d, [e * e for e in off], draw(_ENTRY), draw(st.integers(0, len(d) + 1))


def _two_part_sturm_count(d, e2, lam, pivmin, cap=math.inf):
    # the reference: row 0 on its own, before the loop over the coupled rows
    q = d[0] - lam
    count = 0
    if q <= pivmin:
        count = 1
        if q >= -pivmin:
            q = -pivmin
    for di, ei in zip(d[1:], e2):
        q = di - lam - ei / q
        if q <= pivmin:
            count += 1
            if count > cap:
                return count
            if q >= -pivmin:
                q = -pivmin
    return count


def _two_part_sturm_newton(d, e2, lam, pivmin):
    q = d[0] - lam
    count = 0
    if q <= pivmin:
        count = 1
        if q >= -pivmin:
            q = -pivmin
    r = -1.0 / q
    total = r
    for di, ei in zip(d[1:], e2):
        t = ei / q
        q = di - lam - t
        if q <= pivmin:
            count += 1
            if q >= -pivmin:
                q = -pivmin
        r = (t * r - 1.0) / q
        total += r
    return count, total


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_tridiagonal_and_shift())
def test_one_loop_sturm_passes_are_the_two_part_ones(case):
    # every one-loop Sturm kernel on the same draw: the capped count, the Newton pass and the
    # pivots
    d, e2, lam, cap = case
    pivmin = 2.3e-308 * max(1.0, max(e2, default=1.0))
    full = _sturm_count(d, e2, lam, pivmin)
    capped = _sturm_count(d, e2, lam, pivmin, cap)
    # a capped count is the count up to its cap
    if full <= cap:
        assert capped == full
    else:
        assert cap < capped <= full
    # row 0 folded into the loop by a 0.0 coupling and a starting pivot of 1.0:
    # d - lam - 0.0/1.0 is d - lam, and (0.0 * 0.0 - 1.0)/q is -1/q, so the count and
    # det'/det keep their bits.  A cap of 0 may stop at row 0, where the two-part
    # count went on to its next negative pivot; both are above the cap then
    assert full == _two_part_sturm_count(d, e2, lam, pivmin)
    want = _two_part_sturm_count(d, e2, lam, pivmin, cap)
    assert capped == want or (cap == 0 and min(capped, want) > cap)
    count, total = oracle._sturm_newton(d, e2, lam, pivmin)
    want_count, want_total = _two_part_sturm_newton(d, e2, lam, pivmin)
    assert count == want_count
    assert total.hex() == want_total.hex()
    # the negative pivots number the Sturm count
    pivots = oracle._pivots(d, e2, lam, pivmin)
    assert sum(q < 0.0 for q in pivots) == full


@st.composite
def _tridiagonal_and_starts(draw):
    # scipy's eigenvalues moved by relative offsets just inside and just outside _LAND, up
    # or down: a start's Newton step then lands or takes one more pass.  Some starts sit on
    # another level's value, where the step lands on the wrong level
    op = TridiagonalOperator(*draw(_tridiagonal_rows()))
    ref = scipy.linalg.eigvalsh_tridiagonal(op.diag, op.off)
    k = draw(st.integers(1, op.size))
    starts = []
    for j in range(k):
        lam = ref[draw(st.one_of(st.just(j), st.integers(0, op.size - 1)))]
        rel = draw(st.sampled_from([0.5, 0.99, 1.01, 2.0])) * draw(st.sampled_from([-1.0, 1.0]))
        starts.append(lam + rel * oracle._LAND * max(1.0, abs(lam)))
    return op, k, starts


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_tridiagonal_and_starts())
def test_a_landing_that_misses_falls_back_to_counts_and_bisection(case):
    op, k, starts = case
    got = eigenvalues_sturm(op, k, starts=starts)
    ref = scipy.linalg.eigvalsh_tridiagonal(op.diag, op.off)[:k]
    d = op.diag.tolist()
    e2 = (op.off * op.off).tolist()
    pivmin = 2.3e-308 * max(1.0, max(e2, default=1.0))
    for j, (lam, want) in enumerate(zip(got, ref), start=1):
        assert abs(lam - want) <= 1e-12 * max(1.0, abs(want)), j
        t = 1e-12 * max(1.0, abs(lam))
        assert _sturm_count(d, e2, lam - t, pivmin) < j <= _sturm_count(d, e2, lam + t, pivmin)


@st.composite
def _mirror_tridiagonal(draw):
    # diag and off^2 that read the same reversed: n from 1 to 40, integer entries so that
    # ties come up, and each off-diagonal of either sign, none zero
    n = draw(st.integers(1, 40))
    d = draw(st.lists(st.integers(-4, 4).map(float), min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    e = draw(st.lists(st.integers(1, 4).map(float), min_size=n // 2, max_size=n // 2))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n - 1, max_size=n - 1))
    off = [s * v for s, v in zip(signs, e + e[: (n - 1) // 2][::-1])]
    return TridiagonalOperator(d + d[: n // 2][::-1], off)


def _within_certificate_of_scipy(op, got):
    ref = scipy.linalg.eigvalsh_tridiagonal(op.diag, op.off)
    assert len(got) == len(ref)
    for j, (lam, want) in enumerate(zip(got, ref)):
        assert abs(lam - want) <= 1e-12 * max(1.0, abs(want)), j


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_mirror_tridiagonal())
def test_a_mirror_symmetric_operator_folds_into_its_even_and_odd_levels(op):
    halves = oracle._mirror_halves(op)
    if op.size == 1:
        assert halves is None
    else:
        assert [h.size for h in halves] == [(op.size + 1) // 2, op.size // 2]
    _within_certificate_of_scipy(op, eigenvalues_sturm(op, op.size))


def _mirror_but_reducible():
    # the middle coupling of an even n is 0: the two halves are uncoupled and share a spectrum
    d = [3.0, -1.0, 2.0, 0.0, 0.0, 2.0, -1.0, 3.0]
    return TridiagonalOperator(d, [1.0, -2.0, 1.0, 0.0, -1.0, 2.0, 1.0])


def _mirror_but_one_ulp():
    d = [3.0, -1.0, 2.0, 0.5, 2.0, -1.0, 3.0]
    d[0] = math.nextafter(3.0, math.inf)
    return TridiagonalOperator(d, [1.0, -2.0, 1.5, 1.5, -2.0, 1.0])


@pytest.mark.parametrize("make", [_mirror_but_reducible, _mirror_but_one_ulp])
def test_a_near_mirror_operator_is_solved_whole(monkeypatch, make):
    op = make()
    solved = []
    levels = oracle._levels
    monkeypatch.setattr(oracle, "_levels", lambda m, *a: solved.append(m.size) or levels(m, *a))
    _within_certificate_of_scipy(op, eigenvalues_sturm(op, op.size))
    assert solved == [op.size]


@pytest.mark.parametrize("p", [OscillatorParams(1.0, 6.5, 0.2), OscillatorParams(1.0, 6.25)])
def test_every_solve_in_a_report_is_certified(monkeypatch, p):
    solves = []

    def recorded(op, k, starts=None):
        out = eigenvalues_sturm(op, k, starts=starts)
        solves.append((op, out))
        return out

    monkeypatch.setattr(oracle, "eigenvalues_sturm", recorded)
    k = num_bound_states(p)
    rep = solve_pdm_numeric(p, k, 2000, estimate_order=True)
    # the unreported pre-grids of 1000 // 8 and 1000 // 4 points come first
    assert [op.size for op, _ in solves] == [125, 250, *rep.grid_sizes]
    for op, lams in solves:
        d = op.diag.tolist()
        e2 = (op.off * op.off).tolist()
        pivmin = 2.3e-308 * max(1.0, max(e2))
        for j, lam in enumerate(lams, start=1):
            t = 1e-12 * max(1.0, abs(lam))
            assert _sturm_count(d, e2, lam - t, pivmin) < j <= _sturm_count(d, e2, lam + t, pivmin)


def test_starts_need_one_per_level():
    op = TridiagonalOperator((2.0, 2.0, 2.0), (-1.0, -1.0))
    with pytest.raises(ParameterError):
        eigenvalues_sturm(op, 2, starts=[1.0])


@pytest.mark.parametrize(
    "diag, off, starts",
    [
        ([2.0, 3.0, 5.0], [-1.0, -1.0], [1.2, 2.7]),
        # mirror-symmetric: folded, starts[0::2] and starts[1::2] go to the two blocks
        ([2.0, 3.0, 2.0], [-1.0, -1.0], [1.2, 2.7]),
        # a lone start of 0.0, inside the first level's bracket, that changes its bits
        ([0.5, 2.0, 4.0], [-1.0, -1.0], [0.0]),
    ],
    ids=["whole", "folded", "zero"],
)
def test_array_starts_are_the_list_starts(diag, off, starts):
    op = TridiagonalOperator(diag, off)
    want = eigenvalues_sturm(op, len(starts), starts=starts)
    got = eigenvalues_sturm(op, len(starts), starts=np.array(starts))
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert all(type(v) is float for v in got + want)


# --- eigenvector ---


def test_box_ground_vector():
    L = math.pi
    g = Grid1D(0.0, L, 500)
    op = discretize_bdd(ONE, ZERO, g)
    (lam,) = eigenvalues_sturm(op, 1)
    v = eigenvector(op, lam, h=g.h)
    want = [math.sqrt(2.0 / L) * math.sin(x) for x in g.nodes()]
    if v[len(v) // 2] < 0.0:
        v = [-c for c in v]
    assert max(abs(g1 - g2) for g1, g2 in zip(v, want)) < 1e-4


def test_diagonal_operator_basis_vector():
    op = TridiagonalOperator((3.0, 1.0, 2.0), (0.0, 0.0))
    v = eigenvector(op, 1.0)
    assert abs(abs(v[1]) - 1.0) < 1e-10
    assert abs(v[0]) < 1e-10 and abs(v[2]) < 1e-10


def test_pdm_ground_vector_matches_analytic():
    p = OscillatorParams(1.0, 2.0)
    a, mass_fn, pot = pdm_mass_and_potential(p)
    g = Grid1D(-a, a, 900)
    op = discretize_bdd(mass_fn, pot, g)
    (lam,) = eigenvalues_sturm(op, 1)
    v = eigenvector(op, lam, h=g.h)
    xs = g.nodes()
    want = [wavefunction(p, 0, x) for x in xs]
    if v[len(v) // 2] < 0.0:
        v = [-c for c in v]
    diffs = [abs(g1 - g2) for g1, g2 in zip(v, want)]
    # sqrt-type wall behavior keeps the last few nodes an order rougher
    assert max(d for x, d in zip(xs, diffs) if abs(x) <= 0.9 * a) < 1e-4
    assert max(diffs) < 5e-3


def test_constant_mass_ground_vector_is_sech_squared():
    rm = RosenMorseParams(2.0, 0.0)
    g = Grid1D(-25.0, 25.0, 2600)
    pot = lambda u: -6.0 / np.cosh(u) ** 2
    op = discretize_bdd(ONE, pot, g)
    (lam,) = eigenvalues_sturm(op, 1)
    v = eigenvector(op, lam, h=g.h)
    want = [math.sqrt(3.0) / 2.0 / math.cosh(u) ** 2 for u in g.nodes()]
    if v[len(v) // 2] < 0.0:
        v = [-c for c in v]
    assert max(abs(g1 - g2) for g1, g2 in zip(v, want)) < 1e-4
    assert rm.A == 2.0  # the well the samples came from


def test_eigenvector_sign_changes():
    p = OscillatorParams(1.0, 5.0)
    a, mass_fn, pot = pdm_mass_and_potential(p)
    g = Grid1D(-a, a, 700)
    op = discretize_bdd(mass_fn, pot, g)
    lams = eigenvalues_sturm(op, 4)
    for n, lam in enumerate(lams):
        v = eigenvector(op, lam, h=g.h)
        top = max(abs(c) for c in v)
        signs = [c for c in v if abs(c) > 1e-6 * top]
        flips = sum(1 for c1, c2 in zip(signs, signs[1:]) if (c1 > 0) != (c2 > 0))
        assert flips == n


def test_eigenvector_rejects_far_shift():
    # a shift far below the spectrum is no eigenvalue: its vector's residual fails the gate
    op = discretize_bdd(ONE, ZERO, Grid1D(0.0, math.pi, 200))
    with pytest.raises(ConvergenceError):
        eigenvector(op, -50.0, h=math.pi / 201.0)


def test_eigenvector_gate_scales_with_the_level():
    # level 1, at 2e5, is certified to 1e-12 * |lam| = 2e-7; its vector's residual of 6.9e-8
    # was refused by an absolute gate of 1e-8
    op = TridiagonalOperator([1e5, 1e5], [1e5])
    for lam in eigenvalues_sturm(op, 2):
        v = eigenvector(op, lam)
        assert np.linalg.norm(op.apply(v) - lam * v) <= 1e-8 * max(1.0, abs(lam))
        assert abs(abs(v[0]) - math.sqrt(0.5)) <= 1e-12


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(_tridiagonal_rows().map(lambda rows: TridiagonalOperator(*rows)),
                 _mirror_tridiagonal()))
# the off-diagonals dominate the diagonal
@example(TridiagonalOperator([0.1, 2.0, -1.0, 0.5, 4.0], [1.0, 3.0, 0.25, -2.0]))
# a zero first coupling, and level 1 is exactly 2.0
@example(TridiagonalOperator([2.0, 1.0, 3.0], [0.0, 1.0]))
# level 0 is 0 (returned as -1.1e-13), where both factorizations end on a near-zero pivot
@example(TridiagonalOperator([1.0, 1.0], [1.0]))
# decoupled rows: the last alone, and every row, whose level 1 is exactly 2.0
@example(TridiagonalOperator([0.5, 3.0, 2.0], [2.0, 0.0]))
@example(TridiagonalOperator([3.0, 1.0, 2.0], [0.0, 0.0]))
def test_twisted_eigenvectors_against_scipy(op):
    # each level's vector has a residual at the rounding floor of the entries, and where the
    # level stands apart from the others it is scipy's vector up to its sign
    lams = eigenvalues_sturm(op, op.size)
    ref, vecs = scipy.linalg.eigh_tridiagonal(op.diag, op.off)
    scale = max(1.0, float(np.max(np.abs(op.diag))), float(np.max(np.abs(op.off), initial=0.0)))
    for j, lam in enumerate(lams):
        v = eigenvector(op, lam)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.linalg.norm(op.apply(v) - lam * v) <= 1e-10 * scale, j
        gap = np.min(np.abs(np.delete(ref, j) - ref[j]), initial=math.inf)
        if gap >= 1e-6 * max(1.0, abs(lam)):
            assert abs(np.dot(v, vecs[:, j])) >= 1.0 - 1e-9, j


def test_eigenvector_leaves_numpy_random_unloaded():
    # the vector comes from the Sturm pivots alone: no random start
    code = (
        "import math, sys\n"
        "from pdmosc.oracle import Grid1D, discretize_bdd, eigenvalues_sturm, eigenvector\n"
        "g = Grid1D(0.0, math.pi, 400)\n"
        "op = discretize_bdd(lambda x: 1.0, lambda x: 0.0, g)\n"
        "eigenvector(op, eigenvalues_sturm(op, 1)[0], h=g.h)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    paths = [str(Path(oracle.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# --- overlap ---


def test_overlap_polynomial_exact():
    f = lambda x: math.sqrt(3.0 / 8.0) * np.sqrt(np.maximum(0.0, 1.0 - x * x / 4.0))
    val = overlap(f, f, -2.0, 2.0, 8)
    assert abs(val - 1.0) < 1e-14


def test_overlap_evaluates_each_integrand_once_on_the_nodes():
    seen = []

    def f(x):
        seen.append(x)
        return np.ones_like(x)

    assert abs(overlap(f, f, -1.0, 3.0, 16) - 4.0) < 1e-14
    assert len(seen) == 1 and seen[0].shape == (16,)
    g = lambda x: 2.0 * f(x)
    assert abs(overlap(f, g, 0.0, 1.0, 5) - 2.0) < 1e-14
    assert [x.shape for x in seen[1:]] == [(5,), (5,)]


def test_overlap_orthogonality():
    p = OscillatorParams(1.0, 3.0)
    a = confinement_length(1.0, 3.0)
    f0 = lambda x: wavefunction(p, 0, x)
    f1 = lambda x: wavefunction(p, 1, x)
    assert abs(overlap(f0, f1, -a, a, 400)) < 1e-9
    assert abs(overlap(f0, f0, -a, a, 400) - 1.0) < 1e-9


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize(
    "lo, hi", [(1.0, -1.0), (1.0, 1.0), (-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)]
)
def test_overlap_refuses_reversed_or_nonfinite_bounds(lo, hi, graded):
    # each rule is refused before either function is evaluated
    def never(x):
        raise AssertionError("a function was evaluated")

    with pytest.raises(ParameterError):
        overlap(never, never, lo, hi, 300, graded=graded)


# --- spectrum drivers ---


def test_pdm_spectrum_depth_two():
    rep = solve_pdm_numeric(OscillatorParams(1.0, 2.0), 1, 1000)
    assert abs(rep.numeric[0] - 0.25) < 1e-6
    assert rep.rel_err[0] == abs(rep.numeric[0] - rep.analytic[0]) / abs(rep.analytic[0])


def test_pdm_spectrum_depth_three():
    rep = solve_pdm_numeric(OscillatorParams(1.0, 3.0), 2, 1000)
    for got, want in zip(rep.numeric, (0.3162278, 1.1067972)):
        assert abs(got - want) < 1e-6


def test_pdm_spectrum_shifted():
    # the n = 1 state decays slowly at the wall, so the finer grid pair
    rep = solve_pdm_numeric(OscillatorParams(1.0, 3.0, 0.1), 2, 2000)
    for got, want in zip(rep.numeric, (0.3151166, 1.0917972)):
        assert abs(got - want) < 2e-6


def test_pdm_report_metadata():
    rep = solve_pdm_numeric(OscillatorParams(1.0, 2.0), 1, 500, estimate_order=True)
    assert rep.grid_sizes == (250, 500, 1000)
    assert len(rep.spacings) == 3
    assert rep.order is not None and len(rep.order) == 1


def test_pdm_rejects_bad_requests():
    p = OscillatorParams(1.0, 2.0)
    with pytest.raises(ParameterError):
        solve_pdm_numeric(p, 2, 1000)
    with pytest.raises(ParameterError):
        solve_pdm_numeric(p, 1, 7)
    # a grid of 1.2 million points would put midpoints within 1e-12 a of the walls
    with pytest.raises(ParameterError, match="too fine"):
        solve_pdm_numeric(p, 1, 600_000)


def test_pdm_report_derives_the_model_once(count_calls):
    # one parameter map gives a, the level count and every analytic energy: the
    # library's per-level entry points, which each derive the model again, are not called
    p = OscillatorParams(0.9, 7.4, 0.2)
    k = num_bound_states(p)
    want = [energy(p, n) for n in range(k)]
    count_calls(pct, "map_parameters")
    count_calls(oscillator, "energy")
    calls = count_calls(oscillator, "num_bound_states")
    rep = solve_pdm_numeric(p, k, 500)
    assert calls == {"map_parameters": 1, "energy": 0, "num_bound_states": 0}
    assert list(rep.analytic) == want


@pytest.mark.parametrize("p", [OscillatorParams(1.0, 6.25), OscillatorParams(0.7, 9.3, -0.2)])
def test_the_analytic_values_start_no_grid(monkeypatch, p):
    # every start comes from the oracle's own grids: closed forms that are wrong move only
    # the analytic values and the errors measured against them, not one bit of the rest
    k = num_bound_states(p)
    want = solve_pdm_numeric(p, k, 600, estimate_order=True)
    monkeypatch.setattr(
        oscillator._Model, "energies", lambda self, levels: [3.0 * n - 7.5 for n in levels]
    )
    got = solve_pdm_numeric(p, k, 600, estimate_order=True)
    assert list(got.analytic) == [3.0 * n - 7.5 for n in range(k)] != list(want.analytic)
    assert got.rel_err != want.rel_err
    assert [v.hex() for v in got.numeric] == [v.hex() for v in want.numeric]
    assert [v.hex() for v in got.order] == [v.hex() for v in want.order]
    assert (got.grid_sizes, got.spacings) == (want.grid_sizes, want.spacings)


def min_envelope_exponent(p, n):
    _, _, rm = pct.map_parameters(p.omega0, p.A, p.b)
    m = rm.A - n
    beta = rm.B / m
    return (m - 1.0 - abs(beta)) / 2.0


@pytest.mark.parametrize(
    "omega0,A,b",
    [(1.0, 2.0, 0.0), (1.0, 3.0, 0.0), (1.0, 5.0, 0.0), (1.0, 3.0, 0.1), (1.0, 4.0, -0.3)],
)
def test_convergence_order(omega0, A, b):
    # h^2 convergence where the state is smooth enough to see it; states
    # whose boundary exponent drops below ~0.75 converge visibly slower,
    # and rounding-level levels come back as nan
    p = OscillatorParams(omega0, A, b)
    k = num_bound_states(p)
    rep = solve_pdm_numeric(p, k, 2000, estimate_order=True)
    for n, order in enumerate(rep.order):
        if math.isnan(order):
            continue
        exponent = min_envelope_exponent(p, n)
        if exponent >= 0.75:
            assert 1.9 < order < 2.1
        elif exponent >= 0.4:
            assert 1.7 < order < 2.2
        else:
            assert 1.3 < order < 2.2


def test_constant_mass_symmetric_well():
    rep = solve_constant_mass_numeric(RosenMorseParams(2.0, 0.0), 25.0, 2, 2000)
    for got, want in zip(rep.numeric, (-4.0, -1.0)):
        assert abs(got - want) / abs(want) < 1e-6


def test_constant_mass_asymmetric_well():
    rep = solve_constant_mass_numeric(RosenMorseParams(2.5, 1.5), 25.0, 2, 3000)
    for got, want in zip(rep.numeric, (-6.61, -3.25)):
        assert abs(got - want) / abs(want) < 1e-6


def test_constant_mass_box_check_evaluates_each_level_once(monkeypatch):
    # both ends of the box in one array call per level
    calls = []

    def counted(p, n, u):
        calls.append(n)
        return original(p, n, u)

    original = oracle.rm_wavefunction
    monkeypatch.setattr(oracle, "rm_wavefunction", counted)
    solve_constant_mass_numeric(RosenMorseParams(2.0, 0.0), 25.0, 2, 200)
    assert calls == [0, 1]


def test_constant_mass_box_adequacy():
    with pytest.raises(ParameterError, match="box"):
        solve_constant_mass_numeric(RosenMorseParams(2.5, 1.5), 6.0, 2, 1000)
