"""Finite-difference eigensolver: stencil, Sturm bisection, eigenvectors.

Reference values are particle-in-a-box closed forms, hand-diagonalized 3x3
matrices, and the analytic spectra the solver is meant to reproduce; scipy's
tridiagonal eigensolver gives an extra independent check.
"""

import math

import numpy as np
import pytest
import scipy.linalg

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
    g = SineGrid(2.0, 3)
    assert g.h == 0.5
    s = np.array([-0.5, 0.0, 0.5])
    assert g.nodes().tolist() == (2.0 * np.sin(0.5 * math.pi * s)).tolist()
    assert g.jacobian().tolist() == (2.0 * (0.5 * math.pi) * np.cos(0.5 * math.pi * s)).tolist()
    sh = np.array([-0.75, -0.25, 0.25, 0.75])
    assert g.half_nodes().tolist() == (2.0 * np.sin(0.5 * math.pi * sh)).tolist()
    assert g.half_jacobian().tolist() == (math.pi * np.cos(0.5 * math.pi * sh)).tolist()
    with pytest.raises(ParameterError):
        SineGrid(0.0, 10)
    with pytest.raises(ParameterError):
        SineGrid(1.0, 2)


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
    assert [v.hex() for v in rep.numeric] == ["-0x1.a70a39c19183fp+2", "-0x1.9fffe3e595157p+1"]
    assert [v.hex() for v in rep.order] == ["0x1.00fe58dc8d02dp+1", "0x1.03705792d4d30p+1"]
    assert rep.spacings == (50.0 / 301.0, 50.0 / 601.0, 50.0 / 1201.0)


def test_sine_grid_operator_is_the_weighted_stencil():
    # G^-1/2 K G^-1/2 with K = -d/ds (1/(M J)) d/ds + J V and G = diag(J)
    g = SineGrid(1.5, 40)
    mass_fn = lambda x: 1.0 + x * x
    op = discretize_bdd(mass_fn, lambda x: 2.0 * x, g)
    J, w = g.jacobian(), 1.0 / (mass_fn(g.half_nodes()) * g.half_jacobian())
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
    a, mass_fn, pot = pdm_mass_and_potential(p)
    op = discretize_bdd(mass_fn, pot, SineGrid(a, 500))
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


def test_start_chain_cuts_the_sturm_rows(monkeypatch):
    # a pre-grid and starts on the h^2 line through the two grids before:
    # 534 000 rows when each grid started from the previous one alone, on
    # grids uniform in x; 404 750 on the sine-mapped grids.  Every Sturm
    # pass walks all rows of the matrix once
    rows = [0]
    for name in ("_sturm_count", "_sturm_newton"):
        fn = getattr(oracle, name)

        def counted(d, *args, fn=fn):
            rows[0] += len(d)
            return fn(d, *args)

        monkeypatch.setattr(oracle, name, counted)
    solve_pdm_numeric(OscillatorParams(1.0, 12.25), 12, 2000, estimate_order=True)
    assert rows[0] <= 450_000


def test_default_verify_grid_cuts_the_sturm_rows(monkeypatch, capsys):
    # 425 500 rows on the --grid 2000 that verify used by default on a grid uniform in x
    rows = [0]
    for name in ("_sturm_count", "_sturm_newton"):
        fn = getattr(oracle, name)

        def counted(d, *args, fn=fn):
            rows[0] += len(d)
            return fn(d, *args)

        monkeypatch.setattr(oracle, name, counted)
    assert cli.main(["verify", "--omega0", "1", "--A", "12.25"]) == 0
    assert 0 < rows[0] <= 110_000
    capsys.readouterr()


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
    # the unreported pre-grid of 1000 // 8 points comes first
    assert [op.size for op, _ in solves] == [125, *rep.grid_sizes]
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
    # a shift far below the spectrum leaves inverse iteration crawling
    op = discretize_bdd(ONE, ZERO, Grid1D(0.0, math.pi, 200))
    with pytest.raises(ConvergenceError):
        eigenvector(op, -50.0, h=math.pi / 201.0)


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


def test_pdm_report_derives_the_model_once(monkeypatch):
    # one parameter map gives a, the level count and every analytic energy: the
    # library's per-level entry points, which each derive the model again, are not called
    p = OscillatorParams(0.9, 7.4, 0.2)
    k = num_bound_states(p)
    want = [energy(p, n) for n in range(k)]
    calls = {"map_parameters": 0, "energy": 0, "num_bound_states": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(pct, "map_parameters")
    counted(oscillator, "energy")
    counted(oscillator, "num_bound_states")
    rep = solve_pdm_numeric(p, k, 500)
    assert calls == {"map_parameters": 1, "energy": 0, "num_bound_states": 0}
    assert list(rep.analytic) == want


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
