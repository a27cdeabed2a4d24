"""Acceptance gate: the eight headline checks, one printed line each.

Every test funnels through _finish so a PASS/FAIL line reaches the
terminal summary whatever pytest's capture settings are.  Numeric
tolerances are stated next to each check; helper routines are shared with
the non-integer sweep, which reruns the core checks across twenty
fractional well depths.
"""

import math
import time
from functools import partial

import numpy as np

from pdmosc import pct
from pdmosc.oracle import overlap, solve_constant_mass_numeric, solve_pdm_numeric
from pdmosc.oscillator import (
    OscillatorParams,
    confinement_length,
    energy,
    energy_harmonic_form,
    jafarov_case,
    num_bound_states,
    wavefunction,
)
from pdmosc.rosen_morse import (
    RosenMorseParams,
    rm_bound_states,
    rm_energy,
    rm_nmax,
    rm_potential,
    rm_wavefunction,
)

CONFIGS = [
    (1.0, 2.0, 0.0),
    (1.0, 3.0, 0.0),
    (1.0, 5.0, 0.0),
    (1.0, 3.0, 0.1),
    (1.0, 4.0, -0.3),
]

SWEEP_DEPTHS = [k + f for k in (1, 2, 3, 4, 5) for f in (0.75, 0.8, 0.85, 0.9)]


def _finish(log, num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    log.append(line)
    assert ok, line


def spectrum_disagreement(p):
    """Worst relative gap between closed-form and extrapolated numeric levels."""
    rep = solve_pdm_numeric(p, num_bound_states(p), 2000)
    return max(rep.rel_err)


def two_form_disagreement(p):
    worst = 0.0
    for n in range(num_bound_states(p)):
        e_map = energy(p, n)
        e_explicit = energy_harmonic_form(p, n)
        worst = max(worst, abs(e_map - e_explicit) / abs(e_map))
    return worst


def potential_identity_deviation(p, points=200):
    a, pmap, rm = pct.map_parameters(p.omega0, p.A, p.b)
    prof = pct.MassProfile(a)
    source = partial(rm_potential, rm)
    x0 = 2.0 * p.b / p.omega0
    worst = 0.0
    for j in range(points):
        x = -a + 2.0 * a * (j + 1) / (points + 1)
        got = pct.transform_potential(source, prof, pmap, x)
        want = 0.25 * p.omega0**2 * (x - x0) ** 2
        worst = max(worst, abs(got - want))
    return worst


def mass_correction_deviation(p, points=21):
    a, _, _ = pct.map_parameters(p.omega0, p.A, p.b)
    prof = pct.MassProfile(a)
    h = 1.5e-5 * a
    worst = 0.0
    for j in range(points):
        x = -0.95 * a + 1.9 * a * j / (points - 1)
        m0 = pct.mass(prof, x)
        mp = pct.mass(prof, x + h)
        mm = pct.mass(prof, x - h)
        d1 = (mp - mm) / (2.0 * h)
        d2 = (mp - 2.0 * m0 + mm) / (h * h)
        fd = d2 / (4.0 * m0 * m0) - 7.0 * d1 * d1 / (16.0 * m0**3)
        worst = max(worst, abs(pct.mass_correction(prof, x) - fd))
    return worst


def orthonormality_deviation(p, rule=800):
    a = confinement_length(p.omega0, p.A)
    k = num_bound_states(p)
    funcs = [partial(wavefunction, p, n) for n in range(k)]
    worst = 0.0
    for m in range(k):
        for n in range(m, k):
            val = overlap(funcs[m], funcs[n], -a, a, rule)
            worst = max(worst, abs(val - (1.0 if m == n else 0.0)))
    return worst


def _sign_changes(values, floor):
    kept = values[np.abs(values) > floor]
    return int(np.count_nonzero((kept[1:] > 0.0) != (kept[:-1] > 0.0)))


def node_counts_correct(p):
    a, _, rm = pct.map_parameters(p.omega0, p.A, p.b)
    k = num_bound_states(p)
    xs = np.array([-a + 2.0 * a * (j + 1) / 3002 for j in range(3001)])
    for n in range(k):
        vals = wavefunction(p, n, xs)
        if _sign_changes(vals, 1e-9 * np.abs(vals).max()) != n:
            return False
    us = np.array([-25.0 + 50.0 * j / 2499 for j in range(2500)])
    for state in rm_bound_states(rm)[:k]:
        vals = state.wavefunction(us)
        if _sign_changes(vals, 1e-9 * np.abs(vals).max()) != state.n:
            return False
    return True


def test_quantized_case_matches_general(acceptance_log):
    t0 = time.perf_counter()
    worst = 0.0
    for l in (2, 3, 4, 5):
        states = jafarov_case(1.0, l)
        p = OscillatorParams(1.0, float(l))
        assert len(states) == num_bound_states(p) == l - 1
        a_gap = abs(confinement_length(1.0, float(l)) - math.sqrt(2.0) * (l * (l + 1) - 2.0) ** 0.25)
        worst = max(worst, a_gap)
        for st in states:
            worst = max(worst, abs(st.energy - energy(p, st.n)) / abs(st.energy))
    pinned = jafarov_case(1.0, 2)[0].energy
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and abs(pinned - 0.25) <= 1e-12 and elapsed < 1.0
    _finish(
        acceptance_log, 1, "quantized case vs general solver", ok,
        f"max rel gap {worst:.2e}, E0(l=2) = {pinned}, {elapsed:.2f}s",
    )


def test_numeric_spectrum_agreement(acceptance_log):
    t0 = time.perf_counter()
    worst = max(spectrum_disagreement(OscillatorParams(*c)) for c in CONFIGS)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _finish(
        acceptance_log, 2, "finite-difference spectrum agreement", ok,
        f"max rel err {worst:.2e} over {len(CONFIGS)} configs, {elapsed:.1f}s",
    )


def test_two_energy_forms_agree(acceptance_log):
    worst = max(two_form_disagreement(OscillatorParams(*c)) for c in CONFIGS)
    ok = worst <= 1e-12
    _finish(
        acceptance_log, 3, "energy expression identity", ok,
        f"max rel diff {worst:.2e}",
    )


def test_transformed_potential_identity(acceptance_log):
    worst_v = max(potential_identity_deviation(OscillatorParams(*c)) for c in CONFIGS)
    worst_m = max(mass_correction_deviation(OscillatorParams(*c)) for c in CONFIGS)
    ok = worst_v <= 1e-10 and worst_m <= 1e-6
    _finish(
        acceptance_log, 4, "potential map and mass correction", ok,
        f"potential dev {worst_v:.2e}, mass-correction dev {worst_m:.2e}",
    )


def test_orthonormality_and_nodes(acceptance_log):
    worst = max(orthonormality_deviation(OscillatorParams(*c)) for c in CONFIGS)
    nodes_ok = all(node_counts_correct(OscillatorParams(*c)) for c in CONFIGS)
    ok = worst <= 1e-8 and nodes_ok
    _finish(
        acceptance_log, 5, "orthonormality and node counts", ok,
        f"max overlap dev {worst:.2e}, node counts {'ok' if nodes_ok else 'wrong'}",
    )


def test_noninteger_depth_sweep(acceptance_log):
    t0 = time.perf_counter()
    worst_spec = worst_form = worst_pot = worst_orth = 0.0
    nodes_ok = True
    for A in SWEEP_DEPTHS:
        p = OscillatorParams(1.0, A)
        worst_spec = max(worst_spec, spectrum_disagreement(p))
        worst_form = max(worst_form, two_form_disagreement(p))
        worst_pot = max(
            worst_pot, potential_identity_deviation(p), mass_correction_deviation(p)
        )
        worst_orth = max(worst_orth, orthonormality_deviation(p))
        nodes_ok = nodes_ok and node_counts_correct(p)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_spec <= 1e-6
        and worst_form <= 1e-12
        and worst_pot <= 1e-6
        and worst_orth <= 1e-8
        and nodes_ok
    )
    _finish(
        acceptance_log, 6, "non-integer depth sweep", ok,
        f"{len(SWEEP_DEPTHS)} depths, rel err {worst_spec:.2e}, "
        f"forms {worst_form:.2e}, maps {worst_pot:.2e}, "
        f"overlaps {worst_orth:.2e}, {elapsed:.0f}s",
    )


def test_constant_mass_well(acceptance_log):
    worst = 0.0
    for A, B in ((2.0, 0.0), (3.0, 0.0), (2.5, 1.5), (4.0, -2.0)):
        rm = RosenMorseParams(A, B)
        k = rm_nmax(rm) + 1
        rep = solve_constant_mass_numeric(rm, 25.0, k, 3000)
        worst = max(worst, max(rep.rel_err))
    route_gap = 0.0
    for A in (2.0, 3.0):
        rm = RosenMorseParams(A, 0.0)
        for n in range(rm_nmax(rm) + 1):
            for u in (-1.5, -0.25, 0.5, 2.0):
                jac = rm_wavefunction(rm, n, u, form="jacobi")
                geg = rm_wavefunction(rm, n, u, form="gegenbauer")
                route_gap = max(route_gap, abs(jac - geg))
    ok = worst <= 1e-6 and route_gap <= 1e-11
    _finish(
        acceptance_log, 7, "constant-mass well cross-check", ok,
        f"max rel err {worst:.2e}, polynomial-route gap {route_gap:.2e}",
    )


def test_harmonic_limit(acceptance_log):
    p = OscillatorParams(1.0, 1.0e4)
    worst = max(
        abs(energy(p, n) - (n + 0.5)) / (n + 0.5) for n in range(4)
    )
    ok = worst <= 0.01
    _finish(
        acceptance_log, 8, "harmonic limit at large depth", ok,
        f"max rel gap {worst:.2e}",
    )
