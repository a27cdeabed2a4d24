"""Tests of the benchmark's own parts: the mpmath reference, the job lists, the tracer.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import jobs  # noqa: E402
import reference as ref  # noqa: E402


def test_single_level_at_l_2_by_hand():
    # a = sqrt(2) * 4^(1/4) = 2; E0 = (5/4)(1/2) - 1/16 - 5/16 = 1/4;
    # psi0 = N (1 - t^2)^(1/2) / sqrt(a) with N^2 * 4/3 = 1
    assert ref.half_width(1.0, 2.0) == 2
    assert ref.level_count(1.0, 2.0, 0.0) == 1
    assert abs(ref.energy(1.0, 2.0, 0.0, 0) - mp.mpf(1) / 4) < mp.mpf(10) ** -30
    assert abs(ref.Wavefunction(1.0, 2.0, 0.0, 0)(0.0) - mp.sqrt(6) / 4) < mp.mpf(10) ** -30
    assert abs(ref.quantized_norm(2, 0, 2.0) - mp.sqrt(6) / 4) < mp.mpf(10) ** -30


@pytest.mark.parametrize("omega0", [0.7, 1.0, 2.5])
def test_energies_tend_to_harmonic_levels(omega0):
    for n in range(4):
        harmonic = omega0 * (n + mp.mpf(1) / 2)
        gaps = [abs(ref.energy(omega0, A, 0.0, n) / harmonic - 1) for A in (1e2, 1e4, 1e6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5


def test_energy_forms_agree():
    # transform route: (-m^2 - B^2/m^2)/a^2 + omega0^2 a^2/4 + 1/a^2 + b^2
    for omega0, A, b in [(1.0, 3.3, 0.0), (0.6, 7.45, 0.21), (1.9, 20.2, -0.8)]:
        a2 = ref.half_width(omega0, A) ** 2
        B = ref.tilt(omega0, A, b)
        for n in range(ref.level_count(omega0, A, b)):
            m = mp.mpf(A) - n
            e = (-(m**2) - B**2 / m**2) / a2 + mp.mpf(omega0) ** 2 * a2 / 4 + 1 / a2 + mp.mpf(b) ** 2
            assert abs(e / ref.energy(omega0, A, b, n) - 1) < mp.mpf(10) ** -28


def test_level_count_threshold():
    assert ref.level_count(1.0, 3.0, 0.0) == 2  # m = 1 is not admitted
    assert ref.level_count(1.0, 3.0001, 0.0) == 3
    lim = 2 * 5.0 * 4.0 / ref.half_width(1.0, 5.0) ** 3
    assert ref.level_count(1.0, 5.0, float(0.999 * lim)) == 1
    assert ref.level_count(1.0, 5.0, 0.0) == 4


@pytest.mark.parametrize("n,alpha,gamma", [(0, 1.3, 1.3), (3, 2.25, 2.25), (4, 2.9, 1.7), (7, 1.15, 3.6)])
def test_jacobi_norm_closed_form_against_quadrature(n, alpha, gamma):
    alpha, gamma = mp.mpf(alpha), mp.mpf(gamma)
    direct = mp.quad(
        lambda t: (1 - t) ** (alpha - 1) * (1 + t) ** (gamma - 1) * mp.jacobi(n, alpha, gamma, t) ** 2,
        [-1, 0, 1],
    )
    assert abs(direct / ref.jacobi_weighted_norm(n, alpha, gamma) - 1) < mp.mpf(10) ** -20


@pytest.mark.parametrize("omega0,A,b,n", [(1.0, 4.6, 0.0, 2), (0.8, 6.3, 0.15, 3), (1.7, 9.1, -0.3, 1)])
def test_wavefunction_solves_the_eigenproblem(omega0, A, b, n):
    # -d/dx (1/M) dpsi/dx + (omega0^2/4)(x - 2b/omega0)^2 psi = E psi, 1/M = (1 - x^2/a^2)^2
    psi = ref.Wavefunction(omega0, A, b, n)
    a = psi.a
    x0 = 2 * mp.mpf(b) / omega0
    for x in (-0.61 * a, 0.07 * a, 0.43 * a):
        s = 1 - (x / a) ** 2
        d1, d2 = mp.diff(psi, x, 1), mp.diff(psi, x, 2)
        # d/dx [s^2 psi'] = s^2 psi'' - 4 x s psi' / a^2
        kinetic = -(s * s * d2 - 4 * x * s * d1 / a**2)
        lhs = kinetic + mp.mpf(omega0) ** 2 / 4 * (x - x0) ** 2 * psi(x)
        assert abs(lhs - ref.energy(omega0, A, b, n) * psi(x)) < 1e-20 * abs(psi(x))


@pytest.mark.parametrize("omega0,A,b,n", [(1.0, 4.6, 0.0, 3), (0.8, 6.3, 0.15, 3)])
def test_wavefunction_unit_norm(omega0, A, b, n):
    psi = ref.Wavefunction(omega0, A, b, n)
    assert abs(mp.quad(lambda x: psi(x) ** 2, [-psi.a, 0, psi.a]) - 1) < mp.mpf(10) ** -20


def test_polynomial_sums_match_mpmath():
    for x in (-0.83, -0.2, 0.31, 0.9):
        g = ref.Wavefunction(1.0, 9.4, 0.0, 6)
        jac = ref.Wavefunction(1.0, 9.4, 0.3, 5)
        t = mp.mpf(x)
        assert abs(g._poly(t) - mp.gegenbauer(6, g.m + mp.mpf(1) / 2, t)) < mp.mpf(10) ** -25
        assert abs(jac._poly(t) - mp.jacobi(5, jac.alpha, jac.gamma, t)) < mp.mpf(10) ** -25


def test_quantized_norm_matches_gegenbauer_route():
    # at integer depth the factorial constant multiplies (1-t^2)^((l-n-1)/2) C_n^(l-n+1/2)(t)
    l, a = 7, ref.half_width(1.0, 7.0)
    for n in range(l - 1):
        psi = ref.Wavefunction(1.0, 7.0, 0.0, n)
        t = mp.mpf("0.37")
        form = ref.quantized_norm(l, n, a) * (1 - t * t) ** (mp.mpf(l - n - 1) / 2) * mp.gegenbauer(
            n, l - n + mp.mpf(1) / 2, t
        )
        assert abs(form - psi(t * a)) < mp.mpf(10) ** -25


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_lists_are_fixed_per_seed(workload):
    first, again, other = jobs.build(workload, 7), jobs.build(workload, 7), jobs.build(workload, 8)
    assert first == again
    assert first != other
    assert [j.kind for j in first] == [j.kind for j in other]


def test_drawn_depths_hold_their_slot_counts():
    for seed in range(5):
        wave = jobs.build("wavefunction_table", seed)
        for job, (_, count, _, _) in zip(wave, jobs.WAVE_SLOTS):
            p = dict(zip(job.argv[1::2], job.argv[2::2]))
            assert ref.level_count(float(p["--omega0"]), float(p["--A"]), float(p.get("--b", 0))) == count


def test_tracer_counts_and_self_time():
    import spans
    from pdmosc import OscillatorParams, oscillator, pct

    original = pct.map_parameters
    tracer = spans.Tracer()
    tracer.install()
    try:
        oscillator.energy(OscillatorParams(1.0, 3.5), 1)
    finally:
        tracer.uninstall()
    assert pct.map_parameters is original
    calls, self_s = tracer.totals(0, tracer.mark())
    ix = {name: i for i, name in enumerate(tracer.names)}
    # the constructor maps once; energy maps in its level check and in _derived
    assert calls[ix["pct.map_parameters"]] == 3
    assert calls[ix["oscillator.energy"]] == 1
    assert calls[ix["rosen_morse.rm_energy"]] == 1
    s = tracer.arrays()
    total = float((s["end"] - s["start"])[s["parent"] < 0].sum())
    assert abs(float(self_s.sum()) - total) < 1e-9
