"""Job lists for the three workloads, generated from a seed, and the code that runs a job.

A job is one call into pdmosc through a public entry point: ``cli.main`` with
generated argv, or an ``oracle`` library call the CLI never makes.  Lists are
fixed per (workload, seed); a run times every job of its list once per pass.

Random depths keep clear of the places where the program is known to fall
short, so that the only failing jobs are the named near-threshold ``verify``
jobs (see README.md).  ``edge`` below is the smallest envelope exponent of
the top level, m - 1 - |B|/m: the finite-difference oracle converges at an
order that falls with it.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from functools import partial

from pdmosc import cli, oracle, oscillator, pct
from pdmosc.rosen_morse import RosenMorseParams

WORKLOADS = ("verify_sweep", "wavefunction_table", "spectrum_scan")

# verify exits 3 on these b = 0 depths: the top level has m = A - n = 1.25
NEAR_THRESHOLD_DEPTHS = (3.25, 6.25, 12.25)

# smallest top-level edge drawn for verify and shape jobs: with A <= 15 the
# oracle's Richardson error stays under 3e-6 there (it reaches 1e-5 near 0.5)
VERIFY_EDGE = 0.75
# the norm column (Gauss-Legendre, 400 nodes) reaches 1e-6 only where the
# top level is smooth enough at the walls: at b = 0 (edge at most 1) up to
# A = 12, at b != 0 from an edge of 1.4 up to A = 60
WAVE_EDGE_B0 = 0.75
WAVE_EDGE_SHIFTED = 1.4
# no scanned row may put a level within this distance of its threshold,
# where a strict inequality and the program's 1e-12 window margin differ
TIE_GAP = 1e-6


@dataclass
class Job:
    """One operation of a workload's list."""

    kind: str  # "cli", "constant_mass" or "shape"
    label: str
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    expect_fail: bool = False


# --- float model helpers used only to draw parameters ------------------------


def half_width(w: float, A: float) -> float:
    return math.sqrt(2.0 / w) * (A * (A + 1.0) - 2.0) ** 0.25


def tilt(w: float, A: float, b: float) -> float:
    return -0.5 * w * half_width(w, A) ** 3 * b


def b_limit(w: float, A: float) -> float:
    return 2.0 * A * (A - 1.0) / (w * half_width(w, A) ** 3)


def _room(A: float, B: float) -> float:
    # levels n with A - n above the threshold (1 + sqrt(1 + 4|B|))/2 are n < room
    return A - 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * abs(B)))


def _edge(A: float, B: float, room: float) -> float:
    m = A - (math.ceil(room) - 1)
    return m - 1.0 - abs(B) / m


def _clear(room: float) -> bool:
    return room > 0.0 and abs(room - round(room)) >= TIE_GAP


def pdm_edge(w: float, A: float, b: float) -> float | None:
    """Top-level edge of the confined model, None when a level sits at a tie."""
    B = tilt(w, A, b)
    room = _room(A, B)
    return _edge(A, B, room) if _clear(room) else None


def scan_values(start: float, stop: float, step: float) -> list[float]:
    """The values ``scan`` visits: start + i*step up to stop, as its docs state."""
    out, i = [], 0
    while start + i * step <= stop + 1e-12 * step:
        out.append(start + i * step)
        i += 1
    return out


# --- generators --------------------------------------------------------------
#
# Each list is a fixed set of slots.  A slot fixes the kind of job, a narrow
# depth range and its level count; the seed only jitters the parameters
# inside it.  Lists for different seeds therefore do the same amount of work
# to within a few per cent, and their timings can be compared.


def _draw_pdm(rng: random.Random, lo: float, hi: float, count: int, shifted: bool,
              min_edge: float) -> tuple[float, float, float]:
    """(omega0, A, b) with A in [lo, hi], exactly ``count`` levels and a top edge >= min_edge."""
    while True:
        w = round(rng.uniform(0.5, 2.0), 3)
        A = round(rng.uniform(lo, hi), 3)
        b = 0.0
        if shifted:
            b = round(rng.choice((-1, 1)) * rng.uniform(0.01, 0.9) * b_limit(w, A), 4)
            if b == 0.0:
                continue
        B = tilt(w, A, b)
        room = _room(A, B)
        if _clear(room) and math.ceil(room) == count and _edge(A, B, room) >= min_edge:
            return w, A, b


# (A range, level count, b != 0) of the random verify jobs
VERIFY_SLOTS = [((4.76, 4.99), 4, False), ((10.76, 10.99), 10, False),
                ((6.5, 8.5), 5, True), ((12.5, 14.5), 10, True)]
# (A range, level count) of the Rosen-Morse II constant-mass jobs
CONSTANT_MASS_SLOTS = [((3.0, 4.0), 3), ((5.0, 6.0), 4)]
# (A range, level count, b != 0) of the inverse-iteration shape jobs
SHAPE_SLOTS = [((5.76, 5.99), 5, False), ((8.0, 10.0), 6, True)]


def _verify_sweep(rng: random.Random) -> list[Job]:
    jobs = [
        Job("cli", f"verify near-threshold A={A}",
            ["verify", "--omega0", "1", "--A", repr(A)], expect_fail=True)
        for A in NEAR_THRESHOLD_DEPTHS
    ]
    for (lo, hi), count, shifted in VERIFY_SLOTS:
        w, A, b = _draw_pdm(rng, lo, hi, count, shifted, VERIFY_EDGE)
        jobs.append(Job("cli", f"verify A={A} b={b}",
                        ["verify", "--omega0", repr(w), "--A", repr(A), "--b", repr(b)]))
    for (lo, hi), count in CONSTANT_MASS_SLOTS:
        while True:
            A = round(rng.uniform(lo, hi), 3)
            B = round(rng.uniform(-0.6, 0.6) * A, 3)
            room = A - math.sqrt(abs(B))  # Rosen-Morse II: levels need (A-n)^2 > |B|
            if not _clear(room) or math.ceil(room) != count:
                continue
            m = A - (count - 1)
            kappa = m - abs(B) / m  # decay rate of the top level in u
            if kappa >= VERIFY_EDGE:
                break
        # Dirichlet walls where the top level's density has decayed to ~e^-40
        box = round(20.0 / kappa, 3)
        jobs.append(Job("constant_mass", f"constant-mass A={A} B={B}",
                        params={"A": A, "B": B, "box": box, "k": count, "n_grid": 2000}))
    for (lo, hi), count, shifted in SHAPE_SLOTS:
        w, A, b = _draw_pdm(rng, lo, hi, count, shifted, VERIFY_EDGE)
        jobs.append(Job("shape", f"inverse-iteration shape A={A} b={b}",
                        params={"omega0": w, "A": A, "b": b, "n_grid": 800, "k": 3}))
    return jobs


# (A range, level count, b != 0, samples range) of the solve jobs
WAVE_SLOTS = [((3.76, 3.99), 3, False, (100, 120)), ((6.76, 6.99), 6, False, (60, 80)),
              ((9.76, 9.99), 9, False, (40, 60)), ((11.76, 11.99), 11, False, (20, 40)),
              ((15.0, 20.0), 8, True, (60, 80)), ((25.0, 30.0), 12, True, (40, 60)),
              ((40.0, 45.0), 16, True, (20, 40)), ((55.0, 60.0), 20, True, (20, 30))]


def _wavefunction_table(rng: random.Random) -> list[Job]:
    jobs = []
    for (lo, hi), count, shifted, (s_lo, s_hi) in WAVE_SLOTS:
        edge = WAVE_EDGE_SHIFTED if shifted else WAVE_EDGE_B0
        w, A, b = _draw_pdm(rng, lo, hi, count, shifted, edge)
        samples = rng.randint(s_lo, s_hi)
        argv = ["solve", "--omega0", repr(w), "--A", repr(A), "--samples", str(samples)]
        if shifted:
            argv += ["--b", repr(b)]
        jobs.append(Job("cli", f"solve A={A} b={b} samples={samples}", argv))
    return jobs


def _rows_clear(w: float, values: list[float], A: float | None, b: float | None) -> bool:
    for v in values:
        AA, bb = (v, b) if A is None else (A, v)
        if abs(bb) >= 0.999 * b_limit(w, AA) or pdm_edge(w, AA, bb) is None:
            return False
    return True


# (start range, step range, rows, b != 0) of the A-range scans; a shifted
# scan holds b at 0.45-0.55 of its bound at the first row
A_SCAN_SLOTS = [((1.2, 1.3), (0.105, 0.11), 60, False), ((2.4, 2.6), (0.27, 0.28), 80, False),
                ((5.4, 5.6), (0.47, 0.48), 60, False), ((1.9, 2.1), (0.22, 0.23), 50, True),
                ((3.4, 3.6), (0.32, 0.33), 70, True)]
# (A range, rows) of the b-range scans, which run from -(0.7-0.8) to
# +(0.7-0.8) of the admitted b
B_SCAN_SLOTS = [((6.0, 6.5), 25), ((17.0, 18.0), 40), ((34.0, 36.0), 60)]
# integer depths of the quantized-length jobs
JAFAROV_SLOTS = [(8, 12), (45, 50), (95, 100), (143, 148)]


def _spectrum_scan(rng: random.Random) -> list[Job]:
    jobs = []
    for (s_lo, s_hi), (d_lo, d_hi), rows, shifted in A_SCAN_SLOTS:
        while True:
            w = round(rng.uniform(0.5, 2.0), 3)
            start = round(rng.uniform(s_lo, s_hi), 3)
            step = round(rng.uniform(d_lo, d_hi), 3)
            stop = round(start + step * (rows - 1), 3)
            b = 0.0
            if shifted:
                b = round(rng.choice((-1, 1)) * rng.uniform(0.45, 0.55) * b_limit(w, start), 4)
            values = scan_values(start, stop, step)
            if len(values) == rows and _rows_clear(w, values, None, b):
                break
        argv = ["scan", "--omega0", repr(w), "--A-start", repr(start), "--A-stop", repr(stop),
                "--A-step", repr(step)]
        if shifted:
            argv += ["--b", repr(b)]
        jobs.append(Job("cli", f"scan A {start}..{stop} b={b}", argv,
                        params={"omega0": w, "b": b, "values": values}))
    for (lo, hi), rows in B_SCAN_SLOTS:
        while True:
            w = round(rng.uniform(0.5, 2.0), 3)
            A = round(rng.uniform(lo, hi), 3)
            lim = b_limit(w, A)
            start = round(-rng.uniform(0.7, 0.8) * lim, 4)
            step = round(-2.0 * start / (rows - 1), 5)
            stop = round(start + step * (rows - 1), 4)
            values = scan_values(start, stop, step)
            if len(values) == rows and _rows_clear(w, values, A, None):
                break
        argv = ["scan", "--omega0", repr(w), "--A", repr(A), "--b-start", repr(start),
                "--b-stop", repr(stop), "--b-step", repr(step)]
        jobs.append(Job("cli", f"scan A={A} b {start}..{stop}", argv,
                        params={"omega0": w, "A": A, "values": values}))
    for lo, hi in JAFAROV_SLOTS:
        w = round(rng.uniform(0.5, 2.0), 3)
        l = rng.randint(lo, hi)
        jobs.append(Job("cli", f"jafarov l={l}", ["jafarov", "--omega0", repr(w), "--l", str(l)]))
    return jobs


_GENERATORS = {
    "verify_sweep": _verify_sweep,
    "wavefunction_table": _wavefunction_table,
    "spectrum_scan": _spectrum_scan,
}


def build(workload: str, seed: int) -> list[Job]:
    """The fixed job list of a workload for a seed."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))


# --- running -----------------------------------------------------------------


def _run_cli(job: Job) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(job.argv))
    return rc, buf.getvalue()


def _run_constant_mass(job: Job) -> oracle.SpectrumReport:
    q = job.params
    return oracle.solve_constant_mass_numeric(
        RosenMorseParams(q["A"], q["B"]), q["box"], q["k"], q["n_grid"]
    )


def _run_shape(job: Job) -> tuple[list[float], list, float]:
    # discretize -> Sturm bisection -> inverse iteration, as the oracle's users do
    q = job.params
    w, b = q["omega0"], q["b"]
    a = oscillator.confinement_length(w, q["A"])
    x0 = 2.0 * b / w
    grid = oracle.Grid1D(-a, a, q["n_grid"])
    op = oracle.discretize_bdd(
        partial(pct.mass, pct.MassProfile(a)), lambda x: 0.25 * w * w * (x - x0) ** 2, grid
    )
    eigs = oracle.eigenvalues_sturm(op, q["k"])
    return eigs, [oracle.eigenvector(op, lam, grid.h) for lam in eigs], grid.h


RUNNERS = {"cli": _run_cli, "constant_mass": _run_constant_mass, "shape": _run_shape}


def run(job: Job):
    return RUNNERS[job.kind](job)
