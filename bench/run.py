"""Benchmark of pdmosc: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; pdmosc is imported from ``src/``.  The jobs of
the workload's list are timed in round-robin passes for ``--seconds``, each
against a calibration kernel run around it, and each job's figure is its
median over the passes.  Every output is then checked against the mpmath
reference (``checks.py``).  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 9
# a traced pass of wavefunction_table holds about a million spans
MAX_TRACED_PASSES = 3

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import probe; p = probe.Probe(); p.start(); "
    "import jobs; jobs.build(sys.argv[3], int(sys.argv[4])); p.stop(); "
    "print(p.samples + probe.boundary())"
)

PER_LAYER = [
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.self_s", "cli.main", "self"),
    ("pct.map_parameters.calls", "pct.map_parameters", "calls"),
    ("pct.map_parameters.self_s", "pct.map_parameters", "self"),
    ("pct.mass.calls", "pct.mass", "calls"),
    ("oscillator.wavefunction.calls", "oscillator.wavefunction", "calls"),
    ("oscillator.wavefunction.self_s", "oscillator.wavefunction", "self"),
    ("oscillator.energy.calls", "oscillator.energy", "calls"),
    ("oscillator.energy.self_s", "oscillator.energy", "self"),
    ("oscillator.num_bound_states.calls", "oscillator.num_bound_states", "calls"),
    ("oscillator.jafarov_case.self_s", "oscillator.jafarov_case", "self"),
    ("rosen_morse.rm_energy.calls", "rosen_morse.rm_energy", "calls"),
    ("rosen_morse.rm_energy.self_s", "rosen_morse.rm_energy", "self"),
    ("rosen_morse.rm_potential.calls", "rosen_morse.rm_potential", "calls"),
    ("rosen_morse.rm_wavefunction.calls", "rosen_morse.rm_wavefunction", "calls"),
    ("special_fn.ln_gamma.calls", "special_fn.ln_gamma", "calls"),
    ("special_fn.ln_gamma.self_s", "special_fn.ln_gamma", "self"),
    ("special_fn.poly.calls", "special_fn.poly", "calls"),
    ("special_fn.poly.self_s", "special_fn.poly", "self"),
    ("special_fn.gauss_legendre.self_s", "special_fn.gauss_legendre", "self"),
    ("oracle.eigenvalues_sturm.levels", "oracle.eigenvalues_sturm", "levels"),
    ("oracle.eigenvalues_sturm.self_s", "oracle.eigenvalues_sturm", "self"),
    ("oracle.discretize_bdd.self_s", "oracle.discretize_bdd", "self"),
    ("oracle.solve_pdm_numeric.self_s", "oracle.solve_pdm_numeric", "self"),
    ("oracle.eigenvector.calls", "oracle.eigenvector", "calls"),
    ("oracle.eigenvector.self_s", "oracle.eigenvector", "self"),
    ("oracle.overlap.calls", "oracle.overlap", "calls"),
    ("oracle.overlap.self_s", "oracle.overlap", "self"),
]


class Clock:
    """Times calls in wall seconds and in reference seconds (see probe.py)."""

    def __init__(self) -> None:
        self.last = probe.boundary()

    def time(self, fn, *args):
        """(result, wall seconds of fn's own work, reference seconds of it)."""
        ticks = probe.Probe()
        ticks.start()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            ticks.stop()
        before, self.last = self.last, probe.boundary()
        inside = sum(ticks.samples)
        kernels = before + ticks.samples + self.last
        return out, wall - inside, probe.reference_seconds(wall, kernels, inside)


def _setup_seconds(workload: str, seed: int) -> float:
    """Reference seconds of a fresh interpreter importing pdmosc and building the job list.

    The child probes the speed of the core it runs on and prints its kernel times.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    kernels = json.loads(proc.stdout)
    return probe.reference_seconds(wall, kernels, sum(kernels))


def _same(a, b) -> bool:
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "tobytes"):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


class Passes:
    """Round-robin passes over a job list.

    Keeps every job's reference-second times, its best wall time and its
    first output; later outputs must equal the first.
    """

    def __init__(self, job_list, run):
        self.jobs = job_list
        self.run = run
        self.clock = Clock()
        self.ref_times: list[list[float]] = [[] for _ in job_list]
        self.best_wall = [math.inf] * len(job_list)
        self.first = [None] * len(job_list)
        self.changed = [0] * len(job_list)
        self.count = 0

    def one_pass(self, on_job=None) -> None:
        for i, job in enumerate(self.jobs):
            if on_job is not None:
                on_job(i)
            out, wall, ref = self.clock.time(self.run, job)
            self.ref_times[i].append(ref)
            self.best_wall[i] = min(self.best_wall[i], wall)
            if self.first[i] is None:
                self.first[i] = out
            elif not _same(out, self.first[i]):
                self.changed[i] += 1
        self.count += 1

    def for_seconds(self, seconds: float, max_passes: int | None = None, on_job=None,
                    after_pass=None) -> None:
        """Whole passes while the next one is expected to end within ``seconds``."""
        t0 = time.perf_counter()
        done = 0
        while True:
            self.one_pass(on_job)
            done += 1
            if after_pass is not None:
                after_pass()
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / done > seconds or done == max_passes:
                return

    def job_seconds(self, first_pass: int = 0) -> list[float]:
        """Each job's median reference-second time over passes from ``first_pass`` on."""
        return [statistics.median(t[first_pass:]) for t in self.ref_times]


def _trace(passes: Passes, seconds: float, workload: str) -> dict:
    """Traced passes after the untraced ones; per-layer metrics per pass."""
    import numpy as np
    import spans

    tracer = spans.Tracer()
    marks = [tracer.mark()]
    levels = [0]
    untraced = passes.job_seconds()
    first_traced = passes.count

    def on_job(i: int) -> None:
        tracer.job_id = i

    def after_pass() -> None:
        marks.append(tracer.mark())
        levels.append(tracer.sturm_levels)

    t0 = time.perf_counter()
    tracer.install()
    try:
        passes.for_seconds(seconds, MAX_TRACED_PASSES, on_job, after_pass)
    finally:
        tracer.uninstall()
    arrays = tracer.arrays()
    per_pass = [tracer.totals(lo, hi, arrays) for lo, hi in zip(marks, marks[1:])]
    calls = [c for c, _ in per_pass]
    if any(not np.array_equal(c, calls[0]) for c in calls):
        print("warning: call counts differ between traced passes", file=sys.stderr)
    self_s = np.median(np.array([s for _, s in per_pass]), axis=0)
    sturm = [b - a for a, b in zip(levels, levels[1:])]
    index = {name: i for i, name in enumerate(tracer.names)}
    metrics = {}
    for metric, span, what in PER_LAYER:
        if what == "calls":
            metrics[metric] = {"value": int(calls[0][index[span]]), "unit": "count"}
        elif what == "levels":
            metrics[metric] = {"value": sturm[0], "unit": "count"}
        else:
            metrics[metric] = {"value": float(self_s[index[span]]), "unit": "s"}
    traced = sum(passes.job_seconds(first_traced))
    overhead = traced / sum(untraced) - 1.0
    print(f"tracing overhead: {100.0 * overhead:+.1f}% (jobs' median times summed: traced"
          f" {traced:.4f} s vs untraced {sum(untraced):.4f} s, reference seconds;"
          f" {len(per_pass)} traced passes, {tracer.mark()} spans)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}.npz"
    tracer.save(path, t0, arrays)
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pdmosc" / "__init__.py").is_file():
        print(f"error: no pdmosc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs

    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(jobs.WORKLOADS)}",
              file=sys.stderr)
        return 2

    if not args.trace:
        setup = statistics.median(
            _setup_seconds(args.workload, args.seed) for _ in range(SETUP_RUNS)
        )
    job_list = jobs.build(args.workload, args.seed)
    passes = Passes(job_list, jobs.run)
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    passes.for_seconds(untraced_seconds)
    untraced_passes = passes.count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = passes.job_seconds()
    best_wall = list(passes.best_wall)

    if args.trace:
        metrics = _trace(passes, args.seconds - untraced_seconds, args.workload)
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    import checks

    failed = 0
    correct = True
    for i, job in enumerate(job_list):
        job_failed, problems = checks.outcome(job, passes.first[i])
        if passes.changed[i]:
            problems.append(f"output changed between passes in {passes.changed[i]} passes")
        failed += passes.changed[i] + (passes.count - passes.changed[i]) * job_failed
        if problems:
            correct = False
            for p in problems:
                print(f"FAIL [{job.label}] {p}", file=sys.stderr)
        elif job_failed:
            print(f"expected failure [{job.label}]: exits 3 while its closed-form energies"
                  " match the reference")

    print(f"workload {args.workload}, seed {args.seed}: {len(job_list)} jobs,"
          f" {untraced_passes} untraced passes, {passes.count - untraced_passes} traced passes;"
          f" wall-clock best-of-passes: {len(best_wall) / sum(best_wall):.4g} jobs/s,"
          f" median job {statistics.median(best_wall):.4g} s")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']!r} {m['unit']}")
    result = {
        "correct": correct,
        "attempted": passes.count * len(job_list),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
