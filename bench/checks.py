"""Checks of every job's output against the mpmath reference and the method's properties.

``outcome(job, output)`` returns ``(failed, problems)``.  ``problems`` lists
what is wrong in the output; a job with problems has failed.  A named
near-threshold ``verify`` job fails without problems when ``verify`` exits 3
while the closed-form energies it printed match the reference.
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import reference as ref

# closed-form energies and the factorial normalization are exact formulas
# evaluated in double precision
CLOSED_FORM_RTOL = 1e-12
# verify's own tolerance on its extrapolated eigenvalues
VERIFY_RTOL = 1e-5
NORM_TOL = 1e-6
# psi at a sample against the reference, as a share of the level's largest sample
PSI_TOL = 1e-10
# |<psi_FD, psi_closed>| on an 800-point grid; the FD shape error is O(h^2)
SHAPE_TOL = 1e-4
# one grid without extrapolation, O(h^2) on 800 points
SHAPE_EIG_RTOL = 1e-4


def _energies_match(problems, what, got, want, rtol=CLOSED_FORM_RTOL):
    if len(got) != len(want):
        problems.append(f"{what}: {len(got)} levels, reference has {len(want)}")
        return
    for n, (g, w) in enumerate(zip(got, want)):
        err = ref.rel_diff(g, w)
        if not err <= rtol:
            problems.append(f"{what}: level {n} off by {err:.2e} (tolerance {rtol:g})")


def _params(argv: list[str]) -> dict:
    out = {}
    for key, val in zip(argv[1::2], argv[2::2]):
        out[key.lstrip("-")] = val
    return out


def _check_verify(job, rc, payload, problems) -> bool:
    p = _params(job.argv)
    w, A, b = float(p["omega0"]), float(p["A"]), float(p.get("b", 0.0))
    want = ref.energies(w, A, b)
    levels = payload["report"]["levels"]
    _energies_match(problems, "verify analytic", [lv["analytic"] for lv in levels], want)
    misses = [
        n for n, (lv, e) in enumerate(zip(levels, want))
        if not ref.rel_diff(lv["numeric"], e) <= VERIFY_RTOL
    ]
    failed = rc != 0 or not payload["report"]["passed"]
    if failed != bool(misses) or rc not in (0, 3):
        problems.append(
            f"verify exit {rc} disagrees with the reference (levels off by > 1e-5: {misses})"
        )
    if failed and not job.expect_fail:
        problems.append(f"verify failed on levels {misses}")
    return failed


def _check_solve(job, payload, problems) -> None:
    p = _params(job.argv)
    w, A, b = float(p["omega0"]), float(p["A"]), float(p.get("b", 0.0))
    spec = payload["spectrum"]
    if not ref.rel_diff(spec["a"], ref.half_width(w, A)) <= CLOSED_FORM_RTOL:
        problems.append("half-width a differs from the reference")
    want = ref.energies(w, A, b)
    if spec["num_states"] != len(want):
        problems.append(f"num_states {spec['num_states']}, reference {len(want)}")
    _energies_match(problems, "solve", [lv["energy"] for lv in spec["levels"]], want)
    samples = int(p["samples"])
    entries = payload.get("wavefunctions", [])
    if [e["n"] for e in entries] != list(range(len(want))):
        problems.append("wavefunction entries do not cover the levels")
        return
    for entry in entries:
        n = entry["n"]
        if not abs(entry["norm"] - 1.0) <= NORM_TOL:
            problems.append(f"level {n}: norm {entry['norm']!r} misses 1 by more than {NORM_TOL:g}")
        pts = entry["samples"]
        if len(pts) != samples:
            problems.append(f"level {n}: {len(pts)} samples, asked for {samples}")
            continue
        psi = ref.Wavefunction(w, A, b, n)
        pairs = [(pt["psi"], psi(pt["x"])) for pt in pts]
        scale = max(abs(r) for _, r in pairs)
        worst = max(float(abs(mp.mpf(g) - r)) for g, r in pairs) / float(scale)
        if not worst <= PSI_TOL:
            problems.append(f"level {n}: psi off by {worst:.2e} of its largest sample")


def _check_scan(job, text, problems) -> None:
    rows = [line.split(",") for line in text.strip().split("\n")]
    w = job.params["omega0"]
    values = job.params["values"]
    by_A = "A" not in job.params
    counts = [
        ref.level_count(w, v, job.params["b"]) if by_A else ref.level_count(w, job.params["A"], v)
        for v in values
    ]
    kmax = max(counts)
    if rows[0] != ["param", "a", "num_states"] + [f"E{i}" for i in range(kmax)]:
        problems.append(f"scan header {rows[0][:4]}... does not have {kmax} energy columns")
        return
    if len(rows) - 1 != len(values):
        problems.append(f"scan has {len(rows) - 1} rows, expected {len(values)}")
        return
    for row, v, k in zip(rows[1:], values, counts):
        A, b = (v, job.params["b"]) if by_A else (job.params["A"], v)
        if float(row[0]) != v or int(row[2]) != k or len(row) != 3 + kmax:
            problems.append(f"scan row {row[:3]}: expected param {v!r} with {k} levels")
            continue
        if any(cell != "" for cell in row[3 + k:]) or any(cell == "" for cell in row[3:3 + k]):
            problems.append(f"scan row {v!r}: cells not empty exactly past level {k}")
            continue
        _energies_match(problems, f"scan row {v!r}", [float(c) for c in row[3:3 + k]],
                        ref.energies(w, A, b))


def _check_jafarov(job, rc, payload, problems) -> None:
    p = _params(job.argv)
    w, l = float(p["omega0"]), int(p["l"])
    want = ref.energies(w, float(l), 0.0)
    if len(want) != l - 1:
        problems.append(f"reference holds {len(want)} levels at l={l}, expected {l - 1}")
    _energies_match(problems, "jafarov spectrum", [lv["energy"] for lv in payload["spectrum"]["levels"]], want)
    quant = payload["quantized_route"]
    _energies_match(problems, "jafarov quantized route", [lv["energy"] for lv in quant["levels"]], want)
    a = ref.half_width(w, float(l))
    norms = [ref.quantized_norm(l, lv["n"], a) for lv in quant["levels"]]
    for lv, nrm in zip(quant["levels"], norms):
        err = ref.rel_diff(lv["norm"], nrm)
        if not err <= CLOSED_FORM_RTOL:
            problems.append(f"jafarov l={l} n={lv['n']}: normalization off by {err:.2e}")
    if rc != 0 or not payload["comparison"]["matches"]:
        problems.append(f"jafarov exit {rc}, matches={payload['comparison']['matches']}")


def _check_constant_mass(job, report, problems) -> None:
    q = job.params
    want = [ref.rm_energy(q["A"], q["B"], n) for n in range(q["k"])]
    _energies_match(problems, "constant-mass analytic", list(report.analytic), want)
    _energies_match(problems, "constant-mass numeric", list(report.numeric), want, VERIFY_RTOL)


def _check_shape(job, output, problems) -> None:
    eigs, vecs, h = output
    q = job.params
    w, A, b = q["omega0"], q["A"], q["b"]
    a = ref.half_width(w, A)
    want = ref.energies(w, A, b)[: q["k"]]
    _energies_match(problems, "shape eigenvalues", eigs, want, SHAPE_EIG_RTOL)
    nodes = [float(-a + (i + 1) * 2 * a / (q["n_grid"] + 1)) for i in range(q["n_grid"])]
    for n, v in enumerate(vecs):
        psi = ref.Wavefunction(w, A, b, n)
        dot = h * math.fsum(float(vi) * float(psi(x)) for vi, x in zip(v, nodes))
        if not abs(abs(dot) - 1.0) <= SHAPE_TOL:
            problems.append(f"shape level {n}: |<psi_FD, psi_closed>| = {abs(dot):.8f}")


def outcome(job, output) -> tuple[bool, list[str]]:
    """(failed, problems) for one job's output; problems are wrong outputs."""
    problems: list[str] = []
    failed = False
    try:
        if job.kind == "constant_mass":
            _check_constant_mass(job, output, problems)
        elif job.kind == "shape":
            _check_shape(job, output, problems)
        else:
            rc, text = output
            command = job.argv[0]
            if command == "scan":
                if rc != 0:
                    problems.append(f"scan exit {rc}")
                else:
                    _check_scan(job, text, problems)
            else:
                payload = json.loads(text)
                if command == "verify":
                    failed = _check_verify(job, rc, payload, problems)
                elif command == "solve":
                    if rc != 0:
                        problems.append(f"solve exit {rc}")
                    _check_solve(job, payload, problems)
                else:
                    _check_jafarov(job, rc, payload, problems)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return failed or bool(problems), problems
