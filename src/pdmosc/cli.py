"""Command-line front end for the confined-oscillator solver.

Subcommands: ``solve`` (closed-form spectrum, optional wavefunction table),
``verify`` (closed forms against the finite-difference solver), ``jafarov``
(integer-l case with quantized confinement length, cross-checked against the
general solver), ``scan`` (CSV spectrum table over an A or b range).

Exit codes: 0 success, 2 invalid configuration, 3 verification mismatch,
4 numerical non-convergence or an arithmetic fault (overflow, zero
division).  Every error the program finds goes to stderr as a one-line
JSON object; argparse's own failures (a missing required option, a value
that is not a number or not an integer, an unknown option) print usage and
a message to stderr instead, and also exit 2.  Payloads go
to stdout or the ``--out`` path; an ``--out`` path that cannot be written is
a configuration error.  JSON payloads come from one small emitter that
prints the bytes ``json.dumps(payload, indent=2)`` would: a float prints as
its shortest round-trip repr, and NaN and +-inf print as null.  ``solve``
holds each level's samples table as two columns, the x points shared by
every level and the level's psi values, and prints it in the same bytes as
its ``[{"x": x, "psi": psi}, ...]`` form, with the x texts formatted once per
solve.  CSV cells carry 17 significant digits.

Work is bounded: a model with more than MAX_LEVELS levels (a ``solve`` or
``verify`` model, a ``scan`` row, or ``jafarov --l`` above MAX_LEVELS + 1),
a scan of more than MAX_SCAN_ROWS rows, a scan whose rows hold more than
MAX_SCAN_WORK levels in all, a ``verify`` whose levels times ``--grid``
exceed MAX_VERIFY_WORK, and a ``solve --samples`` over k levels whose
(samples + quad) k(k+1)/2 + SOLVE_SAMPLE_WORK samples k exceeds
MAX_SOLVE_WORK are refused with exit 2 before any level is computed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import oracle, oscillator
from .errors import ConvergenceError, ParameterError
from .oscillator import OscillatorParams

VERIFY_TOL = 1e-5
JAFAROV_TOL = 1e-12
# work limits: levels of one model, rows of one scan, and levels times --grid of one
# verify, which admits the default grid up to about A = 209 (2.5 s at A = 200.5)
MAX_LEVELS = 10_000
MAX_SCAN_ROWS = 10_000
MAX_VERIFY_WORK = 700_000
# the levels of all a scan's rows together.  Scans near the limit took 1.6-1.9 s and
# 318 MB (A from 2 to 1414 by 1, 20 MB of CSV), 1.6 s (91 rows of about 9 950 levels)
# and 2.1 s (10 000 rows of about 100 levels) on 2 cores, Python 3.11
MAX_SCAN_WORK = 1_000_000
# solve --samples evaluates level n's degree-n polynomial at --samples + --quad points,
# (samples + quad) k(k+1)/2 steps over k levels, and prints k samples tables; one printed
# sample costs about SOLVE_SAMPLE_WORK steps (2.5e-8 s a step, 3e-6 s a printed sample on
# 2 cores, Python 3.11).  Runs at the limit took 2.0 s (A = 499 at --samples 1), 2.6 s
# (A = 3 at --samples 245 000) and 3.2 s (A = 2 at --samples 495 000)
MAX_SOLVE_WORK = 50_000_000
SOLVE_SAMPLE_WORK = 100
# verify's default --grid is max(VERIFY_GRID_MIN, VERIFY_GRID_PER_A * A), rounded up.  It
# scales with the depth, not the level count: a shift b leaves fewer levels than A - 1
# but no wider states.  Over a sweep of A up to 210 and |b| up to 0.99 of its bound it
# held every level within 1.4e-6 of the closed forms
VERIFY_GRID_MIN = 500
VERIFY_GRID_PER_A = 16


@dataclass(frozen=True)
class _SampleTable:
    # one level's samples as two columns, printed as [{"x": x, "psi": psi}, ...].  x and
    # x_json, the JSON texts of x, are the same lists for every level of one solve
    x: list[float]
    x_json: list[str]
    psi: list[float]


def _sample_json(table: _SampleTable, indent: str) -> str:
    # the bytes the recursion below prints for the table's dict form, in one join with no
    # recursion per point.  A non-finite psi prints as null; a table holds at least one sample
    inner = indent + "  "
    head = inner + "{" + inner + '  "x": '
    mid = "," + inner + '  "psi": '
    tail = inner + "}"
    text, finite = float.__repr__, math.isfinite
    return "[" + ",".join([
        f"{head}{x}{mid}{text(v) if finite(v) else 'null'}{tail}"
        for x, v in zip(table.x_json, table.psi)
    ]) + indent + "]"


def _json_payload(value: object, indent: str = "\n") -> str:
    # the text of json.dumps(value, indent=2) in one recursion, since indent sends
    # json.dumps to its pure-Python encoder.  A float prints as float.__repr__, the
    # shortest text that round-trips bit for bit (repr of an np.float64 is not JSON);
    # NaN and +-inf print as null, since JSON has neither; a dict key must be a str.
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be str, not {type(k).__name__}")
            parts.append(inner + _json_str(k) + ": " + _json_payload(v, inner))
        return "{" + ",".join(parts) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + ",".join([inner + _json_payload(v, inner) for v in value]) + indent + "]"
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, _SampleTable):
        return _sample_json(value, indent)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _csv_cell(v: object) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        # 17 significant digits round-trips any double
        return format(v, ".17g")
    return str(v)


def _csv_text(rows: list[list[object]]) -> str:
    return "\n".join(",".join(_csv_cell(c) for c in row) for row in rows)


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.out is not None:
        try:
            with open(ns.out, "w", encoding="ascii") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            # a missing directory, a directory as the path, no permission: a bad --out
            raise ParameterError(f"cannot write --out {ns.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text + "\n")


def _error(kind: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": kind, "message": message}) + "\n"
    )


def _params_block(p: OscillatorParams) -> dict:
    return {"omega0": p.omega0, "A": p.A, "b": p.b}


def _admit(p: OscillatorParams) -> oscillator._Model:
    # one derivation; a model over the level limit is refused before any level is computed
    model = oscillator._model(p)
    if model.count > MAX_LEVELS:
        raise ParameterError(
            f"omega0={p.omega0!r}, A={p.A!r}, b={p.b!r} holds {model.count} levels, "
            f"above the limit of {MAX_LEVELS}"
        )
    return model


def _spectrum(model: oscillator._Model) -> dict:
    # a and the energies of an admitted model; no level's wavefunction is resolved
    energies = model.energies(range(model.count))
    return {
        "a": model.a,
        "num_states": model.count,
        "levels": [{"n": n, "energy": e} for n, e in enumerate(energies)],
    }


def _spectrum_rows(params: list[float], spectra: list[dict]) -> list[list[object]]:
    # one CSV row per spectrum; columns past a row's last level stay empty
    kmax = max(s["num_states"] for s in spectra)
    rows: list[list[object]] = [
        ["param", "a", "num_states"] + [f"E{i}" for i in range(kmax)]
    ]
    for v, s in zip(params, spectra):
        row: list[object] = [v, s["a"], s["num_states"]]
        row += [lv["energy"] for lv in s["levels"]]
        row += [""] * (kmax - s["num_states"])
        rows.append(row)
    return rows


def _sample_block(model: oscillator._Model, ns: argparse.Namespace) -> list[dict]:
    # the states of an admitted model; their energies are the spectrum's, not recomputed
    a = model.a
    xs = [-a + 2.0 * a * (j + 1) / (ns.samples + 1) for j in range(ns.samples)]
    x_json = [float.__repr__(x) for x in xs]
    points = np.array(xs)
    out = []
    for n in range(model.count):
        psi = model.psi(n)
        out.append(
            {
                "n": n,
                "norm": oracle.overlap(psi, psi, -a, a, ns.quad, graded=True),
                "samples": _SampleTable(xs, x_json, psi(points).tolist()),
            }
        )
    return out


def cmd_solve(ns: argparse.Namespace) -> int:
    if ns.samples < 0:
        raise ParameterError(f"--samples must be >= 0, got {ns.samples}")
    if ns.quad < 1:
        raise ParameterError(f"--quad must be >= 1, got {ns.quad}")
    p = OscillatorParams(ns.omega0, ns.A, ns.b)
    model = _admit(p)
    k = model.count
    work = (ns.samples + ns.quad) * k * (k + 1) // 2 + SOLVE_SAMPLE_WORK * ns.samples * k
    if ns.samples > 0 and work > MAX_SOLVE_WORK:
        raise ParameterError(
            f"solve of {k} levels at --samples {ns.samples} and --quad {ns.quad} is {work} "
            f"steps of work, above the limit of {MAX_SOLVE_WORK}"
        )
    spectrum = _spectrum(model)
    samples = _sample_block(model, ns) if ns.samples > 0 else []
    if ns.format == "csv":
        rows = _spectrum_rows([p.A], [spectrum])
        if samples:
            rows.append([])
            rows.append(["n", "x", "psi"])
            for entry in samples:
                table = entry["samples"]
                rows += [[entry["n"], x, v] for x, v in zip(table.x, table.psi)]
        _emit(ns, _csv_text(rows))
        return 0
    payload = {
        "command": "solve",
        "params": _params_block(p),
        "spectrum": spectrum,
    }
    if samples:
        payload["wavefunctions"] = samples
    _emit(ns, _json_payload(payload))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    p = OscillatorParams(ns.omega0, ns.A, ns.b)
    k = _admit(p).count
    grid = ns.grid
    if grid is None:
        grid = max(VERIFY_GRID_MIN, math.ceil(VERIFY_GRID_PER_A * p.A))
    if k * grid > MAX_VERIFY_WORK:
        raise ParameterError(
            f"verify of {k} levels on --grid {grid} is {k * grid} level-points of work, "
            f"above the limit of {MAX_VERIFY_WORK}"
        )
    if grid // 2 < k:
        # the oracle estimates each level's order on a third grid of --grid // 2 points
        raise ParameterError(
            f"--grid {grid} cannot hold the {k} levels: its order-estimate grid has "
            f"--grid // 2 = {grid // 2} points; use --grid {2 * k} or more"
        )
    report = oracle.solve_pdm_numeric(p, k, grid, estimate_order=True)
    levels = []
    for i in range(k):
        levels.append(
            {
                "n": i,
                "analytic": report.analytic[i],
                "numeric": report.numeric[i],
                "rel_err": report.rel_err[i],
                "order": report.order[i],
            }
        )
    worst = max(report.rel_err)
    passed = worst <= VERIFY_TOL
    payload = {
        "command": "verify",
        "params": _params_block(p),
        "grid": grid,
        "report": {
            "grid_sizes": list(report.grid_sizes),
            "spacings": list(report.spacings),
            "levels": levels,
            "max_rel_err": worst,
            "tolerance": VERIFY_TOL,
            "passed": passed,
        },
    }
    _emit(ns, _json_payload(payload))
    return 0 if passed else 3


def cmd_jafarov(ns: argparse.Namespace) -> int:
    if ns.l - 1 > MAX_LEVELS:
        raise ParameterError(
            f"--l {ns.l} gives {ns.l - 1} levels, above the limit of {MAX_LEVELS}"
        )
    a_l, quant = oscillator._jafarov_levels(ns.omega0, ns.l)
    spectrum = _spectrum(_admit(OscillatorParams(ns.omega0, float(ns.l), 0.0)))
    devs = [abs(a_l - spectrum["a"]) / abs(spectrum["a"])]
    for lv, (e, _) in zip(spectrum["levels"], quant):
        devs.append(abs(e - lv["energy"]) / max(abs(lv["energy"]), 1e-300))
    worst = max(devs)
    matches = worst <= JAFAROV_TOL
    payload = {
        "command": "jafarov",
        "params": {"omega0": ns.omega0, "l": ns.l},
        "spectrum": spectrum,
        "quantized_route": {
            "a": a_l,
            "levels": [
                {"n": n, "energy": e, "norm": norm}
                for n, (e, norm) in enumerate(quant)
            ],
        },
        "comparison": {
            "max_rel_diff": worst,
            "tolerance": JAFAROV_TOL,
            "matches": matches,
        },
    }
    _emit(ns, _json_payload(payload))
    return 0 if matches else 3


def _range_values(rng: tuple[float, float, float]) -> list[float]:
    start, stop, step = rng
    if step <= 0.0:
        raise ParameterError(f"scan step must be positive, got {step!r}")
    if stop < start:
        raise ParameterError(f"empty scan range: stop {stop!r} < start {start!r}")
    if not all(math.isfinite(v) for v in rng):
        raise ParameterError(f"scan range needs a finite start, stop and step, got {rng!r}")
    last = stop + 1e-12 * step
    # (last - start) / step is the row count less one, to within its rounding: a
    # range clearly over the limit is refused before any row is made, and the
    # loop's own test decides the rest
    if (last - start) / step < MAX_SCAN_ROWS + 1:
        vals: list[float] = []
        while len(vals) <= MAX_SCAN_ROWS and start + len(vals) * step <= last:
            vals.append(start + len(vals) * step)
        if len(vals) <= MAX_SCAN_ROWS:
            return vals
    raise ParameterError(
        f"scan from {start!r} to {stop!r} by {step!r} has more than {MAX_SCAN_ROWS} rows, the limit"
    )


def cmd_scan(ns: argparse.Namespace) -> int:
    a_range, b_range = _scan_ranges(ns)
    if a_range is not None:
        params = [OscillatorParams(ns.omega0, v, ns.b) for v in _range_values(a_range)]
        col = [p.A for p in params]
    else:
        params = [OscillatorParams(ns.omega0, ns.A, v) for v in _range_values(b_range)]
        col = [p.b for p in params]
    models = [_admit(p) for p in params]
    work = sum(m.count for m in models)
    if work > MAX_SCAN_WORK:
        raise ParameterError(
            f"scan of {len(models)} rows holds {work} levels in all, above the limit of "
            f"{MAX_SCAN_WORK}"
        )
    _emit(ns, _csv_text(_spectrum_rows(col, [_spectrum(m) for m in models])))
    return 0


def _scan_ranges(ns: argparse.Namespace) -> tuple[tuple | None, tuple | None]:
    a_parts = (ns.A_start, ns.A_stop, ns.A_step)
    b_parts = (ns.b_start, ns.b_stop, ns.b_step)
    a_given = any(v is not None for v in a_parts)
    b_given = any(v is not None for v in b_parts)
    if a_given and None in a_parts:
        raise ParameterError("--A-start/--A-stop/--A-step must be given together")
    if b_given and None in b_parts:
        raise ParameterError("--b-start/--b-stop/--b-step must be given together")
    if a_given == b_given:
        raise ParameterError("scan needs exactly one of an A-range or a b-range")
    if b_given and ns.A is None:
        raise ParameterError("a b-range scan needs a fixed --A")
    return (a_parts if a_given else None, b_parts if b_given else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmosc",
        description="Bound states of the confined oscillator with a "
        "position-dependent mass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        sp.add_argument("--omega0", type=float, required=True,
                        help="oscillator frequency (> 0)")
        sp.add_argument("--out", help="write the payload to this path")
        return sp

    def well(sp: argparse.ArgumentParser, required: bool = True,
             a_help: str = "potential depth parameter (> 1)",
             b_help: str = "shift parameter") -> None:
        sp.add_argument("--A", type=float, required=required, help=a_help)
        sp.add_argument("--b", type=float, default=0.0, help=b_help)

    sp = command("solve", cmd_solve, "closed-form spectrum and wavefunctions")
    well(sp)
    sp.add_argument("--samples", type=int, default=0,
                    help="interior sample count per wavefunction")
    sp.add_argument("--quad", type=int, default=400,
                    help="quadrature size for the norm column")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = command("verify", cmd_verify, "cross-check against the grid solver")
    well(sp)
    sp.add_argument("--grid", type=int,
                    help="base grid size, also solved at half and twice this "
                    f"(default: max({VERIFY_GRID_MIN}, {VERIFY_GRID_PER_A} A) rounded up)")

    sp = command("jafarov", cmd_jafarov, "integer-l quantized-length case")
    sp.add_argument("--l", type=int, required=True,
                    help="integer depth parameter (>= 2)")

    sp = command("scan", cmd_scan, "CSV table over an A or b range")
    well(sp, False, "fixed A for a b-range scan", "fixed b for an A-range scan")
    for name in ("A", "b"):
        for part in ("start", "stop", "step"):
            sp.add_argument(f"--{name}-{part}", type=float)
    return parser


# built once: parsing leaves the parser unchanged, and each call gets a new namespace
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    ns = _PARSER.parse_args(argv)
    try:
        return ns.handler(ns)
    except (ConvergenceError, ArithmeticError) as exc:
        # non-convergence, and overflow, zero division or a floating-point trap
        _error("numerical", str(exc))
        return 4
    except ValueError as exc:
        # ParameterError/DomainError and relatives: bad configuration
        _error("config", str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
