"""Command-line front end for the confined-oscillator solver.

Subcommands: ``solve`` (closed-form spectrum, optional wavefunction table),
``verify`` (closed forms against the finite-difference solver), ``jafarov``
(integer-l case with quantized confinement length, cross-checked against the
general solver), ``scan`` (CSV spectrum table over an A or b range).

Exit codes: 0 success, 2 invalid configuration, 3 verification mismatch,
4 numerical non-convergence or an arithmetic fault (overflow, zero
division).  A ``solve --samples`` level whose psi or norm is not finite,
where the polynomial recurrence overflows, is such a fault: the first such
level is named and no payload prints, in either format.  Every error the
program finds goes to stderr as a one-line JSON object; argparse's own
failures (a missing required option, a value that is not a number or not
an integer, an unknown option) print usage and a message to stderr
instead, and also exit 2.  Payloads go to stdout or the ``--out`` path;
an ``--out`` path that cannot be written is a configuration error.  JSON
payloads come from one small emitter that
prints the bytes ``json.dumps(payload, indent=2)`` would: a float prints as
its shortest round-trip repr, and NaN and +-inf print as null.  ``solve``
holds each level's samples table as two columns, the x points shared by
every level and the level's psi values, and prints it in the same bytes as
its ``[{"x": x, "psi": psi}, ...]`` form, with the x texts formatted once per
solve.  It evaluates every level in one pass, with one polynomial call per
solve (the levels' recurrences step together, so k levels take O(k) array
operations): JSON on the norm rule's nodes joined with the sample points,
CSV on the sample points alone.  CSV cells carry 17 significant digits.

Work is bounded before any level is computed, with exit 2: a model with more
than MAX_LEVELS levels (a ``solve`` or ``verify`` model, a ``scan`` row, or
``jafarov --l`` above MAX_LEVELS + 1) and a scan of more than MAX_SCAN_ROWS
rows are refused, and so is any run whose estimate exceeds MAX_WORK steps.
Each estimate is in one unit, a polynomial step:
``solve --samples`` over k levels is (samples + rule) k(k+1)/2 + SAMPLE_WORK
samples k, where rule is the size of the norm column's graded rule,
max(NORM_RULE_MIN, NORM_RULE_PER_A A) nodes rounded up, for either format;
``verify`` is FD_WORK grid (k + 3), where grid is max(VERIFY_GRID_MIN,
VERIFY_GRID_PER_A A) points rounded up; ``scan`` is LEVEL_WORK times the levels
of all its rows.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from . import oracle, oscillator
from .errors import ConvergenceError, ParameterError
from .oscillator import OscillatorParams

VERIFY_TOL = 1e-5
JAFAROV_TOL = 1e-12
# work limits: levels of one model, and rows of one scan, which bounds the list a range
# makes before any row is made (admitting 10 000 rows takes about 0.2 s)
MAX_LEVELS = 10_000
MAX_SCAN_ROWS = 10_000
# every other cost is counted in one unit, a polynomial step of about 1e-8 s, and a run
# whose estimate exceeds MAX_WORK steps is refused before any level is computed.  The
# weights are fitted from timed runs:
# - SAMPLE_WORK, one printed sample of solve --samples.  A sample costs about 4e-6 s; the
#   weight is set above that so that the JSON table's peak RSS stays near 250 MB (A = 2 at
#   490 847 samples);
# - FD_WORK, one level on one point of verify's grid, counted over grid (k + 3) so that a
#   run's fixed cost is paid too.  At A = 208, the deepest depth admitted, a level-point
#   cost 3-3.6e-6 s when b != 0, before Newton steps below 1e-8 relative landed on two
#   counts and each grid started on the quadratic through three; it now costs 2.5-3.1e-6 s
#   (verify --A 208 --b 0.001: 1.7-2.1 s, against 2.1-2.2 s before).  At b = 0 the oracle
#   folds its mirror-symmetric operator into two halves and takes about half that
#   (verify --A 208: 0.9-1.3 s, against 1.2-1.6 s before); the weight stays at the b != 0
#   cost of before, as a margin;
# - LEVEL_WORK, one level of one scan row.
# The deepest admitted runs took 2.1-2.2 s (solve --A 581 --samples 1), 2.1-2.4 s (--A 2
# --samples 490 847), 1.7-2.1 s (verify --A 208 --b 0.001) and 2.2-2.3 s (scan of A from 2
# to 1426 by 1), 3 runs each on 2 cores shared with other load, Python 3.11
MAX_WORK = 295_000_000
SAMPLE_WORK = 600
FD_WORK = 420
LEVEL_WORK = 290
# the norm column's graded rule has max(NORM_RULE_MIN, NORM_RULE_PER_A A) nodes, rounded
# up.  The nodes a level needs grow with the depth, not with n: A = 100, 200 and 300 at
# b = 0 need 200, 400 and 600 for every level to within 1e-10, and at A = 499 level 41
# already needs 400.  Over 450 random models with A from 100 to 502 and |b| up to 0.95 of
# its bound, every level whose smaller envelope exponent m - 1 - |B|/m is at least 0.5
# came within 6e-11 of 1.  A top level closer to its threshold converges only
# algebraically (2.5e-8 at 0.1)
NORM_RULE_MIN = 400
NORM_RULE_PER_A = 3
# verify's grid is max(VERIFY_GRID_MIN, VERIFY_GRID_PER_A * A) points, rounded up.  It
# scales with the depth, not the level count: a shift b leaves fewer levels than A - 1
# but no wider states.  Over a sweep of A up to 210 and |b| up to 0.99 of its bound it
# held every level within 1.4e-6 of the closed forms
VERIFY_GRID_MIN = 500
VERIFY_GRID_PER_A = 16


@dataclass(frozen=True)
class _SampleTable:
    # one level's samples as two columns, printed as [{"x": x, "psi": psi}, ...].  x_json,
    # the JSON texts of the sample points, is the same list for every level of one solve
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
            # a plain float or int value prints here, without a call; a subclass (a bool,
            # an np.float64) takes the recursion, as every other value does
            t = type(v)
            if t is float:
                text = float.__repr__(v) if math.isfinite(v) else "null"
            elif t is int:
                text = int.__repr__(v)
            else:
                text = _json_payload(v, inner)
            parts.append(inner + _json_str(k) + ": " + text)
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


def _csv_text(rows: Iterable[list[object]]) -> str:
    # a plain float cell is formatted here, as _csv_cell would; every other cell goes to it
    return "\n".join(
        ",".join([format(c, ".17g") if type(c) is float else _csv_cell(c) for c in row])
        for row in rows
    )


def _emit(ns: argparse.Namespace, text: str) -> None:
    # text and its newline in two writes, so a payload of many MB is not copied once more
    if ns.out is not None:
        try:
            with open(ns.out, "w", encoding="ascii") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            # a missing directory, a directory as the path, no permission: a bad --out
            raise ParameterError(f"cannot write --out {ns.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


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


def _refuse_over(work: int, what: str) -> None:
    # the one work check: every command's estimate is in polynomial steps
    if work > MAX_WORK:
        raise ParameterError(f"{what} is {work} steps of work, above the limit of {MAX_WORK}")


def _spectrum(model: oscillator._Model) -> dict:
    # the JSON spectrum block of an admitted model; no level's wavefunction is resolved
    energies = model.energies(range(model.count))
    return {
        "a": model.a,
        "num_states": model.count,
        "levels": [{"n": n, "energy": e} for n, e in enumerate(energies)],
    }


def _spectrum_rows(params: list[float], models: list[oscillator._Model]) -> Iterator[list[object]]:
    # one CSV row per admitted model, each made as it is joined; columns past a row's last
    # level stay empty.  No level's wavefunction is resolved
    kmax = max(m.count for m in models)
    yield ["param", "a", "num_states"] + [f"E{i}" for i in range(kmax)]
    for v, m in zip(params, models):
        yield [v, m.a, m.count, *m.energies(range(m.count))] + [""] * (kmax - m.count)


def _sample_points(model: oscillator._Model, samples: int) -> list[float]:
    a = model.a
    return [-a + 2.0 * a * (j + 1) / (samples + 1) for j in range(samples)]


def _refuse_nonfinite(psi: np.ndarray, norms: list[float] | None = None) -> None:
    # the levels' recurrence can overflow at depths the work estimate admits; a level with a
    # non-finite psi (one row of the block) or norm is an arithmetic fault, exit 4, and the
    # first such level is named.  When every value is finite, this is one pass over the block
    if np.isfinite(psi).all() and all(map(math.isfinite, norms or ())):
        return
    bad = ~np.isfinite(psi).all(axis=1)
    if norms is not None:
        bad |= ~np.isfinite(norms)
    raise OverflowError(
        f"level {int(bad.argmax())} of {bad.size} evaluates to a non-finite psi or norm: "
        "its polynomial recurrence overflows at this depth"
    )


def _norms_and_samples(
    model: oscillator._Model, rule: int, points: np.ndarray
) -> tuple[list[float], list[list[float]]]:
    # every level in one evaluation, on the norm rule's nodes joined with the sample points:
    # the norms sum the nodes' part of each row and the rest is psi at the points.  Each
    # entry is bit for bit its one-point value, so both are those of separate evaluations
    at_points = []

    def joined(x: np.ndarray) -> np.ndarray:
        values = model.psi_rows(np.concatenate((x, points)))
        at_points.append(values[:, x.size:])
        return values[:, : x.size]

    norms = oracle.norms(joined, -model.a, model.a, rule, graded=True)
    _refuse_nonfinite(at_points[0], norms)
    return norms, at_points[0].tolist()


def _sample_rows(model: oscillator._Model, samples: int) -> Iterator[list[object]]:
    # the CSV samples table, each row made as it is joined, from every level evaluated at
    # once.  It prints no norm, so the levels are evaluated at the sample points alone
    xs = _sample_points(model, samples)
    block = model.psi_rows(np.array(xs))
    _refuse_nonfinite(block)
    for n, psi in enumerate(block):
        for x, v in zip(xs, psi.tolist()):
            yield [n, x, v]


def cmd_solve(ns: argparse.Namespace) -> int:
    if ns.samples < 0:
        raise ParameterError(f"--samples must be >= 0, got {ns.samples}")
    p = OscillatorParams(ns.omega0, ns.A, ns.b)
    model = _admit(p)
    k = model.count
    rule = max(NORM_RULE_MIN, math.ceil(NORM_RULE_PER_A * p.A))
    if ns.samples > 0:
        # level n's degree-n polynomial on the samples and the rule's nodes, and k printed
        # tables.  One estimate for both formats: the CSV table builds no rule, but its rule
        # term keeps it to the depths where JSON's is admitted
        _refuse_over(
            (ns.samples + rule) * k * (k + 1) // 2 + SAMPLE_WORK * ns.samples * k,
            f"solve of {k} levels at --samples {ns.samples} with a {rule}-node norm rule",
        )
    if ns.format == "csv":
        rows = _spectrum_rows([p.A], [model])
        if ns.samples > 0:
            rows = chain(rows, [[], ["n", "x", "psi"]], _sample_rows(model, ns.samples))
        _emit(ns, _csv_text(rows))
        return 0
    payload = {
        "command": "solve",
        "params": _params_block(p),
        "spectrum": _spectrum(model),
    }
    if ns.samples > 0:
        xs = _sample_points(model, ns.samples)
        x_json = [float.__repr__(x) for x in xs]
        norms, psi = _norms_and_samples(model, rule, np.array(xs))
        payload["wavefunctions"] = [
            {"n": n, "norm": norm, "samples": _SampleTable(x_json, values)}
            for n, (norm, values) in enumerate(zip(norms, psi))
        ]
    _emit(ns, _json_payload(payload))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    p = OscillatorParams(ns.omega0, ns.A, ns.b)
    k = _admit(p).count
    # the oracle's order-estimate grid, half of this one, has at least 250 points and more
    # than 8 A - 1, so it always holds the k < A levels
    grid = max(VERIFY_GRID_MIN, math.ceil(VERIFY_GRID_PER_A * p.A))
    _refuse_over(FD_WORK * grid * (k + 3), f"verify of {k} levels on its {grid}-point grid")
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
    levels = sum(m.count for m in models)
    _refuse_over(LEVEL_WORK * levels, f"scan of {len(models)} rows holding {levels} levels")
    _emit(ns, _csv_text(_spectrum_rows(col, models)))
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
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = command("verify", cmd_verify, "cross-check against the grid solver")
    well(sp)

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
