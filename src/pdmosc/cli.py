"""Command-line front end for the confined-oscillator solver.

Subcommands: ``solve`` (closed-form spectrum, optional wavefunction table),
``verify`` (closed forms against the finite-difference solver), ``jafarov``
(integer-l case with quantized confinement length, cross-checked against the
general solver), ``scan`` (CSV spectrum table over an A or b range; a fixed
``--A`` with an A-range or ``--b`` with a b-range is a configuration error,
and so is a step too small to change the value from one row to the next).
Every command derives each model once, as one ``OscillatorParams``, whose
constructor makes the one parameter map, which validates it and gives its
level count: a ``solve`` or ``jafarov`` model, each ``scan`` row, and the
``verify`` model, which sets the work and is handed to the oracle as it is.
Every spectrum, JSON or CSV, and ``verify``'s analytic column, is the
model's ungated ``OscillatorParams._spectrum``, since its levels lie inside
the unshifted well's window.
A scan maps every row before any row's level limit is checked.
numpy is imported at its first use (``pdmosc._numpy``), so ``scan``,
``jafarov``, ``solve`` without ``--samples`` and every refusal made before a
state or grid exists run without it.
A negative number in exponent form after an option (``--b -1e-05``,
``--b -inf``) is joined to it as ``--b=-1e-05`` before parsing, since
argparse by itself reads such a token as an option.  The rule is one test on
the token before the number: a long option written without ``=``, in full or
as a prefix argparse expands (``--ome``), since every option but ``--help``
takes one value.  ``--`` and any prefix of ``--help`` are never joined.

Exit codes: 0 success, 2 invalid configuration, 3 verification mismatch,
4 numerical non-convergence or an arithmetic fault (overflow, zero
division).  A ``solve --samples`` level whose psi or norm is not finite,
where the polynomial recurrence overflows, is such a fault: the first such
level is named and no payload prints, in either format.  Every error the
program finds goes to stderr as a one-line JSON object; argparse's own
failures (a missing required option, a value that is not a number or not
an integer, an unknown option) print usage and a message to stderr
instead, and also exit 2; ``main`` returns argparse's exit codes (0 after
the help) and raises no ``SystemExit``.  Payloads and the help go to stdout
or the ``--out`` path, under one rule: an ``--out`` path that cannot be
written, or a stdout that cannot (a pipe whose reader has gone), is a
configuration error, exit 2 with one ``config`` line; stdout is then pointed
at the null device, so that the interpreter's last flush at exit prints
nothing more.  A stderr that cannot be written takes nothing and is pointed
at the null device the same way, and the run keeps its exit code.  JSON
payloads come from one small emitter that prints the bytes
``json.dumps(payload, indent=2)`` would: a float prints as its shortest
round-trip repr, and NaN and +-inf print as null.  ``solve``
holds each level's samples table as two columns, the x points shared by
every level and the level's psi values, and prints it in the same bytes as
its ``[{"x": x, "psi": psi}, ...]`` form, with the x texts formatted once per
solve.  It evaluates every level in one pass, with one polynomial call per
solve (the levels' recurrences step together, so k levels take O(k) array
operations): JSON on the graded rule's nodes joined with the sample points,
where each norm sums its row as ``oracle.overlap`` with ``graded=True``
does, and CSV on the sample points alone.  A CSV float cell prints with 17
significant digits, and any other cell (an int, a str) as ``str`` prints it.

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
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from itertools import chain
from typing import Iterable, Iterator, TextIO

from . import oracle, oscillator
from .oscillator import OscillatorParams
from ._numpy import np
from .errors import ConvergenceError, ParameterError

VERIFY_TOL = 1e-5
JAFAROV_TOL = 1e-12
# work limits: levels of one model, and rows of one scan, which bounds the list a range
# makes before any row is made (admitting 10 000 rows takes about 0.2 s)
MAX_LEVELS = 10_000
MAX_SCAN_ROWS = 10_000
# every other cost is counted in one unit, a polynomial step of about 1e-8 s, and a run
# whose estimate exceeds MAX_WORK steps is refused before any level is computed.  The
# weights are fitted from timed runs:
# - SAMPLE_WORK, one printed sample of solve --samples.  A sample costs about 3e-6 s; the
#   weight is set above that to hold the JSON table's peak RSS (A = 2 at 490 847 samples:
#   288 MB);
# - FD_WORK, one level on one point of verify's grid, counted over grid (k + 3) so that a
#   run's fixed cost is paid too.  At A = 208, the deepest depth admitted, a level-point
#   costs about 2e-6 s when b != 0 (verify --A 208 --b 0.001: 1.38-1.42 s), and about half
#   that at b = 0, where the oracle folds its mirror-symmetric operator into two halves
#   (verify --A 208: 0.75-0.77 s).  The weight is the b != 0 cost of 3-3.6e-6 s measured
#   before the oracle's Newton steps landed on its counts, kept as a margin;
# - LEVEL_WORK, one level of one scan row.
# The deepest admitted runs took 1.32-1.33 s (solve --A 581 --samples 1), 1.44-1.55 s (--A 2
# --samples 490 847), 1.38-1.42 s (verify --A 208 --b 0.001) and 1.04-1.06 s (scan of A from
# 2 to 1426 by 1), 3 runs each with interpreter start on 2 cores shared with other load,
# Python 3.11.7
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


def _csv_text(rows: Iterable[list[object]]) -> str:
    # a float cell prints with 17 significant digits, which round-trips any double, and
    # every other cell (an int, a str) as str prints it
    return "\n".join(
        ",".join([format(c, ".17g") if type(c) is float else str(c) for c in row])
        for row in rows
    )


def _emit(out: str | None, text: str) -> None:
    # text and its newline in two writes, so a payload of many MB is not copied once more,
    # to the path out, or to stdout when it is None.  A destination that cannot be written
    # (a missing directory, a directory as the path, no permission, a closed pipe) is a
    # configuration error
    try:
        with (open(out, "w", encoding="ascii") if out is not None
              else contextlib.nullcontext(sys.stdout)) as fh:
            fh.write(text)
            fh.write("\n")
            fh.flush()
    except OSError as exc:
        if out is not None:
            raise ParameterError(f"cannot write --out {out!r}: {exc.strerror}") from exc
        _to_null(sys.stdout)
        raise ParameterError(f"cannot write stdout: {exc.strerror}") from exc


def _to_null(stream: TextIO) -> None:
    # the stream's descriptor, where it has one, is pointed at the null device, so that the
    # interpreter's last flush of what stays in its buffer prints nothing
    with contextlib.suppress(OSError), open(os.devnull, "w") as null:
        os.dup2(null.fileno(), stream.fileno())


def _error(kind: str, message: str) -> None:
    # a stderr that cannot be written (a closed pipe) takes nothing, and main's last flush
    # points it at the null device
    with contextlib.suppress(OSError):
        sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _params_block(model: OscillatorParams) -> dict:
    return {"omega0": model.omega0, "A": model.A, "b": model.b}


def _admit(model: OscillatorParams) -> OscillatorParams:
    # the one level limit, checked before any level is computed
    if model.count > MAX_LEVELS:
        raise ParameterError(
            f"omega0={model.omega0!r}, A={model.A!r}, b={model.b!r} holds {model.count} "
            f"levels, above the limit of {MAX_LEVELS}"
        )
    return model


def _refuse_over(work: int, what: str) -> None:
    # the one work check: every command's estimate is in polynomial steps
    if work > MAX_WORK:
        raise ParameterError(f"{what} is {work} steps of work, above the limit of {MAX_WORK}")


def _spectrum(model: OscillatorParams) -> dict:
    # the JSON spectrum block of an admitted model; no level's wavefunction is resolved
    return {
        "a": model.a,
        "num_states": model.count,
        "levels": [{"n": n, "energy": e} for n, e in enumerate(model._spectrum())],
    }


def _spectrum_rows(rows: list[tuple[float, OscillatorParams]]) -> Iterator[list[object]]:
    # one CSV row per (param, model) of an admitted model, each made as it is joined;
    # columns past a row's last level stay empty.  No level's wavefunction is resolved
    kmax = max(model.count for _, model in rows)
    yield ["param", "a", "num_states"] + [f"E{i}" for i in range(kmax)]
    for v, model in rows:
        k = model.count
        yield [v, model.a, k, *model._spectrum()] + [""] * (kmax - k)


def _sample_points(model: OscillatorParams, samples: int) -> list[float]:
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
    model: OscillatorParams, rule: int, points: np.ndarray
) -> tuple[list[float], list[list[float]]]:
    # every level in one evaluation, on the graded rule's nodes joined with the sample points:
    # each norm sums the nodes' part of its row as oracle.overlap(psi, psi, -a, a, rule,
    # graded=True) does, and the rest is psi at the points.  Each entry is bit for bit its
    # one-point value, so both are those of separate evaluations
    x, weights, half = oracle._rule_nodes(-model.a, model.a, rule, True)
    on_nodes, at_points = np.split(model._psi_rows(np.concatenate((x, points))), [x.size], axis=1)
    norms = [half * float(np.dot(weights, v * v)) for v in on_nodes]
    _refuse_nonfinite(at_points, norms)
    return norms, at_points.tolist()


def _sample_rows(model: OscillatorParams, samples: int) -> Iterator[list[object]]:
    # the CSV samples table, each row made as it is joined, from every level evaluated at
    # once.  It prints no norm, so the levels are evaluated at the sample points alone
    xs = _sample_points(model, samples)
    block = model._psi_rows(np.array(xs))
    _refuse_nonfinite(block)
    for n, psi in enumerate(block):
        for x, v in zip(xs, psi.tolist()):
            yield [n, x, v]


def cmd_solve(ns: argparse.Namespace) -> int:
    if ns.samples < 0:
        raise ParameterError(f"--samples must be >= 0, got {ns.samples}")
    model = _admit(OscillatorParams(ns.omega0, ns.A, ns.b))
    k = model.count
    rule = max(NORM_RULE_MIN, math.ceil(NORM_RULE_PER_A * model.A))
    if ns.samples > 0:
        # level n's degree-n polynomial on the samples and the rule's nodes, and k printed
        # tables.  One estimate for both formats: the CSV table builds no rule, but its rule
        # term keeps it to the depths where JSON's is admitted
        _refuse_over(
            (ns.samples + rule) * k * (k + 1) // 2 + SAMPLE_WORK * ns.samples * k,
            f"solve of {k} levels at --samples {ns.samples} with a {rule}-node norm rule",
        )
    if ns.format == "csv":
        rows = _spectrum_rows([(model.A, model)])
        if ns.samples > 0:
            rows = chain(rows, [[], ["n", "x", "psi"]], _sample_rows(model, ns.samples))
        _emit(ns.out, _csv_text(rows))
        return 0
    payload = {
        "command": "solve",
        "params": _params_block(model),
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
    _emit(ns.out, _json_payload(payload))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    model = _admit(OscillatorParams(ns.omega0, ns.A, ns.b))
    k = model.count
    # the oracle's order-estimate grid, half of this one, has at least 250 points and more
    # than 8 A - 1, so it always holds the k < A levels
    grid = max(VERIFY_GRID_MIN, math.ceil(VERIFY_GRID_PER_A * model.A))
    _refuse_over(FD_WORK * grid * (k + 3), f"verify of {k} levels on its {grid}-point grid")
    # the oracle takes the admitted model as it is, and maps nothing
    report = oracle.solve_pdm_numeric(model, k, grid, estimate_order=True)
    levels = [
        {"n": i, "analytic": report.analytic[i], "numeric": report.numeric[i],
         "rel_err": report.rel_err[i], "order": report.order[i]}
        for i in range(k)
    ]
    worst = max(report.rel_err)
    passed = worst <= VERIFY_TOL
    payload = {
        "command": "verify",
        "params": _params_block(model),
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
    _emit(ns.out, _json_payload(payload))
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
    _emit(ns.out, _json_payload(payload))
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
    # loop's own test decides the rest.  Row i is start + i step, and a step below the
    # spacing of floats there repeats a row's value, which is refused
    if (last - start) / step < MAX_SCAN_ROWS + 1:
        vals: list[float] = []
        v = start
        while len(vals) <= MAX_SCAN_ROWS and v <= last:
            if vals and v == vals[-1]:
                raise ParameterError(f"scan step {step!r} is too small to change the value {v!r}")
            vals.append(v)
            v = start + len(vals) * step
        if len(vals) <= MAX_SCAN_ROWS:
            return vals
    raise ParameterError(
        f"scan from {start!r} to {stop!r} by {step!r} has more than {MAX_SCAN_ROWS} rows, the limit"
    )


def cmd_scan(ns: argparse.Namespace) -> int:
    a_range, b_range = _scan_ranges(ns)
    # one derivation per row: every row is mapped, which validates it, before any row's
    # level limit is checked, and the work is estimated after that
    if a_range is not None:
        b = 0.0 if ns.b is None else ns.b
        rows = [(v, OscillatorParams(ns.omega0, v, b)) for v in _range_values(a_range)]
    else:
        rows = [(v, OscillatorParams(ns.omega0, ns.A, v)) for v in _range_values(b_range)]
    for _, model in rows:
        _admit(model)
    levels = sum(model.count for _, model in rows)
    _refuse_over(LEVEL_WORK * levels, f"scan of {len(rows)} rows holding {levels} levels")
    _emit(ns.out, _csv_text(_spectrum_rows(rows)))
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
    # a fixed value that the range would override is refused, not dropped
    if a_given and ns.A is not None:
        raise ParameterError("an A-range scan takes no fixed --A")
    if b_given and ns.b is not None:
        raise ParameterError("a b-range scan takes no fixed --b")
    return (a_parts if a_given else None, b_parts if b_given else None)


class _Parser(argparse.ArgumentParser):
    # argparse writes its help itself and drops an OSError from the write; here the help
    # goes to stdout under the payloads' write rule.  Subparsers take the same class
    def print_help(self, file=None) -> None:
        if file is None:
            _emit(None, self.format_help().removesuffix("\n"))
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    """The parser; every option but --help takes one value."""
    parser = _Parser(
        prog="pdmosc",
        description="Bound states of the confined oscillator with a "
        "position-dependent mass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        sp.add_argument("--omega0", type=float, required=True, help="oscillator frequency (> 0)")
        sp.add_argument("--out", help="write the payload to this path")
        return sp

    def well(sp: argparse.ArgumentParser, required: bool = True,
             a_help: str = "potential depth parameter (> 1)",
             b_help: str = "shift parameter") -> None:
        sp.add_argument("--A", type=float, required=required, help=a_help)
        sp.add_argument("--b", type=float, default=0.0, help=b_help)

    sp = command("solve", cmd_solve, "closed-form spectrum and wavefunctions")
    well(sp)
    sp.add_argument("--samples", type=int, default=0, help="interior sample count per wavefunction")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = command("verify", cmd_verify, "cross-check against the grid solver")
    well(sp)

    sp = command("jafarov", cmd_jafarov, "integer-l quantized-length case")
    sp.add_argument("--l", type=int, required=True, help="integer depth parameter (>= 2)")

    sp = command("scan", cmd_scan, "CSV table over an A or b range")
    well(sp, False, "fixed A for a b-range scan", "fixed b for an A-range scan (default 0)")
    # None tells a --b that was not given from --b 0, which a b-range scan refuses
    sp.set_defaults(b=None)
    for name in ("A", "b"):
        for part in ("start", "stop", "step"):
            sp.add_argument(f"--{name}-{part}", type=float)
    return parser


# built once: parsing leaves the parser unchanged, and each call gets a new namespace
_PARSER = build_parser()


def _join_values(argv: list[str]) -> list[str]:
    # argparse reads a token that starts with "-" as an option unless it has the form of
    # a negative number with no exponent (-1, -0.5), so -1e-05, which repr prints for a
    # small float, and -inf read as options.  A number after a long option written without
    # "=" is joined to it as --opt=number, the form in which argparse reads it as the value,
    # since every option but --help takes one; "--" and any prefix of --help are not joined
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (tok[:1] == "-" and prev[:2] == "--" and "=" not in prev
                and not "--help".startswith(prev)):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _PARSER.parse_args(_join_values(sys.argv[1:] if argv is None else argv))
        return ns.handler(ns)
    except SystemExit as exc:
        # argparse's own exit, after it has printed: 0 after the help, 2 after a usage error
        return exc.code
    except (ConvergenceError, ArithmeticError) as exc:
        # non-convergence, and overflow, zero division or a floating-point trap
        _error("numerical", str(exc))
        return 4
    except ValueError as exc:
        # ParameterError/DomainError and relatives: bad configuration
        _error("config", str(exc))
        return 2
    finally:
        # stderr under _emit's rule, with no error of its own: what stays in its buffer,
        # argparse's text included (argparse drops an error from its own write), is flushed,
        # and a stderr that cannot take it is pointed at the null device, so that the exit
        # code stands
        try:
            sys.stderr.flush()
        except OSError:
            _to_null(sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
