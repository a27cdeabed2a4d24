"""The pdmosc command line's contract as one table of rows, run against the installed package.

    python scripts/smoke.py

runs every row of ROWS through the ``pdmosc`` console script, then the pipe
cases, a scan row and a jafarov row in a fresh interpreter, which must leave
numpy unimported, and the library checks, and exits 1 at the first that
fails, naming it.  It needs the installed package alone: the standard
library, numpy and pdmosc, none of the test extra.  The tier-1 tests run the
same rows in process through ``cli.main`` and ``check``.

A row is an argv, its exit code, and either a refusal (an error kind and
a fragment its message must hold; a kind of None is argparse's own usage
error, whose text must hold it) or a payload predicate on stdout.
A JSON payload (every payload but a scan's and a CSV ``solve``'s) must also
be the bytes ``json.dumps(payload, indent=2)`` prints, and a newline.
A refusal prints nothing on stdout and no traceback, and a row with a kind
prints exactly one JSON line of that kind on stderr; a payload prints
nothing on stderr.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from pdmosc import OscillatorParams, ParameterError, confinement_length, jafarov_case
from pdmosc.oracle import Grid1D, discretize_bdd, eigenvalues_sturm, eigenvector


class Row(NamedTuple):
    argv: str
    code: int
    kind: str | None = None
    fragment: str = ""
    payload: Callable[[str], bool] | None = None

    def prints_json(self) -> bool:
        """Whether the row's payload is JSON: every payload but a scan's and a CSV solve's."""
        return not self.argv.startswith("scan") and "--format csv" not in self.argv


def check(row: Row, rc: int, out: str, err: str) -> str | None:
    """What the run (exit code rc, stdout out, stderr err) breaks of row, or None."""
    if rc != row.code:
        return f"exit {rc}, not {row.code}"
    if row.payload is not None:
        if err:
            return f"a payload with stderr {err!r}"
        try:
            # a JSON payload is the bytes json.dumps(payload, indent=2) prints, and a newline
            if row.prints_json() and out != json.dumps(json.loads(out), indent=2) + "\n":
                return "the payload is not the bytes of json.dumps(indent=2)"
            return None if row.payload(out) else "the payload fails its predicate"
        except (ValueError, LookupError, TypeError) as exc:
            return f"the payload fails its predicate: {exc!r}"
    if out:
        return f"a refusal with stdout {out[:200]!r}"
    if "Traceback" in err:
        return f"a traceback on stderr: {err!r}"
    text = err
    if row.kind is None:
        if not err.startswith("usage: pdmosc"):
            return f"not argparse's usage error: {err!r}"
    else:
        lines = err.splitlines()
        if len(lines) != 1:
            return f"{len(lines)} lines on stderr, not one: {err!r}"
        try:
            msg = json.loads(lines[0])
            kind, text = msg["error"], msg["message"]
        except (ValueError, LookupError, TypeError):
            return f"stderr is not one JSON error: {err!r}"
        if kind != row.kind:
            return f"error kind {kind!r}, not {row.kind!r}"
    return None if row.fragment in text else f"the message {text!r} lacks {row.fragment!r}"


def _json(out: str) -> bool:
    return bool(json.loads(out))


def _true_at(key: str, field: str) -> Callable[[str], bool]:
    return lambda out: json.loads(out)[key][field] is True


def _unit_norms(out: str) -> bool:
    # every printed norm within 1e-9 of 1, and at least one printed
    waves = json.loads(out)["wavefunctions"]
    return bool(waves) and all(abs(w["norm"] - 1.0) <= 1e-9 for w in waves)


def _levels(count: int) -> Callable[[str], bool]:
    def held(out: str) -> bool:
        spectrum = json.loads(out)["spectrum"]
        return spectrum["num_states"] == len(spectrum["levels"]) == count
    return held


def _table(rows: int) -> Callable[[str], bool]:
    # rows CSV lines, header included, each with the header's columns
    def held(out: str) -> bool:
        lines = [line.split(",") for line in out.splitlines()]
        return len(lines) == rows and all(len(line) == len(lines[0]) for line in lines)
    return held


def _finite_cells(out: str) -> bool:
    lines = out.splitlines()
    return len(lines) == 5 and all(
        math.isfinite(float(c)) for line in lines[1:] for c in line.split(",") if c
    )


# the admissibility bound of |b| at omega0 = 1, A = 3, as .17g prints it
_BOUND = "bound 0.75446005780976133"

ROWS = [
    # solve
    Row("solve --omega0 1 --A 3.5 --samples 3", 0, payload=_json),
    Row("solve --omega0 1 --A 3.5 --b -1e-05", 0, payload=_json),
    Row("solve --omega0 1 --A 3.5 --b 0.3 --samples 3", 0, payload=_unit_norms),
    # a deep one, where the norm rule has 900 nodes
    Row("solve --omega0 1 --A 300 --samples 1", 0, payload=_unit_norms),
    Row("solve --omega0 1 --A 3.5 --samples 3 --format csv", 0,
        payload=lambda out: "n,x,psi" in out.splitlines()),
    Row("solve --omega0 1 --A 1.0", 2, "config", "A=1.0"),
    Row("solve --omega0 1 --A 3 --b 1.0", 2, "config", _BOUND),
    # |b| 2e-15 relative below the bound: the lowest level lies inside the window margin
    Row("solve --omega0 1 --A 3 --b 0.75446005780976", 2, "config", _BOUND),
    Row("solve --omega0 1 --A 3.5 --b -inf", 2, "config", "finite"),
    Row("solve --omega0 1 --A 2 --samples -1", 2, "config", "--samples"),
    Row("solve --omega0 1 --A 1e4", 0, payload=_levels(9999)),
    Row("solve --omega0 1 --A 10001", 0, payload=_levels(10000)),
    Row("solve --omega0 1 --A 10002", 2, "config", "above the limit of 10000"),
    # the recurrence overflows at this depth: no payload, and the first such level named
    Row("solve --omega0 1.6189491004119715e-08 --A 1729.0152111635182 "
        "--b -0.002638004038449934 --samples 31 --format csv", 4, "numerical", "level 184 of "),
    # verify: each end of omega0, a shifted operator (not mirror-symmetric, solved whole),
    # and b = 0 on an odd grid (641 points, folded into halves of 321 and 320 rows)
    Row("verify --omega0 1 --A 3.5", 0, payload=_json),
    Row("verify --omega0 1e-10 --A 3.5", 0, payload=_true_at("report", "passed")),
    Row("verify --omega0 1e200 --A 3.5", 0, payload=_true_at("report", "passed")),
    Row("verify --omega0 1 --A 3.5 --b 0.3", 0, payload=_true_at("report", "passed")),
    Row("verify --omega0 1 --A 40.0625", 0, payload=_true_at("report", "passed")),
    Row("verify --omega0 1 --A 3 --b 0.75446005780976", 2, "config", _BOUND),
    Row("verify --omega0 1 --A 3 --b 0.8", 2, "config", _BOUND),
    Row("verify --omega0 1 --A 208.0625", 2, "config", "above the limit of 295000000"),
    # the grid's size comes from the depth alone
    Row("verify --omega0 1 --A 3 --grid 64", 2, None, "unrecognized arguments: --grid 64"),
    # jafarov
    Row("jafarov --omega0 1 --l 5", 0, payload=_json),
    Row("jafarov --omega0 1e-12 --l 50", 0, payload=_true_at("comparison", "matches")),
    Row("jafarov --omega0 1 --l 1", 2, "config", "l >= 2"),
    Row("jafarov --omega0 1 --l 2.5", 2, None, "invalid int value: '2.5'"),
    # a negative number in exponent form after an abbreviated option reaches --omega0
    Row("jafarov --ome -1e-3 --l 3", 2, "config", "omega0 > 0"),
    # scan: a b-range, whose rows lose a level as b grows, and an A-range of 101 rows, whose
    # rows gain levels as A grows
    Row("scan --omega0 1 --A-start 2 --A-stop 3 --A-step 0.5", 0,
        payload=lambda out: out.splitlines()[0] == "param,a,num_states,E0,E1"),
    Row("scan --omega0 1 --A 3 --b-start 0 --b-stop 0.4 --b-step 0.1", 0, payload=_table(6)),
    Row("scan --omega0 1 --A-start 100 --A-stop 101 --A-step 0.01", 0, payload=_table(102)),
    Row("scan --omega0 1e12 --A-start 1.000001 --A-stop 2 --A-step 0.25", 0, payload=_finite_cells),
    Row("scan --omega0 1 --A-start 3 --A-stop 2 --A-step 0.25", 2, "config", "empty scan range"),
    Row("scan --omega0 1 --A-start 2", 2, "config", "given together"),
    Row("scan --omega0 1 --A 2.5", 2, "config", "exactly one"),
    Row("scan --omega0 1 --A-start 2 --A-stop 3 --A-step 1 --b-start 0 --b-stop 0.1 "
        "--b-step 0.1", 2, "config", "exactly one"),
    Row("scan --omega0 1 --b-start 0 --b-stop 0.1 --b-step 0.1", 2, "config", "needs a fixed --A"),
    # a range with a bound or step that is not finite
    *[Row(f"scan --omega0 1 --A-start={start} --A-stop={stop} --A-step={step}", 2, "config",
          "finite")
      for start, stop, step in [("nan", "3", "0.5"), ("-inf", "3", "0.5"), ("2", "nan", "0.5"),
                                ("2", "inf", "0.5"), ("2", "3", "nan"), ("2", "3", "inf")]],
    # a fixed value that the range would override is refused, not dropped
    Row("scan --omega0 1 --A 5 --A-start 2 --A-stop 3 --A-step 0.5", 2, "config",
        "takes no fixed --A"),
    Row("scan --omega0 1 --A 5 --b 0.3 --b-start 0 --b-stop 0.2 --b-step 0.1", 2, "config",
        "takes no fixed --b"),
    Row("scan --omega0 1 --b 0 --b-start 0 --b-stop 0.2 --b-step 0.1 --A 5", 2, "config",
        "takes no fixed --b"),
    # a step below the spacing of floats at a row would repeat the row's value
    Row("scan --omega0 1 --A-start 2 --A-stop 2.000000000000001 --A-step 1e-16", 2, "config",
        "scan step 1e-16 "),
    Row("scan --omega0 1 --A-start 2 --A-stop 2 --A-step 1e-320", 2, "config", "scan step 1e-320 "),
    Row("scan --omega0 1 --A 3 --b-start 0.1 --b-stop 0.10000000000000002 --b-step 1e-18", 2,
        "config", "scan step 1e-18 "),
]


def _rows() -> Iterator[tuple[str, str | None]]:
    for row in ROWS:
        done = subprocess.run(["pdmosc", *row.argv.split()], capture_output=True, text=True)
        yield f"pdmosc {row.argv}", check(row, done.returncode, done.stdout, done.stderr)


def _scan_into_a_reader_that_leaves() -> str | None:
    # 20 MB of CSV into a pipe whose reader closes after one line, as head -1 does
    row = Row("scan --omega0 1 --A-start 2 --A-stop 1400 --A-step 1", 2, "config",
              "cannot write stdout")
    with subprocess.Popen(["pdmosc", *row.argv.split()], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    return check(row, proc.returncode, "", err)


def _into_a_closed_pipe(argv: str, unbuffered: str, stderr: bool) -> subprocess.CompletedProcess:
    # stdout, and stderr too when asked, on a pipe whose read end is closed before the run:
    # what the run prints fits in a pipe buffer
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(["pdmosc", *argv.split()], stdout=write,
                              stderr=write if stderr else subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write)


# runs whose error line cannot be written either, with stdout and stderr on one closed pipe
# (2>&1 | head -c0): a payload that fails to print, two refusals and argparse's usage error.
# Each keeps its exit code
_SILENCED = ["solve --omega0 1 --A 3", "solve --omega0 1 --A 1.0", "verify --omega0 1 --A 3.25",
             "solve --omega0 1"]


def _pipe_runs() -> Iterator[tuple[str, str | None]]:
    yield "pdmosc scan into a reader that leaves after one line", _scan_into_a_reader_that_leaves()
    for unbuffered in ("", "1"):
        done = _into_a_closed_pipe("--help", unbuffered, stderr=False)
        yield (f"pdmosc --help into a closed pipe, PYTHONUNBUFFERED={unbuffered!r}",
               check(Row("--help", 2, "config", "cannot write stdout"), done.returncode, "",
                     done.stderr))
        for argv in _SILENCED:
            rc = _into_a_closed_pipe(argv, unbuffered, stderr=True).returncode
            yield (f"pdmosc {argv} with stdout and stderr on one closed pipe, "
                   f"PYTHONUNBUFFERED={unbuffered!r}", None if rc == 2 else f"exit {rc}, not 2")


# each argv through cli.main in one new interpreter; per run, its exit code, stdout, stderr
# and whether numpy.linalg, which numpy's own import loads, is in sys.modules after it
_FRESH = """
import contextlib, io, json, sys
from pdmosc import cli, oracle
runs = []
for argv in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv.split())
    runs.append([rc, out.getvalue(), err.getvalue(), "numpy.linalg" in sys.modules])
print(json.dumps({"runs": runs, "bound": oracle.np is sys.modules["numpy"]}))
"""


def fresh(argvs: list[str], **env: str) -> dict:
    """Run argvs through cli.main in a new interpreter; its runs and whether pdmosc's np is numpy."""
    done = subprocess.run([sys.executable, "-c", _FRESH, *argvs], capture_output=True,
                          text=True, env=dict(os.environ, **env), check=True)
    return json.loads(done.stdout)


def _startup() -> Iterator[tuple[str, str | None]]:
    # a scan and a jafarov row build no array, so numpy is never imported; the package
    # imported is the one this interpreter has installed
    rows = [next(row for row in ROWS if row.argv.startswith(cmd)) for cmd in ("scan", "jafarov")]
    for row, (rc, out, err, loaded) in zip(rows, fresh([row.argv for row in rows])["runs"]):
        yield (f"pdmosc {row.argv} in a fresh interpreter",
               "numpy.linalg is loaded" if loaded else check(row, rc, out, err))


def _refuses(call: Callable[[], object]) -> str | None:
    try:
        call()
    except ParameterError:
        return None
    return "not refused"


def _library() -> Iterator[tuple[str, str | None]]:
    # the box ground state's eigenvector from one twisted factorization of the Sturm pivots,
    # which needs no random start; a record's derived fields, replace included; and a bool
    # refused as a parameter by every entry that takes omega0, the integer-l route included
    grid = Grid1D(0.0, math.pi, 400)
    op = discretize_bdd(lambda x: 1.0, lambda x: 0.0, grid)
    (lam,) = eigenvalues_sturm(op, 1)
    v = eigenvector(op, lam, h=grid.h)
    yield "the box ground state", (
        None if abs(np.max(np.abs(v)) - math.sqrt(2.0 / math.pi)) <= 1e-4 else "its peak is off"
    )
    yield "the box ground state", (
        None if np.linalg.norm(op.apply(v) - lam * v) * math.sqrt(grid.h) <= 1e-8
        else "its residual is over 1e-8"
    )
    yield "the library", "numpy.random is loaded" if "numpy.random" in sys.modules else None
    p = OscillatorParams(1.0, 3.5)
    for name, got, want in [
        ("OscillatorParams(1.0, 3.5).count", p.count, 3),
        ("OscillatorParams(1.0, 3.5).a", p.a, confinement_length(1.0, 3.5)),
        ("replace(OscillatorParams(1.0, 3.5), A=5.5).count", replace(p, A=5.5).count, 5),
    ]:
        yield name, None if got == want else f"{got!r}, not {want!r}"
    yield "confinement_length(True, 3.0)", _refuses(lambda: confinement_length(True, 3.0))
    for omega0 in (True, False):
        yield f"jafarov_case({omega0}, 3)", _refuses(lambda: jafarov_case(omega0, 3))


def main() -> int:
    # each part yields (name, what the run breaks or None) in turn, so that the first fault
    # stops the run
    passed = []
    for part in (_rows, _pipe_runs, _startup, _library):
        passed.append(0)
        for name, fault in part():
            if fault is not None:
                print(f"smoke: {name}: {fault}", file=sys.stderr)
                return 1
            passed[-1] += 1
    print("{} rows, {} pipe runs, {} start-up runs and {} library checks passed".format(*passed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
