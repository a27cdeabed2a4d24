"""Command line under generated argv: an exit code from the documented set, never a traceback.

Each example drives cli.main in-process with argv for ``solve``, ``scan``,
``jafarov`` or a shallow ``verify``.  Numbers range over moderate values
and the awkward ones (nan, +-inf, zero, the extremes of the float range);
sizes stay small enough that the whole property runs in a few seconds.
Values are passed as ``--opt=value`` so that a negative number reaches the
program instead of reading as an option.
"""

import contextlib
import io
import json
import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from pdmosc import cli

_AWKWARD = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1e300, -1.0]


def _number(lo: float, hi: float) -> st.SearchStrategy[float]:
    # about three draws in four in range, so that most examples reach a payload
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi),
                     st.sampled_from(_AWKWARD))


def _range(draw, lo: float, hi: float, step_lo: float, step_hi: float) -> tuple:
    # start, stop, step: mostly a range of up to 40 steps, sometimes three free numbers
    start, step = draw(_number(lo, hi)), draw(_number(step_lo, step_hi))
    if draw(st.booleans()):
        return start, draw(_number(lo, hi)), step
    return start, start + draw(st.integers(0, 40)) * step, step


def _opt(name: str, value: object) -> str:
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


@st.composite
def _solve(draw) -> list[str]:
    # a sampled model above A = 133.3 has a norm rule above its 400-node floor
    sampled = draw(st.booleans())
    depth = _number(1.1, 150.0) if sampled else _number(1.1, 40.0)
    argv = ["solve", _opt("omega0", draw(_number(0.05, 20.0))), _opt("A", draw(depth))]
    if draw(st.booleans()):
        argv.append(_opt("b", draw(_number(-0.5, 0.5))))
    if sampled:
        argv.append(_opt("samples", draw(st.integers(-2, 6))))
    if draw(st.booleans()):
        argv.append("--format=csv")
    return argv


@st.composite
def _scan(draw) -> list[str]:
    argv = ["scan", _opt("omega0", draw(_number(0.05, 20.0)))]
    if draw(st.booleans()):
        name, (start, stop, step) = "A", _range(draw, 1.1, 12.0, 0.1, 2.0)
        if draw(st.booleans()):
            argv.append(_opt("b", draw(_number(-0.5, 0.5))))
    else:
        name, (start, stop, step) = "b", _range(draw, -0.5, 0.5, 0.001, 0.1)
        argv.append(_opt("A", draw(_number(1.1, 20.0))))
    return argv + [_opt(f"{name}-start", start), _opt(f"{name}-stop", stop),
                   _opt(f"{name}-step", step)]


@st.composite
def _jafarov(draw) -> list[str]:
    return ["jafarov", _opt("omega0", draw(_number(0.05, 20.0))),
            _opt("l", draw(st.integers(-3, 200)))]


@st.composite
def _verify(draw) -> list[str]:
    # a verify at A <= 8 solves on its 500-point grid in a few ms
    argv = ["verify", _opt("omega0", draw(_number(0.05, 20.0))), _opt("A", draw(_number(1.1, 8.0)))]
    if draw(st.booleans()):
        argv.append(_opt("b", draw(_number(-1.0, 1.0))))
    return argv


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's own failures
            rc = exc.code
    return rc, out.getvalue()


def _no_constant(token: str) -> None:
    raise AssertionError(f"JSON constant {token} in the output")


def _finite_leaves(value: object, path: str) -> None:
    # null stands for a non-finite number; only verify's order estimates may be one
    if isinstance(value, dict):
        for k, v in value.items():
            _finite_leaves(v, f"{path}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _finite_leaves(v, f"{path}[{i}]")
    else:
        assert value is not None or re.fullmatch(r".report.levels\[\d+\].order", path), path


def _check_payload(argv: list[str], text: str) -> None:
    if argv[0] == "scan" or "--format=csv" in argv:
        for line in text.splitlines():
            for cell in filter(None, line.split(",")):
                try:
                    assert math.isfinite(float(cell)), cell
                except ValueError:  # a header label
                    assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", cell), cell
    else:
        _finite_leaves(json.loads(text, parse_constant=_no_constant), "")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(_solve(), _scan(), _jafarov(), _verify()))
def test_every_argv_exits_with_a_documented_code(argv):
    rc, out = _run(argv)
    assert rc in (0, 2, 3, 4), (argv, rc)
    if rc in (0, 3):  # both print a payload: a verify mismatch is a result, not an error
        _check_payload(argv, out)
