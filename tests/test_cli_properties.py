"""Command line under generated argv: an exit code from the documented set, never a traceback.

Each example drives cli.main in-process with argv for ``solve``, ``scan``,
``jafarov`` or a shallow ``verify``.  Numbers range over moderate values
and the awkward ones (nan, +-inf, zero, the extremes of the float range);
``verify`` draws its model over the admitted space instead, and passes on
every model away from A = 1.  Sizes stay small enough that the whole
property runs in a few seconds.  Values are passed as ``--opt=value``.
Four more properties check that each scan row and each ``solve`` or
``jafarov`` spectrum is its model admitted alone, over omega0 in
1e-12 ... 1e12, A - 1 in 1e-12 ... 1e3 and b up to its bound, and that
``verify`` sees neither the model's scale nor its mirror image b -> -b.
"""

import contextlib
import io
import json
import math
import re

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdmosc import cli
from pdmosc.errors import ParameterError
from pdmosc.oscillator import OscillatorParams, bound_states, shift_bound

_AWKWARD = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1e300, -1.0]


def _mostly(values: st.SearchStrategy[float]) -> st.SearchStrategy[float]:
    # about three draws in four from values, so that most examples reach a payload
    return st.one_of(values, values, values, st.sampled_from(_AWKWARD))


def _number(lo: float, hi: float) -> st.SearchStrategy[float]:
    return _mostly(st.floats(lo, hi))


def _log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(lo, hi).map(lambda e: 10.0**e)


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
    # omega0 log-uniform over 1e-12 ... 1e12, A - 1 over 1e-4 ... 7 and b a fraction of at
    # most 0.95 of shift_bound; a verify at A <= 8 solves on its 500-point grid in a few ms
    omega0 = draw(_mostly(_log_uniform(-12.0, 12.0)))
    A = draw(_mostly(_log_uniform(-4.0, math.log10(7.0)).map(lambda d: 1.0 + d)))
    argv = ["verify", _opt("omega0", omega0), _opt("A", A)]
    if draw(st.booleans()):
        frac = draw(st.floats(-0.95, 0.95))
        try:
            b = frac * shift_bound(omega0, A)
        except ParameterError:  # no model: the fraction itself goes in as b
            b = frac
        argv.append(_opt("b", draw(_mostly(st.just(b)))))
    return argv


def _verify_must_pass(argv: list[str]) -> bool:
    # an admitted model with |b| at most 0.95 of its bound, at A - 1 >= 1e-3: nearer A = 1
    # the top level nears its threshold, where verify's h^2 extrapolation is known to miss
    if argv[0] != "verify":
        return False
    opts = dict(arg[2:].split("=", 1) for arg in argv[1:])
    omega0, A, b = (float(opts.get(name, "0.0")) for name in ("omega0", "A", "b"))
    try:
        OscillatorParams(omega0, A, b)
    except ParameterError:
        return False
    return A - 1.0 >= 1e-3 and abs(b) <= 0.95 * shift_bound(omega0, A)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
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
@example(["verify", "--omega0=1e-10", "--A=3.5"])
@example(["verify", "--omega0=1e154", "--A=3.5"])
@example(["verify", "--omega0=1e160", "--A=3.5"])
def test_every_argv_exits_with_a_documented_code(argv):
    rc, out = _run(argv)
    assert rc in (0, 2, 3, 4), (argv, rc)
    if rc in (0, 3):  # both print a payload: a verify mismatch is a result, not an error
        _check_payload(argv, out)
    if _verify_must_pass(argv):
        assert rc == 0, argv


def _model_params(draw) -> tuple[float, float, float]:
    # omega0 log-uniform over 1e-12 ... 1e12, A - 1 over 1e-12 ... 1e3, and b a fraction of
    # shift_bound: 0, uniform in +-1, or +-(1 - 10^-k) for k <= 12, next to the bound.
    # Where no b is admitted the fraction itself goes in as b, and the model is refused
    omega0 = draw(_log_uniform(-12.0, 12.0))
    A = 1.0 + draw(_log_uniform(-12.0, 3.0))
    edge = st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(1, 12))
    frac = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0),
                          edge.map(lambda sk: sk[0] * (1.0 - 10.0 ** -sk[1]))))
    try:
        return omega0, A, frac * shift_bound(omega0, A)
    except ParameterError:
        return omega0, A, frac


def _admitted(omega0: float, A: float, b: float) -> OscillatorParams | None:
    # the model the CLI admits for (omega0, A, b), or None where it refuses it
    try:
        return cli._admit(OscillatorParams(omega0, A, b))
    except ParameterError:
        return None


@st.composite
def _admitted_scan(draw) -> list[str]:
    # an A-range or a b-range scan of 1 to 30 rows over the space of _model_params.  An
    # A-range holds b at its first row's value, whose bound grows with A, so its rows gain
    # levels; a b-range runs from its drawn b up towards the bound, so its rows lose levels
    # as b nears it
    omega0, A, b = _model_params(draw)
    rows = draw(st.integers(1, 30))
    if draw(st.booleans()):
        step = draw(st.floats(0.01, 2.0))
        return ["scan", _opt("omega0", omega0), _opt("b", b), _opt("A-start", A),
                _opt("A-stop", A + (rows - 1) * step), _opt("A-step", step)]
    try:
        top = shift_bound(omega0, A)
    except ParameterError:
        top = 1.0
    # a step of at least 3e-7 of the bound keeps each row's value apart from the last
    step = draw(st.floats(0.01, 1.0)) * max(top - b, 1e-3 * top) / max(rows - 1, 1)
    return ["scan", _opt("omega0", omega0), _opt("A", A), _opt("b-start", b),
            _opt("b-stop", b + (rows - 1) * step), _opt("b-step", step)]


def _check_cells(text: str) -> list[list[str]]:
    # the CSV table's rows, its header first; every non-empty cell after the header is finite
    header, *rows = [line.split(",") for line in text.splitlines()]
    for row in rows:
        assert all(math.isfinite(float(c)) for c in row if c), row
    return [header, *rows]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_admitted_scan())
@example(["scan", "--omega0=1.0", "--b=0.3", "--A-start=9.0", "--A-stop=10.0", "--A-step=0.25"])
@example(["scan", "--omega0=1.0", "--A=7.2", "--b-start=-1.4", "--b-stop=1.4", "--b-step=0.2"])
@example(["scan", "--omega0=1e12", "--b=0.0", "--A-start=1.000001", "--A-stop=2.0",
          "--A-step=0.25"])
def test_each_scan_row_is_its_model_admitted_alone(argv):
    # a scan row takes its energies from the one ungated spectrum; its a, level count and
    # energies are, bit for bit, those of the model admitted alone and of its bound states
    # (17 significant digits round-trip a double).  A scan with a refused row is refused
    opts = dict(arg[2:].split("=", 1) for arg in argv[1:])
    omega0 = float(opts["omega0"])
    name = "A" if "A-start" in opts else "b"
    fixed = float(opts["b" if name == "A" else "A"])
    rng = tuple(float(opts[f"{name}-{part}"]) for part in ("start", "stop", "step"))
    params = [(omega0, v, fixed) if name == "A" else (omega0, fixed, v)
              for v in cli._range_values(rng)]
    models = [_admitted(*q) for q in params]
    assume(None in models or cli.LEVEL_WORK * sum(m.count for m in models) <= cli.MAX_WORK / 100)
    rc, out = _run(argv)
    if None in models:
        assert rc == 2 and out == "", argv
        return
    assert rc == 0, argv
    header, *rows = _check_cells(out)
    assert len(rows) == len(models)
    assert len(header) == 3 + max(m.count for m in models)
    for row, q, model in zip(rows, params, models):
        k = int(row[2])
        assert (float(row[1]), k) == (model.a, model.count), (argv, q)
        want = [s.energy for s in bound_states(OscillatorParams(*q))]
        assert [float(c) for c in row[3:3 + k]] == want, (argv, q)
        assert row[3 + k:] == [""] * (len(header) - 3 - k)


@st.composite
def _admitted_solve_or_jafarov(draw) -> list[str]:
    # a solve, JSON or CSV, of a model of _model_params, or a jafarov at its omega0 and
    # an integer depth l of 2 ... 1001
    omega0, A, b = _model_params(draw)
    if draw(st.booleans()):
        return ["jafarov", _opt("omega0", omega0), _opt("l", max(2, round(A)))]
    argv = ["solve", _opt("omega0", omega0), _opt("A", A), _opt("b", b)]
    return argv + ["--format=csv"] if draw(st.booleans()) else argv


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_admitted_solve_or_jafarov())
@example(["jafarov", "--omega0=1e-12", "--l=50"])
@example(["jafarov", "--omega0=1e12", "--l=1001"])
@example(["solve", "--omega0=1e-12", "--A=1000.5", "--b=0.0", "--format=csv"])
def test_each_spectrum_is_its_model_admitted_alone(argv):
    # a solve or jafarov spectrum's a, level count and energies are, bit for bit, those of
    # the model admitted alone and of its bound states, every number is finite, and the
    # jafarov routes match.  A refused model is refused with exit 2
    opts = dict(arg[2:].split("=", 1) for arg in argv[1:])
    omega0 = float(opts["omega0"])
    q = (omega0, float(opts["l"]), 0.0) if argv[0] == "jafarov" else (
        omega0, float(opts["A"]), float(opts["b"]))
    model = _admitted(*q)
    rc, out = _run(argv)
    if model is None:
        assert rc == 2 and out == "", argv
        return
    assert rc == 0, argv
    if "--format=csv" in argv:
        _, row = _check_cells(out)
        a, k, energies = float(row[1]), int(row[2]), [float(c) for c in row[3:]]
    else:
        payload = json.loads(out, parse_constant=_no_constant)
        _finite_leaves(payload, "")
        spectrum = payload["spectrum"]
        a, k = spectrum["a"], spectrum["num_states"]
        energies = [lv["energy"] for lv in spectrum["levels"]]
        if argv[0] == "jafarov":
            assert payload["comparison"]["matches"] is True, argv
    assert (a, k) == (model.a, model.count), argv
    assert energies == [s.energy for s in bound_states(OscillatorParams(*q))], argv


@st.composite
def _scaled_verify(draw) -> tuple[list[str], list[str]]:
    # a model and its image under omega0 -> lam omega0, b -> sqrt(lam) b, which keeps A and
    # b/shift_bound: omega0 and lam log-uniform over 1e-12 ... 1e12, A - 1 over 1e-2 ... 7
    omega0, lam = draw(_log_uniform(-12.0, 12.0)), draw(_log_uniform(-12.0, 12.0))
    A = 1.0 + draw(_log_uniform(-2.0, math.log10(7.0)))
    b = draw(st.floats(-0.95, 0.95)) * shift_bound(omega0, A)
    return [
        ["verify", _opt("omega0", w), _opt("A", A), _opt("b", s)]
        for w, s in ((omega0, b), (lam * omega0, math.sqrt(lam) * b))
    ]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_scaled_verify())
@example((["verify", "--omega0=1.0", "--A=3.5"], ["verify", "--omega0=1e200", "--A=3.5"]))
def test_verify_does_not_see_the_scale(pair):
    # the oracle solves H/omega0 in t = x/a, so each report is the other's but for rounding
    # in the operator: over 1 100 random pairs of this space every run exited 0, and the
    # largest differences were 7.0e-10 in rel_err, near A = 1, and 4.7e-4 in order
    (rc, out), (rc_scaled, out_scaled) = (_run(argv) for argv in pair)
    assert rc == rc_scaled == 0, pair
    levels = json.loads(out)["report"]["levels"]
    scaled = json.loads(out_scaled)["report"]["levels"]
    assert len(levels) == len(scaled)
    for lev, other in zip(levels, scaled):
        assert abs(lev["rel_err"] - other["rel_err"]) <= 2e-9, (pair, lev["n"])
        if lev["order"] is None or other["order"] is None:
            assert lev["order"] is other["order"] is None, (pair, lev["n"])
        else:
            assert abs(lev["order"] - other["order"]) <= 2e-3, (pair, lev["n"])


@st.composite
def _mirrored_verify(draw) -> list[list[str]]:
    # a model and its mirror image b -> -b, drawn over the space of the mirror property on
    # bound_states: omega0 in 1e-3 ... 1e3 and A - 1 in 1e-2 ... 10^2.5, both log-uniform,
    # and |b| up to 0.95 of its bound
    omega0 = draw(_log_uniform(-3.0, 3.0))
    A = 1.0 + draw(_log_uniform(-2.0, 2.5))
    return _mirror_pair(omega0, A, draw(st.floats(-0.95, 0.95)) * shift_bound(omega0, A))


def _mirror_pair(omega0: float, A: float, b: float) -> list[list[str]]:
    return [["verify", _opt("omega0", omega0), _opt("A", A), _opt("b", s)] for s in (b, -b)]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_mirrored_verify())
@example(_mirror_pair(259.82348364799833, 1.048059301640779, 1.550975363242737))
@example(_mirror_pair(1.0, 120.5, 3.0))
def test_verify_does_not_see_the_mirror(pair):
    # on the oracle's mirror-pair points the operator at -b is the one at b reversed, so the
    # two reports differ only by where the Sturm counts round.  The solver's floors are
    # relative to max(1, |E|/omega0), so the difference is measured against max(omega0, |E|):
    # over 1 100 random models of this space it was at most 3.0e-12 of that, near A = 1,
    # where E0/omega0 nears the counts' rounding floor
    (rc, out), (rc_mirror, out_mirror) = (_run(argv) for argv in pair)
    assert rc == rc_mirror, pair
    if rc == 2:  # refused by the work limit, past A = 208
        return
    omega0 = float(pair[0][1].split("=", 1)[1])
    levels = json.loads(out)["report"]["levels"]
    mirrored = json.loads(out_mirror)["report"]["levels"]
    assert len(levels) == len(mirrored)
    for lev, other in zip(levels, mirrored):
        tol = 1e-11 * max(omega0, abs(lev["numeric"]))
        assert abs(lev["numeric"] - other["numeric"]) <= tol, (pair, lev["n"])
