"""Command-line interface: payload shapes, pinned values, exit codes.

Everything drives cli.main(argv) in-process and reads captured stdout or
stderr; file output goes through tmp_path.
"""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pdmosc import cli, oracle, oscillator, pct, rosen_morse, special_fn
from pdmosc.errors import ParameterError
from pdmosc.oscillator import (
    OscillatorParams,
    confinement_length,
    energy,
    energy_harmonic_form,
    jafarov_case,
    wavefunction,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import smoke  # noqa: E402


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# --- the contract table, which scripts/smoke.py also runs against the installed pdmosc ---


@pytest.mark.parametrize("row", smoke.ROWS, ids=[row.argv for row in smoke.ROWS])
def test_contract_row(capsys, row):
    assert smoke.check(row, *run_cli(capsys, *row.argv.split())) is None


def test_check_refuses_each_broken_run():
    refusal = smoke.Row("solve --omega0 1 --A 1.0", 2, "config", "A=1.0")
    usage = smoke.Row("verify --omega0 1 --A 3 --grid 64", 2, None, "--grid 64")
    payload = smoke.Row("solve --omega0 1 --A 2", 0, payload=lambda out: json.loads(out) == {})
    line = '{"error": "config", "message": "got A=1.0"}\n'
    argparse_err = "usage: pdmosc [-h]\npdmosc: error: unrecognized arguments: --grid 64\n"
    assert smoke.check(refusal, 2, "", line) is None
    assert smoke.check(usage, 2, "", argparse_err) is None
    assert smoke.check(payload, 0, "{}\n", "") is None
    traceback = "Traceback (most recent call last):\n"
    for row, rc, out, err in [
        # a wrong exit code
        (refusal, 3, "", line),
        (payload, 2, "{}\n", ""),
        # a refusal with a payload
        (refusal, 2, "{}", line),
        # two stderr lines, a wrong kind, and a JSON line where argparse's usage is due
        (refusal, 2, "", line + line),
        (refusal, 2, "", line.replace("config", "numerical")),
        (usage, 2, "", '{"error": "config", "message": "--grid 64"}\n'),
        # a missing fragment
        (refusal._replace(fragment="A=2.0"), 2, "", line),
        (usage._replace(fragment="--grid 65"), 2, "", argparse_err),
        # a traceback
        (refusal, 2, "", traceback + line),
        (usage, 2, "", argparse_err + traceback),
        # a false predicate, one that cannot read the payload, and a payload with stderr
        (payload, 0, "[]\n", ""),
        (payload, 0, "{", ""),
        (payload, 0, "{}\n", "a warning\n"),
        # a JSON payload that is not the bytes of json.dumps(indent=2) and a newline
        (payload, 0, "{}", ""),
        (payload, 0, "{ }\n", ""),
    ]:
        assert smoke.check(row, rc, out, err) is not None, (row, rc, out, err)


# --- solve ---


def test_solve_depth_two(capsys):
    rc, out, err = run_cli(capsys, "solve", "--omega0", "1", "--A", "2")
    assert rc == 0 and err == ""
    d = json.loads(out)
    assert d["command"] == "solve"
    assert d["params"] == {"omega0": 1, "A": 2, "b": 0}
    spec = d["spectrum"]
    assert spec["num_states"] == 1
    assert math.isclose(spec["a"], 2.0, rel_tol=1e-12)
    assert math.isclose(spec["levels"][0]["energy"], 0.25, rel_tol=1e-12)


def test_solve_energies_roundtrip_exactly(capsys):
    # the JSON numbers must survive a round trip bit for bit
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "3")
    d = json.loads(out)
    p = OscillatorParams(1.0, 3.0)
    assert d["spectrum"]["a"] == confinement_length(1.0, 3.0)
    for lev in d["spectrum"]["levels"]:
        assert lev["energy"] == energy(p, lev["n"])


def test_integer_valued_floats_load_as_floats(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "3")
    params = json.loads(out)["params"]
    assert params == {"omega0": 1.0, "A": 3.0, "b": 0.0}
    assert all(type(v) is float for v in params.values())


def test_non_finite_numbers_serialize_as_null():
    text = cli._json_payload(
        {"x": [math.nan, math.inf, -math.inf, 1.5], "y": {"z": -math.inf}}
    )
    assert json.loads(text) == {"x": [None, None, None, 1.5], "y": {"z": None}}


def test_solve_shifted_pins(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "3", "--b", "0.1")
    assert rc == 0
    levels = json.loads(out)["spectrum"]["levels"]
    assert abs(levels[0]["energy"] - 0.3151166) < 1e-6
    assert abs(levels[1]["energy"] - 1.0917972) < 1e-6


def test_solve_rejects_underflowing_half_width(capsys):
    rc, out, err = run_cli(capsys, "solve", "--omega0", "1e300", "--A", "3")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1
    msg = json.loads(err)["message"]
    assert "omega0" in msg and "A=" in msg
    assert "a_bar" not in msg and "c_bar" not in msg


@pytest.mark.parametrize("omega0, A", [("1", "1e200"), ("1e-300", "3")])
def test_solve_rejects_overflowing_half_width(capsys, omega0, A):
    # a^3 overflows; the message names the inputs, not internal constants
    rc, out, err = run_cli(capsys, "solve", "--omega0", omega0, "--A", A)
    assert rc == 2 and out == ""
    msg = json.loads(err)["message"]
    assert f"omega0={float(omega0)!r}" in msg and f"A={float(A)!r}" in msg
    assert "a_bar" not in msg and "c_bar" not in msg and "admissibility" not in msg


def test_solve_large_frequency(capsys):
    # omega0^2 overflows here, omega0 a^2 does not
    rc, out, err = run_cli(capsys, "solve", "--omega0", "1e155", "--A", "3")
    assert rc == 0 and err == ""
    levels = json.loads(out)["spectrum"]["levels"]
    p = OscillatorParams(1e155, 3.0)
    assert len(levels) == 2
    for lev in levels:
        assert math.isfinite(lev["energy"])
        assert math.isclose(lev["energy"], energy_harmonic_form(p, lev["n"]), rel_tol=1e-14)


def test_solve_sample_values(capsys):
    rc, out, _ = run_cli(
        capsys, "solve", "--omega0", "1", "--A", "3", "--b", "0.1", "--samples", "5"
    )
    d = json.loads(out)
    p = OscillatorParams(1.0, 3.0, 0.1)
    assert len(d["wavefunctions"]) == 2
    for block in d["wavefunctions"]:
        # fractional-power endpoints keep the quadrature algebraic, not
        # spectral, so the norm check is looser than the smooth-case one
        assert abs(block["norm"] - 1.0) < 1e-6
        assert len(block["samples"]) == 5
        for s in block["samples"]:
            assert math.isclose(
                s["psi"], wavefunction(p, block["n"], s["x"]), rel_tol=1e-12, abs_tol=1e-15
            )


@pytest.mark.parametrize("A, b", [("3.1", "0"), ("20.5", "0"), ("60.3", "0"), ("59.3", "0.5")])
def test_norm_column_resolves_states_rough_at_the_walls(capsys, A, b):
    # the top levels behave like (1 - |x|/a)^((A-n-1)/2) at the walls; the graded rule of
    # max(400, 3 A) nodes resolves them, where plain Gauss-Legendre nodes in x missed 1 by
    # up to 7.4e-4 (A = 60.3)
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", A, "--b", b, "--samples", "1")
    assert rc == 0
    for block in json.loads(out)["wavefunctions"]:
        assert abs(block["norm"] - 1.0) <= 1e-8


def test_solve_csv_table(capsys):
    rc, out, _ = run_cli(
        capsys, "solve", "--omega0", "1", "--A", "3", "--format", "csv", "--samples", "3"
    )
    assert rc == 0
    head, table = out.split("\n\n")
    lines = head.splitlines()
    assert lines[0] == "param,a,num_states,E0,E1"
    cells = lines[1].split(",")
    assert cells[0] == "3" and cells[2] == "2"
    assert float(cells[3]) == energy(OscillatorParams(1.0, 3.0), 0)
    rows = table.strip().splitlines()
    assert rows[0] == "n,x,psi"
    assert len(rows) == 1 + 2 * 3
    p = OscillatorParams(1.0, 3.0)
    for row in rows[1:]:
        n, x, psi = row.split(",")
        assert math.isclose(
            float(psi), wavefunction(p, int(n), float(x)), rel_tol=1e-12, abs_tol=1e-15
        )


# solve --A 3 --b 0.1 --samples 2 --format csv as printed before the samples table was
# held by columns
_CSV_PIN = """\
param,a,num_states,E0,E1
3,2.514866859365871,2,0.31511665490572682,1.0917971810589329

n,x,psi
0,-0.83828895312195706,0.48824563620951356
0,0.83828895312195684,0.58673025727801198
1,-0.83828895312195706,-0.44779732005996464
1,0.83828895312195684,0.25424197168616003
"""


def test_solve_csv_rows_are_the_json_samples(capsys):
    argv = ["solve", "--omega0", "1", "--A", "3", "--b", "0.1", "--samples", "2"]
    rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 0
    got = [row.split(",") for row in out.splitlines()]
    want = [row.split(",") for row in _CSV_PIN.splitlines()]
    assert [len(row) for row in got] == [len(row) for row in want]
    for g, w in zip(got, want):
        for cell, pinned in zip(g, w):
            # psi and the energies go through libm: the pin holds them to a few ulp
            assert cell == pinned or math.isclose(float(cell), float(pinned), rel_tol=1e-15)
    # exactly the rows of the JSON payload's samples, in its order
    _, js, _ = run_cli(capsys, *argv)
    table = [
        [str(w["n"]), format(pt["x"], ".17g"), format(pt["psi"], ".17g")]
        for w in json.loads(js)["wavefunctions"]
        for pt in w["samples"]
    ]
    assert got[got.index(["n", "x", "psi"]) + 1:] == table


def test_solve_csv_header_minimal(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "2", "--format", "csv")
    assert out.splitlines()[0] == "param,a,num_states,E0"


def test_csv_text_prints_each_cell_as_csv_cell():
    # the cells the CLI makes: a float prints with 17 significant digits, an int or a str as
    # str prints it, and an empty row as an empty line
    floats = [-0.0, 0.1, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16]
    rows = [floats, [3, -7, 0, 2**70], ["", "E0", ""], [], [0.5, "", 3]]
    assert cli._csv_text(rows) == (
        "-0,0.10000000000000001,nan,inf,-inf,4.9406564584124654e-324,"
        "-4.9406564584124654e-324,10000000000000000\n"
        "3,-7,0,1180591620717411303424\n"
        ",E0,\n"
        "\n"
        "0.5,,3"
    )
    assert cli._csv_text([]) == "" and cli._csv_text([[], []]) == "\n"


def test_out_file_writing(capsys, tmp_path):
    target = tmp_path / "levels.json"
    rc, out, err = run_cli(
        capsys, "solve", "--omega0", "1", "--A", "2", "--out", str(target)
    )
    assert rc == 0 and out == "" and err == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["spectrum"]["num_states"] == 1


@pytest.mark.parametrize("target", ["missing/levels.json", "."], ids=["no-directory", "a-directory"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "--omega0", "1", "--A", "3"], ["verify", "--omega0", "1", "--A", "3"]],
    ids=["solve", "verify"],
)
def test_unwritable_out_is_a_config_error(capsys, tmp_path, argv, target):
    path = str(tmp_path / target)
    rc, out, err = run_cli(capsys, *argv, "--out", path)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "config" and repr(path) in msg["message"]


# --- verify ---


def test_verify_fine_grid(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "3")
    assert rc == 0
    rep = json.loads(out)["report"]
    assert rep["passed"] is True
    assert rep["max_rel_err"] < 1e-6
    assert rep["tolerance"] == 1e-5
    assert rep["grid_sizes"] == [250, 500, 1000]
    for lev in rep["levels"]:
        if lev["order"] is not None:
            assert 1.4 < lev["order"] < 2.2


def test_verify_shifted(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "3", "--b", "0.1")
    assert rc == 0
    assert json.loads(out)["report"]["passed"] is True


def test_verify_coarse_grid_fails(monkeypatch, capsys):
    # the report is still emitted in full so the failure can be read off; the grid's error
    # at A = 2 is well above a tolerance of 1e-15
    monkeypatch.setattr(cli, "VERIFY_TOL", 1e-15)
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "2")
    assert rc == 3
    rep = json.loads(out)["report"]
    assert rep["passed"] is False
    assert rep["max_rel_err"] > rep["tolerance"] == 1e-15
    assert isinstance(rep["levels"][0]["order"], float)


@pytest.mark.parametrize("A", ["3.005", "3.1", "3.25", "6.25", "12.25", "30.5"])
def test_verify_default_grid_resolves_the_top_level(capsys, A):
    # the top level has A - n just above 1, so it is rough at the walls
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", A)
    assert rc == 0
    d = json.loads(out)
    assert d["grid"] == 500
    assert d["report"]["passed"] is True
    assert d["report"]["max_rel_err"] <= cli.VERIFY_TOL == 1e-5


def test_verify_converges_at_second_order_near_a_shifted_threshold(capsys):
    # the top level's smaller envelope exponent leaves an edge m - 1 - |B|/m = 0.448,
    # where a grid uniform in x converged at order 1.39
    p = OscillatorParams(1.0, 6.5, 0.104)
    rm = pct.map_parameters(p.omega0, p.A, p.b)[2]
    m = rm.A - (oscillator.num_bound_states(p) - 1)
    assert abs(m - 1.0 - abs(rm.B) / m - 0.448) < 1e-3
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "6.5", "--b", "0.104")
    assert rc == 0
    levels = json.loads(out)["report"]["levels"]
    assert len(levels) == 5
    for lev in levels:
        assert 1.9 <= lev["order"] <= 2.1


@pytest.mark.parametrize("omega0", ["1e-10", "1e154", "1e160"])
def test_verify_passes_at_extreme_frequencies(capsys, omega0):
    # the oracle solves H/omega0 in t = x/a, whose spectrum does not depend on omega0.  An
    # oracle in x fails all three: at 1e-10 the absolute floors of its brackets and order
    # estimates swamp the spectrum (max rel_err 6.6e-3, every order null, exit 3); at 1e154
    # the squared off-diagonals overflow into three equal negative eigenvalues (exit 3); at
    # 1e160 the potential's omega0**2 overflows (exit 4)
    rc, out, err = run_cli(capsys, "verify", "--omega0", omega0, "--A", "3.5")
    assert (rc, err) == (0, "")
    rep = json.loads(out)["report"]
    assert rep["passed"] is True and rep["max_rel_err"] < 1e-8
    assert all(1.9 < lev["order"] < 2.1 for lev in rep["levels"])


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "A, grid, levels", [("2", 500, 1), ("60.5", 968, 60), ("200.5", 3208, 200)]
)
def test_verify_default_grid_scales_with_the_depth(monkeypatch, capsys, A, grid, levels):
    # the oracle is replaced, so only the grid it is asked for is checked; A = 200.5 is
    # admitted under MAX_WORK
    def asked(p, k, n_grid, estimate_order=False):
        raise _Stop(k, n_grid)

    monkeypatch.setattr(cli.oracle, "solve_pdm_numeric", asked)
    with pytest.raises(_Stop) as stop:
        cli.main(["verify", "--omega0", "1", "--A", A])
    assert stop.value.args == (levels, grid)
    assert cli.FD_WORK * grid * (levels + 3) <= cli.MAX_WORK


# --- jafarov ---


def test_quantized_case_values(capsys):
    rc, out, _ = run_cli(capsys, "jafarov", "--omega0", "1", "--l", "2")
    assert rc == 0
    d = json.loads(out)
    assert d["params"] == {"omega0": 1, "l": 2}
    assert math.isclose(d["spectrum"]["a"], 2.0, rel_tol=1e-12)
    q = d["quantized_route"]
    assert q["levels"][0]["energy"] == 0.25
    assert math.isclose(q["levels"][0]["norm"], math.sqrt(0.375), rel_tol=1e-14)
    comp = d["comparison"]
    assert comp["matches"] is True
    assert comp["max_rel_diff"] <= comp["tolerance"] == 1e-12


def test_quantized_case_deep_well(capsys):
    # the normalization factorials overflow a float at this depth
    rc, out, _ = run_cli(capsys, "jafarov", "--omega0", "1", "--l", "151")
    assert rc == 0
    d = json.loads(out)
    assert d["comparison"]["matches"] is True
    assert len(d["quantized_route"]["levels"]) == 150


def test_quantized_case_at_a_large_depth_builds_no_factorial_per_level(capsys, count_calls):
    # the normalizations pass exact integers from level to level instead of
    # building four factorials of up to 2l per level (9 s at l = 3000 before)
    count_calls(math, "factorial")
    calls = count_calls(oscillator, "_jafarov_coeffs")
    rc, out, _ = run_cli(capsys, "jafarov", "--omega0", "1", "--l", "3000")
    assert calls["_jafarov_coeffs"] >= 1
    assert calls["factorial"] <= 2 * calls["_jafarov_coeffs"]
    assert rc == 0
    assert len(json.loads(out)["quantized_route"]["levels"]) == 2999


@pytest.mark.parametrize("l", [2, 148, 151])
def test_quantized_route_exact_norms(capsys, l):
    rc, out, _ = run_cli(capsys, "jafarov", "--omega0", "1", "--l", str(l))
    assert rc == 0
    quant = json.loads(out)["quantized_route"]
    a = quant["a"]
    states = jafarov_case(1.0, l)
    assert [lv["energy"] for lv in quant["levels"]] == [s.energy for s in states]
    for lv in quant["levels"]:
        n = lv["n"]
        # (2l-2n)!/(2^(l-n) (l-n)!) * sqrt((l-n) n!/(a (2l-n)!)) in exact rationals
        lead = Fraction(math.factorial(2 * l - 2 * n), 2 ** (l - n) * math.factorial(l - n))
        square = lead**2 * Fraction((l - n) * math.factorial(n), math.factorial(2 * l - n))
        want = math.sqrt(square / Fraction(a))
        assert math.isclose(lv["norm"], want, rel_tol=1e-12)


@pytest.mark.parametrize("l", [2000, 10001])
def test_quantized_case_matches_at_the_largest_depths(capsys, l):
    # the transform route used to lose about A eps to cancellation (1.34e-12 at l = 2000)
    rc, out, _ = run_cli(capsys, "jafarov", "--omega0", "1", "--l", str(l))
    assert rc == 0
    comparison = json.loads(out)["comparison"]
    assert comparison["matches"] is True
    assert comparison["max_rel_diff"] <= 1e-14


SPECTRUM_BLOCK = re.compile(r'"spectrum": \{(.*?)\n  \}', re.DOTALL)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_quantized_and_general_spectra_identical(capsys, l):
    # the shared block must be byte-identical, not merely close
    _, out_solve, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", str(l))
    _, out_j, _ = run_cli(capsys, "jafarov", "--omega0", "1", "--l", str(l))
    m1 = SPECTRUM_BLOCK.search(out_solve)
    m2 = SPECTRUM_BLOCK.search(out_j)
    assert m1 is not None and m2 is not None
    assert m1.group(1) == m2.group(1)


# --- scan ---


def test_scan_well_depth_range(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--omega0", "1",
        "--A-start", "1.5", "--A-stop", "3.5", "--A-step", "0.25",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,a,num_states,E0,E1,E2"
    assert len(lines) == 1 + 9
    counts = [int(row.split(",")[2]) for row in lines[1:]]
    assert counts == [1, 1, 1, 2, 2, 2, 2, 3, 3]
    row_a3 = lines[7].split(",")
    assert row_a3[0] == "3"
    assert abs(float(row_a3[3]) - 0.3162278) < 1e-6
    # a one-state row leaves the higher columns empty
    assert lines[1].split(",")[4] == ""


def test_scan_shift_range(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--omega0", "1", "--A", "3",
        "--b-start", "0", "--b-stop", "0.4", "--b-step", "0.1",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 5
    e0s = [float(row.split(",")[3]) for row in lines[1:]]
    assert abs(e0s[0] - 0.3162278) < 1e-6
    assert all(x > y for x, y in zip(e0s, e0s[1:]))
    for i, row in enumerate(lines[1:]):
        b = 0.1 * i
        assert math.isclose(e0s[i], e0s[0] - b * b / 9.0, rel_tol=1e-10)


def test_scan_single_point(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--omega0", "1",
        "--A-start", "2.5", "--A-stop", "2.5", "--A-step", "0.5",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "2.5"


@pytest.mark.parametrize(
    "fixed, rng",
    [
        (["--A", "5"], ["--A-start", "2", "--A-stop", "3", "--A-step", "0.5"]),
        (["--A", "5", "--b", "0.3"], ["--b-start", "0", "--b-stop", "0.2", "--b-step", "0.1"]),
        (["--b", "0"], ["--b-start", "0", "--b-stop", "0.2", "--b-step", "0.1", "--A", "5"]),
    ],
    ids=["A", "b", "b-zero"],
)
def test_scan_refuses_a_fixed_value_its_range_overrides(capsys, fixed, rng):
    # these printed the range's rows and dropped the fixed --A or --b without a word
    rc, out, err = run_cli(capsys, "scan", "--omega0", "1", *fixed, *rng)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize(
    "argv,models",
    [
        (["scan", "--omega0", "0.9", "--A-start", "2.5", "--A-stop", "6.5", "--A-step", "0.5"], 9),
        (["scan", "--omega0", "1", "--A", "7.2", "--b-start", "-0.4", "--b-stop", "0.4",
          "--b-step", "0.2"], 5),
        (["jafarov", "--omega0", "1.3", "--l", "12"], 1),
        (["solve", "--omega0", "1", "--A", "9.5", "--b", "0.1"], 1),
    ],
)
def test_spectrum_rows_derive_once_and_resolve_no_state(count_calls, capsys, argv, models):
    # each scan row, solve model and jafarov model maps once, and that one model gives a,
    # its level count, which the map computes once, and its energies; rows that print no
    # wavefunction resolve none
    count_calls(pct, "map_parameters")
    count_calls(pct, "level_count")
    calls = count_calls(rosen_morse, "ln_gamma")
    rc, _, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert calls == {"map_parameters": models, "level_count": models, "ln_gamma": 0}


def test_each_spectrum_takes_its_levels_in_one_call(monkeypatch, capsys):
    # every printed spectrum, JSON or CSV, takes all its model's levels in one ungated
    # OscillatorParams._spectrum call, with no rm_energy call, and equals bit for bit the
    # energies of that model through the level gate, one energy call per level
    ungated = OscillatorParams._spectrum
    models = []

    def spectrum(model):
        models.append(model)
        return ungated(model)

    def no_call(*args, **kwargs):
        raise AssertionError("rm_energy was called")

    monkeypatch.setattr(OscillatorParams, "_spectrum", spectrum)
    monkeypatch.setattr(oscillator, "rm_energy", no_call)
    printed = []
    for argv in (
        ["solve", "--omega0", "1", "--A", "9.5", "--b", "0.1"],
        ["solve", "--omega0", "0.7", "--A", "6.25", "--b", "-0.2", "--format", "csv"],
        ["jafarov", "--omega0", "1.3", "--l", "12"],
        ["scan", "--omega0", "0.9", "--A-start", "2.5", "--A-stop", "6.5", "--A-step", "0.5"],
        ["scan", "--omega0", "1", "--A", "7.2", "--b-start", "-0.4", "--b-stop", "0.4",
         "--b-step", "0.2"],
    ):
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0, argv
        if argv[0] == "scan" or "csv" in argv:
            rows = [line.split(",") for line in out.splitlines()[1:]]
            printed += [[float(c) for c in row[3:3 + int(row[2])]] for row in rows]
        else:
            printed.append([lv["energy"] for lv in json.loads(out)["spectrum"]["levels"]])
    monkeypatch.undo()
    assert len(printed) == 1 + 1 + 1 + 9 + 5
    assert printed == [
        [energy(OscillatorParams(m.omega0, m.A, m.b), n) for n in range(m.count)] for m in models
    ]


def test_scan_maps_every_row_before_any_level_limit(capsys):
    # row 1 holds 10 002 levels, above the limit, and row 2's a^3 overflows: every row is
    # mapped, and so validated, before any row's level count is held to the limit
    rc, out, err = run_cli(capsys, "scan", "--omega0", "1", "--A-start", "10003",
                           "--A-stop", "3e206", "--A-step", "1e206")
    assert rc == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "config"
    assert "a^3 overflows" in msg["message"] and "A=1e+206" in msg["message"]


def test_samples_reuse_the_spectrum_derivation(count_calls, capsys):
    # the states come from the one derivation that admitted the model and gave the
    # spectrum, whose energies pass no gate: no rm_energy call
    count_calls(pct, "map_parameters")
    calls = count_calls(oscillator, "rm_energy")
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "6.5", "--b", "0.1",
                         "--samples", "4")
    assert rc == 0
    waves = json.loads(out)["wavefunctions"]
    assert calls == {"map_parameters": 1, "rm_energy": 0}
    states = oscillator.bound_states(OscillatorParams(1.0, 6.5, 0.1))
    assert [w["n"] for w in waves] == [s.n for s in states]
    for w, s in zip(waves, states):
        points = w["samples"]
        assert [pt["psi"] for pt in points] == [s.wavefunction(pt["x"]) for pt in points]



@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("b, used", [("0", "gegenbauer_poly"), ("0.1", "jacobi_poly")])
def test_samples_evaluate_each_state_once(monkeypatch, capsys, b, used, fmt):
    # one polynomial call per solve, for every level at once: degrees 0..k-1 with one
    # parameter per level, on the norm rule's nodes and the sample points in JSON and on the
    # sample points alone in CSV
    calls = {"gegenbauer_poly": [], "jacobi_poly": []}

    def counted(name, fn):
        def wrapper(n, *args):
            *params, x = args
            calls[name].append((n, [np.shape(v) for v in params], np.shape(x)))
            return fn(n, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(rosen_morse, name, counted(name, getattr(rosen_morse, name)))
    rc, _, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "6.5", "--b", b,
                       "--samples", "4", "--format", fmt)
    assert rc == 0
    k = oscillator.num_bound_states(OscillatorParams(1.0, 6.5, float(b)))
    points = 4 + (400 if fmt == "json" else 0)
    params = 1 if used == "gegenbauer_poly" else 2
    assert calls.pop(used) == [(k - 1, [(k,)] * params, (points,))]
    assert calls == {name: [] for name in calls}


@pytest.mark.parametrize(
    "A, b, rule",
    [("5.5", "0", 400), ("5.5", "0.2", 400), ("150.5", "0", 452), ("300.5", "3", 902)],
    ids=["0", "0.2", "150.5-0", "300.5-3"],
)
def test_norms_and_samples_are_those_of_separate_evaluations(capsys, A, b, rule):
    # the joined evaluation gives, bit for bit, the norm of overlap on psi alone on a rule
    # of max(400, 3 A) nodes, rounded up, and psi at the sample points alone, in the JSON
    # payload and the CSV table
    argv = ["solve", "--omega0", "1", "--A", A, "--b", b, "--samples", "7"]
    rc, out, _ = run_cli(capsys, *argv)
    rc_csv, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert rc == rc_csv == 0
    model = OscillatorParams(1.0, float(A), float(b))
    waves = json.loads(out)["wavefunctions"]
    assert len(waves) == model.count
    rows = [row.split(",") for row in csv_out.split("\n\n")[1].splitlines()[1:]]
    assert len(rows) == 7 * model.count
    xs = [pt["x"] for pt in waves[0]["samples"]]
    for w in waves:
        psi = model._psi_of(w["n"])
        assert w["norm"] == oracle.overlap(psi, psi, -model.a, model.a, rule, graded=True)
        want = psi(np.array(xs)).tolist()
        assert [pt["x"] for pt in w["samples"]] == xs
        assert [pt["psi"] for pt in w["samples"]] == want
        level_rows = rows[7 * w["n"]: 7 * (w["n"] + 1)]
        assert [(int(n), float(x), float(v)) for n, x, v in level_rows] == [
            (w["n"], x, v) for x, v in zip(xs, want)
        ]


def test_csv_samples_build_no_norm_rule(monkeypatch, capsys):
    # the CSV table prints no norm, so no rule is built and no overlap is summed
    def no_rule(*args, **kwargs):
        raise AssertionError("a norm rule was built")

    for module, name in ((oracle, "overlap"), (oracle, "_rule_nodes"),
                         (oracle, "_graded_rule_arrays"), (oracle, "gauss_legendre"),
                         (special_fn, "gauss_legendre")):
        monkeypatch.setattr(module, name, no_rule)
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "7.25", "--b", "0.1",
                         "--samples", "3", "--format", "csv")
    assert rc == 0
    assert len(out.split("\n\n")[1].splitlines()) == 1 + 3 * 5

def test_verify_derives_each_model_once(count_calls, capsys):
    # one map gives the model that sets the work, and the oracle takes that model as it is
    # for a, the level count and every analytic energy
    count_calls(pct, "map_parameters")
    calls = count_calls(pct, "level_count")
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "6.5", "--b", "0.1")
    assert rc == 0 and len(json.loads(out)["report"]["levels"]) == 5
    assert calls == {"map_parameters": 1, "level_count": 1}


# --- error channel ---


@pytest.mark.parametrize("fault", [OverflowError, ZeroDivisionError, FloatingPointError])
def test_arithmetic_fault_is_a_numerical_error(monkeypatch, capsys, fault):
    def faulty(*args):
        raise fault("the fault's message")

    monkeypatch.setattr(oscillator, "_jafarov_levels", faulty)
    rc, out, err = run_cli(capsys, "jafarov", "--omega0", "1", "--l", "5")
    assert rc == 4 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "numerical", "message": "the fault's message"}


def test_error_is_single_json_line(capsys):
    rc, out, err = run_cli(capsys, "solve", "--omega0", "-1", "--A", "2")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    msg = json.loads(err)
    assert set(msg) == {"error", "message"}


# --- one parser, and the real entry point ---


def test_parser_state_does_not_leak_between_calls(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "3", "--b", "0.3")
    assert rc == 0 and json.loads(out)["params"]["b"] == 0.3
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "3")
    assert rc == 0 and json.loads(out)["params"]["b"] == 0.0
    assert run_cli(capsys, "jafarov", "--omega0", "1", "--l", "2.5")[0] == 2
    rc, out, err = run_cli(
        capsys, "scan", "--omega0", "1", "--A-start", "2", "--A-stop", "3", "--A-step", "0.5"
    )
    assert rc == 0 and err == ""
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["2", "2.5", "3"]


# every float option of each subcommand, in an argv that reaches a payload where the
# option's value allows one
_FLOAT_OPTIONS = [
    (["solve", "--omega0", "1", "--A", "3.5", "--b", "0.1"], ("--omega0", "--A", "--b")),
    (["verify", "--omega0", "1", "--A", "3.5", "--b", "0.1"], ("--omega0", "--A", "--b")),
    (["jafarov", "--omega0", "1", "--l", "3"], ("--omega0",)),
    (["scan", "--omega0", "1", "--b", "0.1", "--A-start", "2", "--A-stop", "3", "--A-step", "0.5"],
     ("--omega0", "--b", "--A-start", "--A-stop", "--A-step")),
    (["scan", "--omega0", "1", "--A", "3", "--b-start", "-0.1", "--b-stop", "0.1",
      "--b-step", "0.1"], ("--A", "--b-start", "--b-stop", "--b-step")),
]
# every other option that takes a value, in an argv that reaches a payload
_OTHER_OPTIONS = [
    (["solve", "--omega0", "1", "--A", "3.5", "--samples", "2"], "--samples"),
    (["solve", "--omega0", "1", "--A", "3.5", "--format", "csv"], "--format"),
    (["solve", "--omega0", "1", "--A", "3.5", "--out", "levels.json"], "--out"),
    (["jafarov", "--omega0", "1", "--l", "3"], "--l"),
]
# (argv, option, the option as written): each float option in full, an unambiguous prefix
# of three of them, a prefix of three options at once, and the options of other types
_WRITTEN_OPTIONS = (
    [(argv, opt, opt) for argv, opts in _FLOAT_OPTIONS for opt in opts]
    + [(_FLOAT_OPTIONS[2][0], "--omega0", "--ome"),
       (_FLOAT_OPTIONS[3][0], "--A-start", "--A-sta"),
       (_FLOAT_OPTIONS[4][0], "--b-stop", "--b-sto"),
       (_FLOAT_OPTIONS[3][0], "--A-start", "--A-st")]
    + [(argv, opt, opt) for argv, opt in _OTHER_OPTIONS]
)


def test_every_float_option_is_listed(capsys):
    # every option but -h/--help takes one value, so that a number after any long option
    # but a prefix of --help may be joined to it; and the float options are those above
    others = {opt for _, opt in _OTHER_OPTIONS}
    for command in ("solve", "verify", "jafarov", "scan"):
        rc, out, _ = run_cli(capsys, command, "--help")
        assert rc == 0
        # each option line of the help text: its strings, then its value's name if it takes one
        lines = re.findall(r"^  (-[^\s,]+(?:, -[^\s,]+)*)( \S+)?(?:  |$)", out, re.M)
        assert lines[0] == ("-h, --help", "")
        assert all(value for _, value in lines[1:])
        valued = {opts for opts, _ in lines[1:]}
        listed = {opt for argv, opts in _FLOAT_OPTIONS if argv[0] == command for opt in opts}
        assert listed == valued - others


def run_in(capsys, path, argv):
    # exit code, stdout, stderr and the files written, of one run in an empty directory
    rc = cli.main(argv)
    written = {}
    for f in path.iterdir():
        written[f.name] = f.read_bytes()
        f.unlink()
    return (rc, *capsys.readouterr(), written)


@pytest.mark.parametrize("value", ["-1e-05", "-2e-1", "-inf"])
@pytest.mark.parametrize(
    "argv, option, written",
    _WRITTEN_OPTIONS,
    ids=[f"{argv[0]}{written}" for argv, _, written in _WRITTEN_OPTIONS],
)
def test_negative_number_in_exponent_form_reaches_its_option(
    capsys, monkeypatch, tmp_path, argv, option, written, value
):
    # argparse read -1e-05, the repr of a small float, and -inf as options, and exited 2
    # with its usage text; after any long option, in full or as a prefix, each now gives the
    # exit code and the bytes of --opt=value, --out's file included
    monkeypatch.chdir(tmp_path)
    i = argv.index(option)
    spaced = argv[:i] + [written, value] + argv[i + 2:]
    joined = argv[:i] + [f"{written}={value}"] + argv[i + 2:]
    got = run_in(capsys, tmp_path, spaced)
    assert got == run_in(capsys, tmp_path, joined)
    rc, out, err, files = got
    if written == "--A-st":
        assert rc == 2 and "ambiguous option" in err
    elif option == "--out":
        assert rc == 0 and out == "" and err == "" and list(files) == [value]
    elif value == "-inf" and any(option in opts for _, opts in _FLOAT_OPTIONS):
        # the program's own check refuses it
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == "config"


def test_an_option_is_not_read_as_a_value(capsys):
    rc, out, err = run_cli(capsys, "solve", "--omega0", "1", "--A", "3.5", "--b", "--samples", "3")
    assert rc == 2 and out == "" and "expected one argument" in err


@pytest.mark.parametrize("tail, code", [(["--he", "-1e-05"], 0), (["--", "-1e-05"], 2)],
                         ids=["help-prefix", "end-of-options"])
def test_help_and_the_end_of_options_take_no_value(capsys, tail, code):
    # a prefix of --help prints the help and exits 0, and after "--" a number is an
    # argument, which no subcommand takes; neither is joined to the number after it
    rc, out, err = run_cli(capsys, "solve", "--omega0", "1", "--A", "3", *tail)
    assert rc == code
    if code == 0:
        assert out.startswith("usage: pdmosc solve") and err == ""
    else:
        assert out == "" and err.rstrip().endswith("unrecognized arguments: -- -1e-05")


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (
        ["solve", "--omega0", "1", "--A", "3"],
        ["scan", "--omega0", "1", "--A-start", "2", "--A-stop", "3", "--A-step", "1"],
        ["jafarov", "--omega0", "1", "--l", "3"],
    ):
        assert run_cli(capsys, *argv)[0] == 0
    assert built == []


def pythonpath():
    """PYTHONPATH for a new interpreter that imports this checkout's pdmosc."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return os.pathsep.join(p for p in paths if p)


def run_module(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env):
    env = dict(os.environ, PYTHONPATH=pythonpath(), **env)
    return subprocess.run(
        [sys.executable, "-m", "pdmosc.cli", *argv],
        stdout=stdout, stderr=stderr, text=True, env=env, timeout=60,
    )


def test_module_entry_point():
    done = run_module("solve", "--omega0", "1", "--A", "2")
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["spectrum"]["num_states"] == 1
    done = run_module("solve", "--omega0", "-1", "--A", "2")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert json.loads(done.stderr)["error"] == "config"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_a_config_error(unbuffered):
    # a reader that has gone, as in a pipe into head -1, ended in a BrokenPipeError
    # traceback with exit 1; it is refused as an unwritable --out is.  A buffered stdout
    # keeps what it could not write, and the interpreter's last flush of it prints nothing.
    # argparse's help took the same end buffered (exit 120 and "Exception ignored") and
    # exited 0 unbuffered, since argparse drops an error from its own write
    for argv in (["solve", "--omega0", "1", "--A", "3"], ["--help"], ["solve", "--help"]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = run_module(*argv, stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert done.returncode == 2, argv
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
        assert done.stderr.count("\n") == 1
        msg = json.loads(done.stderr)
        assert msg["error"] == "config" and "stdout" in msg["message"]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stderr_keeps_the_exit_code(unbuffered):
    # stdout and stderr on one pipe whose reader has gone, as in 2>&1 | head -c0: neither
    # the error line nor argparse's usage can be written, and each run still exits 2.  A
    # buffered stderr fails at the interpreter's last flush, an unbuffered one at the write
    for argv in (["solve", "--omega0", "1", "--A", "3"], ["solve", "--omega0", "1", "--A", "1.0"],
                 ["verify", "--omega0", "1", "--A", "3.25"], ["solve", "--omega0", "1"]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = run_module(*argv, stdout=write, stderr=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert done.returncode == 2, argv


def test_argparse_exits_are_returned(capsys):
    # main returns argparse's own exit codes, 0 after the help and 2 after a usage error,
    # and raises no SystemExit
    rc, out, err = run_cli(capsys, "--help")
    assert rc == 0 and out.startswith("usage: pdmosc") and out.endswith("\n") and err == ""
    rc, out, err = run_cli(capsys)
    assert rc == 2 and out == "" and "the following arguments are required: command" in err


def test_stdout_with_no_descriptor_is_left_in_place(capsys):
    # a stdout that fails to write and has no descriptor gets the same refusal, and no
    # descriptor of the process is pointed elsewhere
    class Closed(io.StringIO):
        def flush(self):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def files():
        return [(os.fstat(fd).st_dev, os.fstat(fd).st_ino) for fd in (0, 1, 2)]

    before = files()
    with contextlib.redirect_stdout(Closed()):
        rc = cli.main(["solve", "--omega0", "1", "--A", "3"])
    assert rc == 2 and files() == before
    err = capsys.readouterr().err
    assert json.loads(err) == {"error": "config", "message": "cannot write stdout: Broken pipe"}


# --- numpy, imported at its first use: each check runs in a new interpreter, since this one
# has imported numpy ---


def run_python(code):
    env = dict(os.environ, PYTHONPATH=pythonpath())
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)


def test_import_leaves_numpy_unimported():
    # numpy's own import loads numpy.linalg
    done = run_python("import sys, pdmosc; print('numpy.linalg' in sys.modules)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def builds_no_array(row):
    # the closed-form spectrum, and every refusal made before a state or grid exists
    command = row.argv.split()[0]
    return (row.code == 2 or command in ("scan", "jafarov")
            or (command == "solve" and "--samples" not in row.argv))


def test_rows_that_build_no_array_leave_numpy_unimported():
    rows = [row for row in smoke.ROWS if builds_no_array(row)]
    assert {row.argv.split()[0] for row in rows} == {"solve", "verify", "jafarov", "scan"}
    verify = next(row for row in smoke.ROWS if row.argv == "verify --omega0 1 --A 3.5")
    got = smoke.fresh([row.argv for row in [*rows, verify]], PYTHONPATH=pythonpath())
    for row, (rc, out, err, loaded) in zip([*rows, verify], got["runs"]):
        assert smoke.check(row, rc, out, err) is None, row.argv
        assert loaded is (row is verify), row.argv
    # the module pdmosc bound is the one numpy's import filled in
    assert got["bound"] is True


# numpy found by no finder, as where it is not installed
_NOT_INSTALLED = """
import sys
class Hidden:
    def __init__(self, finder):
        self.finder = finder
    def find_spec(self, name, path=None, target=None):
        return None if name.partition(".")[0] == "numpy" else self.finder.find_spec(name, path, target)
sys.meta_path[:] = [Hidden(finder) for finder in sys.meta_path]
"""


@pytest.mark.parametrize("hide", [_NOT_INSTALLED, "import sys; sys.modules['numpy'] = None"],
                         ids=["not-installed", "none-in-sys-modules"])
def test_a_missing_numpy_fails_at_import(hide):
    done = run_python(hide + "\nimport pdmosc")
    assert done.returncode == 1
    assert re.fullmatch(r"ModuleNotFoundError: .*numpy.*", done.stderr.splitlines()[-1])


def test_a_numpy_imported_first_is_kept():
    done = run_python("import numpy, pdmosc.oracle; print(pdmosc.oracle.np is numpy)")
    assert (done.returncode, done.stdout) == (0, "True\n")


# --- work limits ---


def test_scan_length_refused_before_any_row():
    class Start(float):
        # every scan row is start + i * step
        def __add__(self, other):
            raise AssertionError("a scan row was made")

    with pytest.raises(ParameterError, match=f"more than {cli.MAX_SCAN_ROWS} rows"):
        cli._range_values((Start(2.0), 3.0, 1e-300))


def test_scan_length_limit_is_exact():
    limit = cli.MAX_SCAN_ROWS
    assert len(cli._range_values((0.0, limit - 1.0, 1.0))) == limit
    with pytest.raises(ParameterError, match=str(limit)):
        cli._range_values((0.0, float(limit), 1.0))


@pytest.mark.parametrize(
    "bound, value",
    [("--A-start", "nan"), ("--A-start", "-inf"), ("--A-stop", "nan"), ("--A-stop", "inf"),
     ("--A-step", "nan"), ("--A-step", "inf")],
)
def test_scan_rejects_nonfinite_range(capsys, bound, value):
    argv = {"--A-start": "2", "--A-stop": "3", "--A-step": "0.5"}
    argv[bound] = value
    rc, out, err = run_cli(capsys, "scan", "--omega0", "1", *(f"{k}={v}" for k, v in argv.items()))
    assert rc == 2 and out == ""
    assert "finite" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "scan_range, step",
    [(["--A-start", "2", "--A-stop", "2.000000000000001", "--A-step", "1e-16"], "1e-16"),
     (["--A-start", "2", "--A-stop", "2", "--A-step", "1e-320"], "1e-320"),
     (["--A", "3", "--b-start", "0.1", "--b-stop", "0.10000000000000002", "--b-step", "1e-18"],
      "1e-18")],
    ids=["A-range", "one-value-A-range", "b-range"],
)
def test_scan_step_that_repeats_a_value_is_refused(capsys, scan_range, step):
    # a step below the spacing of floats at a row printed repeated rows (three of 2, then
    # four of 2.0000000000000004, with equal energies), or a range from 2 to 2 was refused
    # as more than MAX_SCAN_ROWS rows; either is one config line that names the step
    rc, out, err = run_cli(capsys, "scan", "--omega0", "1", *scan_range)
    assert rc == 2 and out == "" and err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "config" and f"scan step {step} " in msg["message"]


@pytest.mark.parametrize(
    "limit, argv",
    [
        ("MAX_SCAN_ROWS",
         ["scan", "--omega0", "1", "--A-start", "2", "--A-stop", "3", "--A-step", "1e-300"]),
        ("MAX_LEVELS", ["solve", "--omega0", "1", "--A", "1e15"]),
        # the first rows are admitted; the last holds 20 002 levels
        ("MAX_LEVELS",
         ["scan", "--omega0", "1", "--A-start", "3", "--A-stop", "20003", "--A-step", "10000"]),
        ("MAX_LEVELS", ["verify", "--omega0", "1", "--A", "1e15"]),
        ("MAX_LEVELS", ["jafarov", "--omega0", "1", "--l", "1000000"]),
        # 9 999 levels on the default grid of 160 000 points
        ("MAX_WORK", ["verify", "--omega0", "1", "--A", "1e4"]),
        # the shallowest refused depth: 208 levels on a grid of 3 329 points
        ("MAX_WORK", ["verify", "--omega0", "1", "--A", "208.0625"]),
        # 9 999 levels, each evaluated on 30 003 points
        ("MAX_WORK", ["solve", "--omega0", "1", "--A", "1e4", "--samples", "3"]),
        ("MAX_WORK", ["solve", "--omega0", "1", "--A", "3", "--samples", "100000000"]),
        # 10 000 admitted rows of 1 to 10 000 levels, 50 005 000 in all
        ("MAX_WORK",
         ["scan", "--omega0", "1", "--A-start", "2", "--A-stop", "10001", "--A-step", "1"]),
        # the shallowest refused depth at --samples 1: any A above 581 holds 581 levels,
        # here each on 1 746 points
        ("MAX_WORK", ["solve", "--omega0", "1", "--A", "581.5", "--samples", "1"]),
    ],
)
def test_work_over_a_limit_is_refused_before_any_level(monkeypatch, capsys, limit, argv):
    def no_level(*args):
        raise AssertionError("a level was computed")

    monkeypatch.setattr(OscillatorParams, "_spectrum", no_level)
    monkeypatch.setattr(oscillator, "_jafarov_levels", no_level)
    # the two formulas every CLI spectrum's energies come from, which no gate guards
    monkeypatch.setattr(oscillator, "_energies", no_level)
    monkeypatch.setattr(oscillator, "_level_energies", no_level)
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert err.count("\n") == 1
    assert str(getattr(cli, limit)) in json.loads(err)["message"]


@pytest.mark.parametrize(
    "argv, work, what",
    [
        # k levels on the 2 sample points and the norm rule's nodes, (2 + rule) k(k+1)/2
        # polynomial steps, and 2 k printed samples; A = 3 has the 400-node floor,
        # A = 150.5 a rule of 3 A nodes, rounded up
        (["solve", "--A", "3", "--samples", "2"], 402 * 3 + cli.SAMPLE_WORK * 4,
         "solve of 2 levels at --samples 2 with a 400-node norm rule"),
        (["solve", "--A", "150.5", "--samples", "2"], 454 * 150 * 151 // 2 + cli.SAMPLE_WORK * 300,
         "solve of 150 levels at --samples 2 with a 452-node norm rule"),
        # 2 levels on the 500-point grid, counted as 500 (2 + 3) level-points
        (["verify", "--A", "3"], cli.FD_WORK * 500 * 5, "verify of 2 levels on its 500-point grid"),
        # A = 3, 4 and 5 hold 2, 3 and 4 levels
        (["scan", "--A-start", "3", "--A-stop", "5", "--A-step", "1"], cli.LEVEL_WORK * 9,
         "scan of 3 rows holding 9 levels"),
    ],
    ids=["solve", "solve-150.5", "verify", "scan"],
)
@pytest.mark.parametrize("over", [0, 1])
def test_work_limit_boundary(monkeypatch, capsys, argv, work, what, over):
    # each estimate exactly: admitted at the limit, refused one step below it
    monkeypatch.setattr(cli, "MAX_WORK", work - over)
    rc, out, err = run_cli(capsys, *argv, "--omega0", "1")
    if over:
        assert rc == 2 and out == ""
        assert json.loads(err)["message"] == (
            f"{what} is {work} steps of work, above the limit of {work - 1}"
        )
    else:
        assert rc == 0 and out and err == ""


def test_scan_holds_about_one_copy_of_its_table(capsys, tmp_path):
    # 299 rows, 44 850 energies: each row is joined into text as it is made, so the peak
    # is the row texts and their join, about twice the output (2.2 times when measured)
    run_cli(capsys, "scan", "--omega0", "1", "--A-start", "2", "--A-stop", "3", "--A-step", "1")
    out = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        rc = cli.main(["scan", "--omega0", "1", "--A-start", "2", "--A-stop", "300",
                       "--A-step", "1", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 3 * out.stat().st_size



def test_solve_csv_holds_a_few_copies_of_its_table(capsys, tmp_path):
    # 40 000 samples of one level, 1.7 MB of CSV: the rows are made and joined one at a
    # time, so the peak is the joined row texts, the output text and the level's x and psi
    # lists, about 4 times the output (4.1 times when measured; 8.8 times when every row
    # was held as a list and every x also as JSON text)
    run_cli(capsys, "solve", "--omega0", "1", "--A", "2", "--samples", "3", "--format", "csv")
    out = tmp_path / "solve.csv"
    tracemalloc.start()
    try:
        rc = cli.main(["solve", "--omega0", "1", "--A", "2", "--samples", "40000",
                       "--format", "csv", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 5 * out.stat().st_size


@pytest.mark.parametrize(
    "omega0, A, b_frac, count",
    [(1.0, 250.0, 0.0, 249), (1.0, 300.0, 0.0, 299), (1.0, 499.0, 0.0, 498),
     (0.5, 499.0, 0.3, 226), (1.0, 581.0, 0.0, 580), (0.5, 581.0, 0.3, 263)],
)
def test_solve_at_depth_is_admitted_with_resolved_norms(capsys, omega0, A, b_frac, count):
    # the norm rule grows with the depth; a 400-node rule missed 1 by up to 7.5e-4, 0.11
    # and 0.19 at A = 250, 300 and 499 (b = 0).  A = 581 is the deepest admitted model at
    # --samples 1
    b = b_frac * oscillator.shift_bound(omega0, A)
    rc, out, _ = run_cli(capsys, "solve", f"--omega0={omega0!r}", f"--A={A!r}", f"--b={b!r}",
                         "--samples", "1")
    assert rc == 0
    waves = json.loads(out)["wavefunctions"]
    assert len(waves) == count
    assert max(abs(w["norm"] - 1.0) for w in waves) <= 1e-9
    assert all(s["psi"] is not None for w in waves for s in w["samples"])


@pytest.mark.parametrize(
    "argv, level",
    [(["solve", "--omega0", "0.0010800095371873747", "--A", "1029.1086828241594",
       "--b", "0.3898319638693721", "--samples", "27"], 238),
     (["solve", "--omega0", "1.6189491004119715e-08", "--A", "1729.0152111635182",
       "--b", "-0.002638004038449934", "--samples", "31", "--format", "csv"], 184)],
)
def test_solve_refuses_states_that_overflow(capsys, argv, level):
    # a shift leaves few levels at a large depth, so the work estimate admits depths where
    # the recurrence overflows: these printed null psi and norms from n = 238, and 1 012
    # nan cells, with exit 0.  Now no payload prints, and the first such level is named
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 4 and out == ""
    assert err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "numerical"
    assert msg["message"].startswith(f"level {level} of ")
