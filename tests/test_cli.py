"""Command-line interface: payload shapes, pinned values, exit codes.

Everything drives cli.main(argv) in-process and reads captured stdout or
stderr; file output goes through tmp_path.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pdmosc import cli, oscillator, pct, rosen_morse
from pdmosc.errors import ParameterError
from pdmosc.oscillator import (
    OscillatorParams,
    confinement_length,
    energy,
    energy_harmonic_form,
    jafarov_case,
    shift_bound,
    wavefunction,
)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


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


def test_solve_rejects_shallow_well(capsys):
    rc, out, err = run_cli(capsys, "solve", "--omega0", "1", "--A", "1.0")
    assert rc == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "config"
    assert "A" in msg["message"]


def test_solve_rejects_excess_shift(capsys):
    rc, _, err = run_cli(capsys, "solve", "--omega0", "1", "--A", "3", "--b", "1.0")
    assert rc == 2
    # the limit itself is quoted so the caller knows the valid range
    assert "0.7544" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_shift_leaving_no_level_is_refused(capsys, command):
    # |b| sits 2e-15 relative below shift_bound(1, 3): the lowest level is
    # inside the window margin, so no model exists and the bound is quoted
    rc, out, err = run_cli(capsys, command, "--omega0", "1", "--A", "3", "--b", "0.75446005780976")
    assert rc == 2 and out == ""
    assert format(shift_bound(1.0, 3.0), ".17g") in json.loads(err)["message"]


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
        capsys, "solve", "--omega0", "1", "--A", "3", "--b", "0.1",
        "--samples", "5", "--quad", "200",
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
    # the top levels behave like (1 - |x|/a)^((A-n-1)/2) at the walls; the rule on the
    # sine map resolves them at the default --quad, where plain Gauss-Legendre nodes in x
    # missed 1 by up to 7.4e-4 (A = 60.3)
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


def test_solve_rejects_bad_sampling_args(capsys):
    rc, _, err = run_cli(capsys, "solve", "--omega0", "1", "--A", "2", "--samples", "-1")
    assert rc == 2 and json.loads(err)["error"] == "config"
    rc, _, err = run_cli(capsys, "solve", "--omega0", "1", "--A", "2", "--quad", "0")
    assert rc == 2


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
    [["solve", "--omega0", "1", "--A", "3"], ["verify", "--omega0", "1", "--A", "3", "--grid", "64"]],
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
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "3", "--grid", "2000")
    assert rc == 0
    rep = json.loads(out)["report"]
    assert rep["passed"] is True
    assert rep["max_rel_err"] < 1e-6
    assert rep["tolerance"] == 1e-5
    assert rep["grid_sizes"] == [1000, 2000, 4000]
    for lev in rep["levels"]:
        if lev["order"] is not None:
            assert 1.4 < lev["order"] < 2.2


def test_verify_shifted(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--omega0", "1", "--A", "3", "--b", "0.1", "--grid", "2000"
    )
    assert rc == 0
    assert json.loads(out)["report"]["passed"] is True


def test_verify_coarse_grid_fails(capsys):
    # the report is still emitted in full so the failure can be read off
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "2", "--grid", "8")
    assert rc == 3
    rep = json.loads(out)["report"]
    assert rep["passed"] is False
    assert rep["max_rel_err"] > 1e-5
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
    _, _, rm = pct.map_parameters(p.omega0, p.A, p.b)
    m = rm.A - (oscillator.num_bound_states(p) - 1)
    assert abs(m - 1.0 - abs(rm.B) / m - 0.448) < 1e-3
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "6.5", "--b", "0.104")
    assert rc == 0
    levels = json.loads(out)["report"]["levels"]
    assert len(levels) == 5
    for lev in levels:
        assert 1.9 <= lev["order"] <= 2.1


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "A, grid, levels", [("2", 500, 1), ("60.5", 968, 60), ("200.5", 3208, 200)]
)
def test_verify_default_grid_scales_with_the_depth(monkeypatch, capsys, A, grid, levels):
    # the oracle is replaced, so only the grid it is asked for is checked; A = 200.5 is
    # admitted under MAX_VERIFY_WORK
    def asked(p, k, n_grid, estimate_order=False):
        raise _Stop(k, n_grid)

    monkeypatch.setattr(cli.oracle, "solve_pdm_numeric", asked)
    with pytest.raises(_Stop) as stop:
        cli.main(["verify", "--omega0", "1", "--A", A])
    assert stop.value.args == (levels, grid)
    assert levels * grid <= cli.MAX_VERIFY_WORK


def test_verify_rejects_excess_shift(capsys):
    rc, _, err = run_cli(capsys, "verify", "--omega0", "1", "--A", "3", "--b", "0.8")
    assert rc == 2
    assert json.loads(err)["error"] == "config"


def test_verify_rejects_tiny_grid(capsys):
    rc, _, err = run_cli(capsys, "verify", "--omega0", "1", "--A", "2", "--grid", "4")
    assert rc == 2


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


def test_quantized_case_at_a_large_depth_builds_no_factorial_per_level(capsys, monkeypatch):
    # the normalizations pass exact integers from level to level instead of
    # building four factorials of up to 2l per level (9 s at l = 3000 before)
    calls = {"factorial": 0, "coeffs": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(math, "factorial", counted("factorial", math.factorial))
    monkeypatch.setattr(
        oscillator, "_jafarov_coeffs", counted("coeffs", oscillator._jafarov_coeffs)
    )
    rc, out, _ = run_cli(capsys, "jafarov", "--omega0", "1", "--l", "3000")
    assert calls["coeffs"] >= 1
    assert calls["factorial"] <= 2 * calls["coeffs"]
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


def test_quantized_case_rejects_small_l(capsys):
    rc, out, err = run_cli(capsys, "jafarov", "--omega0", "1", "--l", "1")
    assert rc == 2 and out == ""
    assert "l" in json.loads(err)["message"]


def test_quantized_case_rejects_noninteger_l(capsys):
    # argparse handles the type failure itself
    with pytest.raises(SystemExit) as exc:
        cli.main(["jafarov", "--omega0", "1", "--l", "2.5"])
    assert exc.value.code == 2


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


def test_scan_rejects_empty_range(capsys):
    rc, _, err = run_cli(
        capsys, "scan", "--omega0", "1",
        "--A-start", "3", "--A-stop", "2", "--A-step", "0.25",
    )
    assert rc == 2
    assert "empty scan range" in json.loads(err)["message"]


def test_scan_rejects_partial_range(capsys):
    rc, _, err = run_cli(capsys, "scan", "--omega0", "1", "--A-start", "2")
    assert rc == 2


def test_scan_rejects_missing_range(capsys):
    rc, _, err = run_cli(capsys, "scan", "--omega0", "1", "--A", "2.5")
    assert rc == 2


def test_scan_rejects_two_ranges(capsys):
    rc, _, err = run_cli(
        capsys, "scan", "--omega0", "1",
        "--A-start", "2", "--A-stop", "3", "--A-step", "1",
        "--b-start", "0", "--b-stop", "0.1", "--b-step", "0.1",
    )
    assert rc == 2


def test_scan_shift_range_needs_fixed_depth(capsys):
    rc, _, err = run_cli(
        capsys, "scan", "--omega0", "1",
        "--b-start", "0", "--b-stop", "0.1", "--b-step", "0.1",
    )
    assert rc == 2


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
def test_spectrum_rows_derive_once_and_resolve_no_state(monkeypatch, capsys, argv, models):
    # each model maps once to be admitted and once for a and its energies;
    # rows that print no wavefunction resolve none
    calls = {"map_parameters": 0, "ln_gamma": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(pct, "map_parameters", counted("map_parameters", pct.map_parameters))
    monkeypatch.setattr(rosen_morse, "ln_gamma", counted("ln_gamma", rosen_morse.ln_gamma))
    rc, _, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert calls == {"map_parameters": 2 * models, "ln_gamma": 0}


def test_samples_reuse_the_spectrum_derivation(monkeypatch, capsys):
    # the states come from the derivation that admitted the model, and each
    # level's energy is computed once, for the spectrum
    calls = {"map_parameters": 0, "rm_energy": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pct, "map_parameters", counted("map_parameters", pct.map_parameters))
    monkeypatch.setattr(oscillator, "rm_energy", counted("rm_energy", oscillator.rm_energy))
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "6.5", "--b", "0.1",
                         "--samples", "4")
    assert rc == 0
    waves = json.loads(out)["wavefunctions"]
    assert calls == {"map_parameters": 2, "rm_energy": len(waves)}
    states = oscillator.bound_states(OscillatorParams(1.0, 6.5, 0.1))
    assert [w["n"] for w in waves] == [s.n for s in states]
    for w, s in zip(waves, states):
        points = w["samples"]
        assert [pt["psi"] for pt in points] == [s.wavefunction(pt["x"]) for pt in points]


def test_verify_derives_each_model_once(monkeypatch, capsys):
    # the constructor validates, _admit derives the model that sets the work, and the
    # oracle derives its own for a, the level count and every analytic energy
    calls = {"map_parameters": 0}

    def counted(*args):
        calls["map_parameters"] += 1
        return original(*args)

    original = pct.map_parameters
    monkeypatch.setattr(pct, "map_parameters", counted)
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "6.5", "--b", "0.1")
    assert rc == 0 and len(json.loads(out)["report"]["levels"]) == 5
    assert calls == {"map_parameters": 3}


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["jafarov", "--omega0", "1", "--l", "2.5"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc, out, err = run_cli(
        capsys, "scan", "--omega0", "1", "--A-start", "2", "--A-stop", "3", "--A-step", "0.5"
    )
    assert rc == 0 and err == ""
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["2", "2.5", "3"]


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


def run_module(*argv):
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-m", "pdmosc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_point():
    done = run_module("solve", "--omega0", "1", "--A", "2")
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["spectrum"]["num_states"] == 1
    done = run_module("solve", "--omega0", "-1", "--A", "2")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert json.loads(done.stderr)["error"] == "config"


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
    "limit, argv",
    [
        ("MAX_SCAN_ROWS",
         ["scan", "--omega0", "1", "--A-start", "2", "--A-stop", "3", "--A-step", "1e-300"]),
        ("MAX_LEVELS", ["solve", "--omega0", "1", "--A", "1e15"]),
        # the first rows are admitted; the last holds 20 002 levels
        ("MAX_LEVELS",
         ["scan", "--omega0", "1", "--A-start", "3", "--A-stop", "20003", "--A-step", "10000"]),
        ("MAX_LEVELS", ["verify", "--omega0", "1", "--A", "1e15", "--grid", "2000"]),
        ("MAX_LEVELS", ["jafarov", "--omega0", "1", "--l", "1000000"]),
        # 9 999 levels on the default grid of 160 000 points
        ("MAX_VERIFY_WORK", ["verify", "--omega0", "1", "--A", "1e4"]),
        ("MAX_VERIFY_WORK", ["verify", "--omega0", "1", "--A", "3", "--grid", "400000"]),
        # 9 999 levels, each evaluated on 403 points
        ("MAX_SOLVE_WORK", ["solve", "--omega0", "1", "--A", "1e4", "--samples", "3"]),
        ("MAX_SOLVE_WORK", ["solve", "--omega0", "1", "--A", "3", "--samples", "100000000"]),
        # 10 000 admitted rows of 1 to 10 000 levels, 50 005 000 in all
        ("MAX_SCAN_WORK",
         ["scan", "--omega0", "1", "--A-start", "2", "--A-stop", "10001", "--A-step", "1"]),
    ],
)
def test_work_over_a_limit_is_refused_before_any_level(monkeypatch, capsys, limit, argv):
    def no_level(*args):
        raise AssertionError("a level was computed")

    monkeypatch.setattr(oscillator._Model, "energies", no_level)
    monkeypatch.setattr(oscillator, "_jafarov_levels", no_level)
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert err.count("\n") == 1
    assert str(getattr(cli, limit)) in json.loads(err)["message"]


@pytest.mark.parametrize("A, rc, count", [("1e4", 0, 9999), ("10001", 0, 10000), ("10002", 2, None)])
def test_level_limit_boundary(capsys, A, rc, count):
    got, out, err = run_cli(capsys, "solve", "--omega0", "1", "--A", A)
    assert got == rc
    if count is None:
        assert str(cli.MAX_LEVELS) in json.loads(err)["message"]
    else:
        spectrum = json.loads(out)["spectrum"]
        assert spectrum["num_states"] == len(spectrum["levels"]) == count


@pytest.mark.parametrize("over, rc", [(0, 0), (1, 2)])
def test_solve_work_limit_boundary(monkeypatch, capsys, over, rc):
    # A = 3 holds 2 levels: (2 + 400) * 3 polynomial steps and 2 * 2 printed samples
    work = (2 + 400) * 3 + cli.SOLVE_SAMPLE_WORK * 2 * 2
    monkeypatch.setattr(cli, "MAX_SOLVE_WORK", work - over)
    got, out, err = run_cli(capsys, "solve", "--omega0", "1", "--A", "3", "--samples", "2")
    assert got == rc
    if rc:
        assert f"is {work} steps" in json.loads(err)["message"]
    else:
        assert len(json.loads(out)["wavefunctions"]) == 2


@pytest.mark.parametrize("over, rc", [(0, 0), (1, 2)])
def test_scan_work_limit_boundary(monkeypatch, capsys, over, rc):
    # A = 3, 4 and 5 hold 2, 3 and 4 levels
    monkeypatch.setattr(cli, "MAX_SCAN_WORK", 9 - over)
    got, out, err = run_cli(capsys, "scan", "--omega0", "1", "--A-start", "3", "--A-stop", "5",
                            "--A-step", "1")
    assert got == rc
    if rc:
        assert "3 rows holds 9 levels" in json.loads(err)["message"]
    else:
        assert len(out.splitlines()) == 4


def test_solve_at_depth_300_is_admitted(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--omega0", "1", "--A", "300", "--samples", "1")
    assert rc == 0 and len(json.loads(out)["wavefunctions"]) == 299


def test_verify_refuses_a_grid_too_small_for_its_levels(capsys):
    rc, out, err = run_cli(capsys, "verify", "--omega0", "1", "--A", "30.5", "--grid", "20")
    assert rc == 2 and out == ""
    msg = json.loads(err)["message"]
    assert "--grid" in msg and "30 levels" in msg and "--grid 60" in msg
    assert "k <=" not in msg
    rc, _, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "30.5", "--grid", "59")
    assert rc == 2
    rc, out, _ = run_cli(capsys, "verify", "--omega0", "1", "--A", "30.5", "--grid", "60")
    assert rc in (0, 3) and len(json.loads(out)["report"]["levels"]) == 30
