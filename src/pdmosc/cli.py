"""Command-line front end for the confined-oscillator solver.

Subcommands: ``solve`` (closed-form spectrum, optional wavefunction table),
``verify`` (closed forms against the finite-difference solver), ``jafarov``
(integer-l case with quantized confinement length, cross-checked against the
general solver), ``scan`` (CSV spectrum table over an A or b range).

Exit codes: 0 success, 2 invalid configuration, 3 verification mismatch,
4 numerical non-convergence.  Errors go to stderr as a one-line JSON object;
payloads go to stdout or the ``--out`` path.  JSON payloads come from
``json.dumps``: a float prints as its shortest round-trip repr, and NaN and
+-inf print as null.  CSV cells carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle, oscillator
from .errors import ConvergenceError, ParameterError
from .oscillator import OscillatorParams

VERIFY_TOL = 1e-5
JAFAROV_TOL = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings shared by all subcommands."""

    command: str
    omega0: float
    A: float | None = None
    l: int | None = None
    b: float = 0.0
    grid: int = 2000
    quad: int = 400
    samples: int = 0
    format: str = "json"
    out: str | None = None
    # (start, stop, step); at most one of the two is set
    a_range: tuple[float, float, float] | None = None
    b_range: tuple[float, float, float] | None = None


def _null_nonfinite(value: object) -> object:
    # JSON has no NaN or infinity: every non-finite float prints as null
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _null_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(v) for v in value]
    return value


def _json_payload(payload: dict) -> str:
    # floats print as repr, the shortest text that round-trips bit for bit
    return json.dumps(_null_nonfinite(payload), indent=2, allow_nan=False)


def _csv_cell(v: object) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        # 17 significant digits round-trips any double
        return format(v, ".17g")
    return str(v)


def _csv_text(rows: list[list[object]]) -> str:
    return "\n".join(",".join(_csv_cell(c) for c in row) for row in rows)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is not None:
        with open(cfg.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _error(kind: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": kind, "message": message}) + "\n"
    )


def _params_block(p: OscillatorParams) -> dict:
    return {"omega0": p.omega0, "A": p.A, "b": p.b}


def _spectrum(p: OscillatorParams) -> dict:
    # a and the energies from one derivation; no level's wavefunction is resolved
    a, pmap, rm, count = oscillator._derived(p)
    return {
        "a": a,
        "num_states": count,
        "levels": [{"n": n, "energy": oscillator._level_energy(pmap, rm, n)} for n in range(count)],
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


def _sample_block(p: OscillatorParams, a: float, cfg: RunConfig) -> list[dict]:
    xs = [-a + 2.0 * a * (j + 1) / (cfg.samples + 1) for j in range(cfg.samples)]
    points = np.array(xs)
    out = []
    for s in oscillator.bound_states(p):
        norm = oracle.overlap(s.wavefunction, s.wavefunction, -a, a, cfg.quad)
        psi = s.wavefunction(points).tolist()
        out.append(
            {
                "n": s.n,
                "norm": norm,
                "samples": [{"x": x, "psi": v} for x, v in zip(xs, psi)],
            }
        )
    return out


def cmd_solve(cfg: RunConfig) -> int:
    p = OscillatorParams(cfg.omega0, cfg.A, cfg.b)
    spectrum = _spectrum(p)
    samples = _sample_block(p, spectrum["a"], cfg) if cfg.samples > 0 else []
    if cfg.format == "csv":
        rows = _spectrum_rows([p.A], [spectrum])
        if samples:
            rows.append([])
            rows.append(["n", "x", "psi"])
            for entry in samples:
                for pt in entry["samples"]:
                    rows.append([entry["n"], pt["x"], pt["psi"]])
        _emit(cfg, _csv_text(rows))
        return 0
    payload = {
        "command": "solve",
        "params": _params_block(p),
        "spectrum": spectrum,
    }
    if samples:
        payload["wavefunctions"] = samples
    _emit(cfg, _json_payload(payload))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    p = OscillatorParams(cfg.omega0, cfg.A, cfg.b)
    k = oscillator.num_bound_states(p)
    report = oracle.solve_pdm_numeric(p, k, cfg.grid, estimate_order=True)
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
        "grid": cfg.grid,
        "report": {
            "grid_sizes": list(report.grid_sizes),
            "spacings": list(report.spacings),
            "levels": levels,
            "max_rel_err": worst,
            "tolerance": VERIFY_TOL,
            "passed": passed,
        },
    }
    _emit(cfg, _json_payload(payload))
    return 0 if passed else 3


def cmd_jafarov(cfg: RunConfig) -> int:
    a_l, quant = oscillator._jafarov_levels(cfg.omega0, cfg.l)
    spectrum = _spectrum(OscillatorParams(cfg.omega0, float(cfg.l), 0.0))
    devs = [abs(a_l - spectrum["a"]) / abs(spectrum["a"])]
    for lv, (e, _) in zip(spectrum["levels"], quant):
        devs.append(abs(e - lv["energy"]) / max(abs(lv["energy"]), 1e-300))
    worst = max(devs)
    matches = worst <= JAFAROV_TOL
    payload = {
        "command": "jafarov",
        "params": {"omega0": cfg.omega0, "l": cfg.l},
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
    _emit(cfg, _json_payload(payload))
    return 0 if matches else 3


def _range_values(rng: tuple[float, float, float]) -> list[float]:
    start, stop, step = rng
    if step <= 0.0:
        raise ParameterError(f"scan step must be positive, got {step!r}")
    if stop < start:
        raise ParameterError(f"empty scan range: stop {stop!r} < start {start!r}")
    vals = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + 1e-12 * step:
            break
        vals.append(v)
        i += 1
    return vals


def cmd_scan(cfg: RunConfig) -> int:
    if cfg.a_range is not None:
        params = [
            OscillatorParams(cfg.omega0, v, cfg.b)
            for v in _range_values(cfg.a_range)
        ]
        col = [p.A for p in params]
    else:
        params = [
            OscillatorParams(cfg.omega0, cfg.A, v)
            for v in _range_values(cfg.b_range)
        ]
        col = [p.b for p in params]
    spectra = [_spectrum(p) for p in params]
    _emit(cfg, _csv_text(_spectrum_rows(col, spectra)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmosc",
        description="Bound states of the confined oscillator with a "
        "position-dependent mass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--omega0", type=float, required=True,
                        help="oscillator frequency (> 0)")
        sp.add_argument("--out", help="write the payload to this path")

    sp = sub.add_parser("solve", help="closed-form spectrum and wavefunctions")
    common(sp)
    sp.add_argument("--A", type=float, required=True,
                    help="potential depth parameter (> 1)")
    sp.add_argument("--b", type=float, default=0.0, help="shift parameter")
    sp.add_argument("--samples", type=int, default=0,
                    help="interior sample count per wavefunction")
    sp.add_argument("--quad", type=int, default=400,
                    help="quadrature size for the norm column")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("verify", help="cross-check against the grid solver")
    common(sp)
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--b", type=float, default=0.0)
    sp.add_argument("--grid", type=int, default=2000,
                    help="base grid size (also solved at twice this)")

    sp = sub.add_parser("jafarov", help="integer-l quantized-length case")
    common(sp)
    sp.add_argument("--l", type=int, required=True,
                    help="integer depth parameter (>= 2)")

    sp = sub.add_parser("scan", help="CSV table over an A or b range")
    common(sp)
    sp.add_argument("--A", type=float, help="fixed A for a b-range scan")
    sp.add_argument("--b", type=float, default=0.0,
                    help="fixed b for an A-range scan")
    sp.add_argument("--A-start", type=float, dest="A_start")
    sp.add_argument("--A-stop", type=float, dest="A_stop")
    sp.add_argument("--A-step", type=float, dest="A_step")
    sp.add_argument("--b-start", type=float, dest="b_start")
    sp.add_argument("--b-stop", type=float, dest="b_stop")
    sp.add_argument("--b-step", type=float, dest="b_step")
    return parser


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


def _config(ns: argparse.Namespace) -> RunConfig:
    fields = {"command": ns.command, "omega0": ns.omega0, "out": ns.out}
    for name in ("A", "l", "b", "grid", "quad", "samples", "format"):
        if hasattr(ns, name):
            fields[name] = getattr(ns, name)
    if ns.command == "scan":
        fields["a_range"], fields["b_range"] = _scan_ranges(ns)
        fields["format"] = "csv"
    if ns.command == "solve" and fields["samples"] < 0:
        raise ParameterError(f"--samples must be >= 0, got {fields['samples']}")
    if ns.command == "solve" and fields["quad"] < 1:
        raise ParameterError(f"--quad must be >= 1, got {fields['quad']}")
    return RunConfig(**fields)


_DISPATCH = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "jafarov": cmd_jafarov,
    "scan": cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = _config(ns)
        return _DISPATCH[cfg.command](cfg)
    except ConvergenceError as exc:
        _error("numerical", str(exc))
        return 4
    except ValueError as exc:
        # ParameterError/DomainError and relatives: bad configuration
        _error("config", str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
