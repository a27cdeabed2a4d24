"""Record benchmark rows: each workload run N times per checkout, plus traced runs.

    python3 scripts/bench_record.py --runs 10 --seconds 30 --out BENCH.json \
        --side parent=../parent-checkout --side change=.

Each ``--side LABEL=DIR`` names a checkout whose ``bench/run.py`` is run
from its own root, so each side times its own sources with its own
benchmark code (default: this checkout, labelled ``checkout``).  Run i
(1..N) uses seed i on every side, and the sides alternate which goes
first.  After the timed runs, each side makes TRACED_RUNS ``--trace 1``
runs per workload at seed 1, again alternating which side goes first.

The output holds one row per (side, workload, metric).  An end-to-end row
gives the median, the quartiles and their distance (IQR) over the N runs,
with n, the Python version and the core count, and lists every run's value
with its seed and its place in the run order (0 = first of the pair), so
pairs of runs can be compared from the record.  A per-layer time row gives
the same spread over the traced runs, with each run's value; a per-layer
count row gives the count once, since counts repeat exactly.  Each (side,
workload) also gets an ``outcome`` row: failed and attempted operations
summed over the timed runs.  The command exits 1 if any run's outputs
failed their checks, or if a count differs between a side's traced runs.

With two sides, the first is the base and the second the change, and the
command ends with one line per workload and end-to-end metric: the two
medians, the change in %, the pairs (runs of one seed) the change won, the
base's IQR, and ``WORSE`` where the change's median is worse than the
base's by more than the metric's bound in BENCHMARK.json.  These lines do
not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify_sweep", "wavefunction_table", "spectrum_scan")
# a traced run's self times are wall seconds of one process: one run alone can move a
# row by a third on unchanged code, so each side's per-layer times are a median of these
TRACED_RUNS = 3


def _bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit(root: Path) -> str | None:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                          capture_output=True, text=True)
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def _spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def _comparison(rows: list[dict], base: str, change: str) -> list[str]:
    # one line per workload and end-to-end metric, the change against the base
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    timed = {(r["side"], r["workload"], r["metric"]): r for r in rows if r["kind"] == "end_to_end"}
    lines = []
    for (side, workload, name), a in timed.items():
        b = timed.get((change, workload, name))
        if side != base or b is None or name not in metrics:
            continue
        sign = 1.0 if metrics[name]["better"] == "higher" else -1.0
        pct = 100.0 * (b["median"] - a["median"]) / a["median"]
        theirs = {r["seed"]: r["value"] for r in a["runs"]}
        won = sum(sign * (r["value"] - theirs[r["seed"]]) > 0.0 for r in b["runs"])
        flag = "  WORSE" if -sign * pct > 100.0 * metrics[name]["bound"] else ""
        lines.append(f"{workload} {name}: {base} {a['median']:.6g}, {change} {b['median']:.6g},"
                     f" {pct:+.1f} %, {change} won {won}/{len(b['runs'])} pairs,"
                     f" {base} IQR {a['iqr']:.3g}{flag}")
    return lines


def _side(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not (sep and label and Path(path, "bench", "run.py").is_file()):
        raise argparse.ArgumentTypeError(f"need LABEL=DIR with DIR/bench/run.py, got {text!r}")
    return label, Path(path).resolve()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--side", type=_side, action="append",
                    help="LABEL=DIR of a checkout to run (repeatable)")
    ap.add_argument("--runs", type=int, default=10, help="timed runs per side and workload")
    ap.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    sides = args.side or [("checkout", ROOT)]
    if len({label for label, _ in sides}) < len(sides):
        ap.error("each --side needs its own LABEL")
    host = {"python": platform.python_version(), "cores": os.cpu_count()}

    rows = []
    correct = True
    counts_agree = True
    for workload in WORKLOADS:
        timed: dict[str, list[dict]] = {label: [] for label, _ in sides}
        for seed in range(1, args.runs + 1):
            for place, (label, root) in enumerate(sides if seed % 2 else sides[::-1]):
                res = _bench(root, workload, seed, args.seconds, 0)
                timed[label].append({**res, "seed": seed, "place": place})
                correct &= res["correct"]
                print(f"{workload} {label} seed {seed}: "
                      + "  ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
                      flush=True)
        traced: dict[str, list[dict]] = {label: [] for label, _ in sides}
        for i in range(TRACED_RUNS):
            for place, (label, root) in enumerate(sides if i % 2 == 0 else sides[::-1]):
                res = _bench(root, workload, 1, args.seconds, 1)
                traced[label].append({**res, "place": place})
                correct &= res["correct"]
        for label, root in sides:
            base = {"side": label, "commit": _commit(root), "workload": workload, **host}
            runs = timed[label]
            for name, m in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                rows.append({**base, "kind": "end_to_end", "metric": name, "unit": m["unit"],
                             **_spread(values),
                             "runs": [{"seed": r["seed"], "place": r["place"], "value": v}
                                      for r, v in zip(runs, values)]})
            rows.append({**base, "kind": "outcome", "failed": sum(r["failed"] for r in runs),
                         "attempted": sum(r["attempted"] for r in runs), "n": len(runs)})
            runs = traced[label]
            for name, m in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                row = {**base, "kind": "per_layer", "metric": name, "unit": m["unit"]}
                if m["unit"] == "count":
                    if len(set(values)) > 1:
                        print(f"error: {workload} {label} {name} differs between traced runs:"
                              f" {values}", file=sys.stderr)
                        counts_agree = False
                    rows.append({**row, "value": values[0], "n": len(values)})
                else:
                    rows.append({**row, **_spread(values),
                                 "runs": [{"place": r["place"], "value": v}
                                          for r, v in zip(runs, values)]})

    record = {"runs": args.runs, "traced_runs": TRACED_RUNS, "seconds": args.seconds,
              "seeds": [1, args.runs], **host, "correct": correct,
              "counts_agree": counts_agree, "rows": rows}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{len(rows)} rows written to {args.out}; every run correct: {correct};"
          f" counts agree between traced runs: {counts_agree}")
    if len(sides) == 2:
        print("\n".join(_comparison(rows, sides[0][0], sides[1][0])))
    return 0 if correct and counts_agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
