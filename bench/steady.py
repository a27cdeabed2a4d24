"""Steadiness check: one workload as two alternating sets of benchmark runs.

    python3 bench/steady.py --workload verify_sweep --runs 10

Runs ``bench/run.py`` 2 x ``--runs`` times, alternating set A (even seeds
from ``--seed``) and set B (odd seeds), each a fresh process.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(Q3 - Q1) / median, and the bound from BENCHMARK.json; a spread above the
bound, or a set-B median worse than set A's by more than the bound, is
marked.  The share of failed operations must be the same in every run.
Raw results, with each run's uncalibrated wall-clock best-of-passes
jobs/s for comparison, are appended to bench/out/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = re.search(r"wall-clock best-of-passes: ([0-9.e+-]+) jobs/s", proc.stdout)
    result["wall_best_jobs_per_s"] = float(wall.group(1)) if wall else None
    return result


def _summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    with open(out / f"steady-{args.workload}.jsonl", "a", encoding="utf-8") as log:
        for i in range(2 * args.runs):
            name = "AB"[i % 2]
            seed = args.seed + i
            res = _run(args.workload, seed, args.seconds)
            sets[name].append(res)
            log.write(json.dumps({"set": name, "seed": seed, **res}) + "\n")
            log.flush()
            shown = "  ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
            print(f"{name} seed {seed}: correct={res['correct']} failed {res['failed']}/"
                  f"{res['attempted']}  {shown}  (wall-clock best-of-passes"
                  f" {res['wall_best_jobs_per_s']} jobs/s)", flush=True)

    ok = True
    shares = {r["failed"] / r["attempted"] for s in sets.values() for r in s}
    print(f"\nfailed share per run: {sorted(shares)}")
    if len(shares) != 1 or not all(r["correct"] for s in sets.values() for r in s):
        ok = False
    header = f"{'metric':14s} {'bound':>6s}  " + "  ".join(
        f"{n}: {'Q1':>10s} {'median':>10s} {'Q3':>10s} {'spread':>7s}" for n in sets)
    print(header + "  B vs A")
    for m in spec["end_to_end"]:
        row = [f"{m['name']:14s} {m['bound']:6.3f}"]
        meds = {}
        for name, runs in sets.items():
            q1, med, q3 = _summary([r["metrics"][m["name"]]["value"] for r in runs])
            spread = (q3 - q1) / med
            meds[name] = med
            flag = "!" if spread > m["bound"] and m["name"] != "setup_s" else " "
            ok &= flag == " "
            row.append(f"{q1:10.5g} {med:10.5g} {q3:10.5g} {spread:6.1%}{flag}")
        change = meds["B"] / meds["A"] - 1.0
        worse = change if m["better"] == "lower" else -change
        flag = "!" if worse > m["bound"] else " "
        ok &= flag == " "
        print("  ".join(row) + f"  {change:+6.1%}{flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
