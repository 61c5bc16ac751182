#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, against the bounds.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads train,explain]

Runs perfbench/run.py (--trace 0, run_seconds from BENCHMARK.json) once per
seed and workload: set k uses seeds first_seed + k * runs ... + runs - 1.
For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (q3 - q1) / median, and how far the second set's
median moved from the first in the worse direction, next to the metric's
bound. A bound holds when every spread but setup_s's and every move stays
within it; the target for a steady benchmark is a spread below bound / 3.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default: every workload in BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {(w, m, s): [] for w in names for m in metrics for s in range(args.sets)}
    bad_runs = []
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in names:
                cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                wall = time.perf_counter() - t0
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                if result is None or not result["correct"] or result["failed"]:
                    bad_runs.append((w, seed, proc.returncode, proc.stderr[-2000:]))
                    print(f"set {s} seed {seed} {w}: BAD RUN (exit {proc.returncode})", flush=True)
                    continue
                for m in metrics:
                    values[(w, m, s)].append(result["metrics"][m]["value"])
                shown = ", ".join(f"{m} {result['metrics'][m]['value']:.4g}" for m in metrics)
                print(f"set {s} seed {seed} {w}: {wall:.1f} s wall; {shown}", flush=True)

    print()
    print(f"{'workload':10} {'metric':12} " + " ".join(
        f"{'set' + str(s) + ' q1/median/q3':>30} {'spread':>7}" for s in range(args.sets)
    ) + f" {'moved':>7} {'bound':>6}  verdict")
    report = []
    ok = not bad_runs
    for w in names:
        for m, meta in metrics.items():
            row = {"workload": w, "metric": m, "bound": meta["bound"], "sets": []}
            cells = []
            for s in range(args.sets):
                vals = values[(w, m, s)]
                if len(vals) < 2:
                    cells.append(f"{'too few runs':>30} {'':>7}")
                    row["sets"].append(None)
                    continue
                q1, med, q3, sp = spread(vals)
                row["sets"].append({"values": vals, "q1": q1, "median": med, "q3": q3, "spread": sp})
                cells.append(f"{q1:>9.4g}/{med:>9.4g}/{q3:>9.4g} {sp:>7.3f}")
            sets = [x for x in row["sets"] if x]
            moved = 0.0
            if len(sets) >= 2:
                sign = 1.0 if meta["better"] == "lower" else -1.0
                moved = sign * (sets[-1]["median"] - sets[0]["median"]) / sets[0]["median"]
            row["moved"] = moved
            spreads_ok = m == "setup_s" or all(x["spread"] <= meta["bound"] for x in sets)
            steady = all(x["spread"] <= meta["bound"] / 3 for x in sets)
            verdict = ("ok" if spreads_ok and moved <= meta["bound"] else "FAILS BOUND") + (
                "" if steady else ", spread above bound/3")
            ok = ok and spreads_ok and moved <= meta["bound"]
            row["verdict"] = verdict
            report.append(row)
            print(f"{w:10} {m:12} {' '.join(cells)} {moved:>+7.3f} {meta['bound']:>6.2f}  {verdict}")
    for w, seed, code, err in bad_runs:
        print(f"bad run: {w} seed {seed} exit {code}\n{err}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"runs": args.runs, "sets": args.sets, "rows": report}, indent=1))
    print(f"{'all bounds hold' if ok else 'SOME BOUNDS FAIL'}; details in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
