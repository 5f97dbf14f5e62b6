#!/usr/bin/env python3
"""Steadiness check of the benchmark.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--workloads cg,stream]

Runs every workload --runs times through perfbench/run.py for the
run_seconds of BENCHMARK.json, each run with its own seed (SEED_BASE + i),
and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
bound in BENCHMARK.json. A spread below a third of the bound is "steady",
below the bound "within", above it "WIDE".

Then it reruns every workload once, traced, on HELDOUT_SEED, a seed not
used while the benchmark was tuned, and reports whether all of its points
pass the output checks and every per-layer metric is printed. Exits 1 if
any run fails or reports a failed point, any check fails or any spread
exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED_BASE = 1000       # seeds SEED_BASE .. SEED_BASE + runs - 1
HELDOUT_SEED = 424242  # not used while the benchmark was tuned


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(REPO / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {res.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for w in workloads:
        results = []
        for i in range(args.runs):
            r = run_once(w, SEED_BASE + i, seconds)
            results.append(r)
            print(f"{w} seed {SEED_BASE + i}: attempted {r['attempted']}"
                  f" failed {r['failed']} correct {r['correct']}", flush=True)
        failed = sum(r["failed"] for r in results)
        if failed or any(not r["correct"] for r in results):
            ok = False
        print(f"\n{w}: {failed} failed points over {len(results)} runs")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>8} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within"
            else:
                verdict = "WIDE"
                ok = False
            print(f"  {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}"
                  f" {spread:>8.4f} {bound:>6}  {verdict}")
        print(flush=True)

    # A traced run checks every point of its untraced and traced rounds
    # and must print every per-layer metric BENCHMARK.json names.
    layer_names = {m["name"] for m in bench["per_layer"]}
    print(f"held-out seed {HELDOUT_SEED} (traced runs):")
    for w in workloads:
        r = run_once(w, HELDOUT_SEED, seconds, trace=1)
        missing = sorted(layer_names - set(r["metrics"]))
        good = r["correct"] and r["failed"] == 0 and not missing
        ok = ok and good
        print(f"  {w:<10} attempted {r['attempted']} failed {r['failed']}"
              f" correct {r['correct']} missing metrics {missing}"
              f"  {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
