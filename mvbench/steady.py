#!/usr/bin/env python3
"""Repeat one benchmark workload and report how steady its metrics are.

Runs the command from BENCHMARK.json once per seed, then prints, for each
metric, its median, first and third quartiles (statistics.quantiles, n=4),
the spread (Q3 - Q1) / median, and the metric's bound. With --compare, it
also prints how far each median moved against a saved earlier set.

Run from the repository root:

    python3 mvbench/steady.py --workload fleet-million --runs 10 --save .bench_out/fm-a.json
    python3 mvbench/steady.py --workload fleet-million --runs 10 --first-seed 101 \
        --save .bench_out/fm-b.json --compare .bench_out/fm-a.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = [l for l in lines if l.startswith("host ")]
    result["host"] = json.loads(host[0][5:]) if host else {}
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save", help="write the raw results here")
    ap.add_argument("--compare", help="an earlier --save file of the same workload")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        r = run_once(bench, args.workload, seed, args.trace)
        results.append({"seed": seed, **r})
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              f"steal_ms={r['host'].get('steal_ms')}", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": results}, f, indent=1)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["runs"]
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload}: {len(results)} runs, seeds {results[0]['seed']}..{results[-1]['seed']}, "
          f"all correct: {all(r['correct'] for r in results)}, failed shares: {shares}")
    print(f"{'metric':<34} {'unit':>6} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}"
          + ("  median shift" if earlier else ""))
    for m in declared:
        name = m["name"]
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, spread = summarize(values)
        bound = m.get("bound")
        line = f"{name:<34} {m['unit']:>6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.2%}"
        line += f" {bound:>6.0%}" if bound is not None else f" {'-':>6}"
        if earlier:
            before = statistics.median(r["metrics"][name]["value"] for r in earlier)
            if before:
                worse = (med - before) / before if m.get("better") == "lower" else (before - med) / before
                line += f"  {worse:+.2%} worse"
        print(line)


if __name__ == "__main__":
    main()
