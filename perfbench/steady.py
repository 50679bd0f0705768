#!/usr/bin/env python3
"""Steadiness check for the klest benchmark.

Runs every workload repeatedly for BENCHMARK.json's ``run_seconds``,
alternating the workload order from one repetition to the next and giving
each run its own seed, and prints for every end-to-end metric and workload
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, against the metric's bound in BENCHMARK.json.
It exits 1 if any spread exceeds its bound, ``setup_s``'s included, or if
a run lacks one of the metrics. Run from the repository root:

    python3 perfbench/steady.py --runs 10 --first-seed 1 --record set-a.jsonl
    python3 perfbench/steady.py --report set-a.jsonl            # summarise a set
    python3 perfbench/steady.py --report set-a.jsonl set-b.jsonl  # compare two

A comparison also prints how far set B's median moved against set A's in
the worse direction, as a share of A's median, next to the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"


def spread(values):
    """(Q3 - Q1) / median, with the quartiles Python's statistics module gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(before, after, better):
    """How much worse `after`'s median is than `before`'s, as a share of
    `before`'s median (negative when it improved)."""
    a, b = statistics.median(before), statistics.median(after)
    return (b - a) / a if better == "lower" else (a - b) / a


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed)
    return result


def summarise(results, bench, against=None):
    """Prints one row per (workload, metric); returns False if any spread
    or median shift exceeds its bound, a run lacks a metric, or failure
    shares differ."""
    ok = True
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':<10} {'metric':<18} {'n':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>7} {'bound':>6} {'/bound':>7}" + (f" {'shift':>7}" if against else ""))
    for w in workloads:
        runs = [r for r in results if r["workload"] == w]
        if not runs:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        if len(shares) != 1 or not correct:
            ok = False
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < len(runs):
                print(f"{w:<10} {name:<18} missing from {len(runs) - len(values)} of {len(runs)} runs")
                ok = False
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med, s = statistics.median(values), spread(values)
            row = (f"{w:<10} {name:<18} {len(values):>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                   f"{s:>7.3f} {m['bound']:>6.2f} {s / m['bound']:>7.2f}")
            if s > m["bound"]:
                ok = False
            if against:
                before = [r["metrics"][name]["value"] for r in against if r["workload"] == w and name in r["metrics"]]
                if before:
                    shift = worsening(before, values, m["better"])
                    row += f" {shift:>7.3f}"
                    if shift > m["bound"]:
                        ok = False
            print(row)
        print(f"{w:<10} runs {len(runs)}, all correct: {correct}, failed shares: {sorted(shares)}")
    return ok


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", help="append each result to this JSON-lines file")
    parser.add_argument("--report", nargs="+", metavar="FILE",
                        help="summarise recorded results instead of running (two files: compare)")
    args = parser.parse_args()
    with open(BENCH) as f:
        bench = json.load(f)

    if args.report:
        sets = [load(p) for p in args.report]
        ok = summarise(sets[-1], bench, against=sets[0] if len(sets) > 1 else None)
        sys.exit(0 if ok else 1)

    workloads = [w["name"] for w in bench["workloads"]]
    results = []
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            r = run_once(w, args.first_seed + i, bench["run_seconds"])
            results.append(r)
            print(f"run {i + 1}/{args.runs} {w} seed {r['seed']}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
            if args.record:
                with open(args.record, "a") as f:
                    f.write(json.dumps(r) + "\n")
    sys.exit(0 if summarise(results, bench) else 1)


if __name__ == "__main__":
    main()
