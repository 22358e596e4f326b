#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs one workload repeatedly, untraced, each run with its own seed,
exactly as BENCHMARK.json's command does, and prints for every
end-to-end metric its median, first and third quartile and relative
spread: (Q3 - Q1) / median, with Python's statistics.quantiles(values,
n=4). Beside each metric it prints the bound BENCHMARK.json sets and
whether the spread is within a third of it. Below setup_s, which is the
median of a run's set-ups, it prints the same figures for each set-up
on its own. With --against, it also prints how far each median moved
from an earlier record of the same workload.

    python3 perfbench/steady.py --workload hd_eval --runs 10
    python3 perfbench/steady.py --workload hd_eval --runs 10 \\
        --record perfbench/runs/hd_eval.json
    python3 perfbench/steady.py --workload hd_eval --runs 10 \\
        --against perfbench/runs/hd_eval.json
    python3 perfbench/steady.py --workload hd_eval --show perfbench/runs/hd_eval.json

--record writes every run and the summary to the given file. Each run
record holds the run's metrics, every set-up's duration and which
summary (whole run or windows) its latencies and throughput come from.
Run it from anywhere; it runs the benchmark from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def steal_ticks():
    """CPU time stolen from this VM by its host so far, in clock ticks
    (Linux /proc/stat); None where unavailable."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def report_line(lines, prefix):
    """The rest of the report line that starts with prefix."""
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise SystemExit(f"no '{prefix}' line in the report")


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    start, steal0 = time.monotonic(), steal_ticks()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall, steal1 = time.monotonic() - start, steal_ticks()
    steal = steal1 - steal0 if steal0 is not None and steal1 is not None else None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: incorrect run: {lines[-1]}")
    return {"seed": seed, "wall_s": round(wall, 3), "steal_ticks": steal,
            "summary": report_line(lines, "summary:"),
            "setups_s": [float(v) for v in report_line(lines, "setup_s of each set-up:").split()],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def summarize(runs):
    return {name: quartiles([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}


def setup_rows(runs):
    """Each set-up of a run on its own, as if a run set up only once."""
    return {f"  set-up {i + 1} only": quartiles([r["setups_s"][i] for r in runs])
            for i in range(len(runs[0]["setups_s"]))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--record", help="a file to write the runs and summary to")
    ap.add_argument("--against", help="an earlier record to compare medians with")
    ap.add_argument("--show", help="print the table of an earlier record instead of running")
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 to have quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs = []
    if args.show:
        with open(args.show) as f:
            runs = json.load(f)["runs"]
        args.runs, args.first_seed = len(runs), runs[0]["seed"]
    for i in range(0 if args.show else args.runs):
        seed = args.first_seed + i
        runs.append(run_once(bench, args.workload, seed))
        print(f"seed {seed}: {runs[-1]['wall_s']} s, host steal {runs[-1]['steal_ticks']} ticks",
              file=sys.stderr)
    summary = summarize(runs)
    before = None
    if args.against:
        with open(args.against) as f:
            before = json.load(f)["summary"]

    used = sorted({r["summary"] for r in runs})
    print(f"workload {args.workload}: {args.runs} runs, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{bench['run_seconds']} s each, host_parallelism {os.cpu_count()}, "
          f"summary: {', '.join(used)}")
    print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    rows = list(summary.items())
    at = [name for name, _ in rows].index("setup_s") + 1
    rows[at:at] = setup_rows(runs).items()
    for name, s in rows:
        line = (f"{name:<24}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
                f"{s['spread']:>9.4f}")
        if name in bounds:
            bound = bounds[name]["bound"]
            verdict = ("steady" if s["spread"] <= bound / 3
                       else "within bound" if s["spread"] <= bound else "TOO NOISY")
            if name == "setup_s":
                verdict += " (its spread is not gated, its median drift is)"
            line += f"{bound:>7.3f}  {verdict}"
            if before and name in before:
                lower = bounds[name]["better"] == "lower"
                old = before[name]["median"]
                worse = (s["median"] - old) / old if lower else (old - s["median"]) / old
                line += f"; median {'worse' if worse > 0 else 'better'} by {abs(worse):.4f}"
                line += " (over bound)" if worse > bound else ""
        print(line)

    if args.record:
        path = args.record
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "run_seconds": bench["run_seconds"],
                       "host_parallelism": os.cpu_count(),
                       "runs": runs, "summary": summary}, f, indent=1)
            f.write("\n")
        print(f"recorded {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
