#!/usr/bin/env python3
"""Runs every perfbench workload over a set of seeds and appends one
trajectory entry: git rev, date, nproc, and per workload the median and
quartiles of each end-to-end metric.

Run from the repository root:

    python3 perfbench/record.py                # seeds 1..10, 15 s runs
    python3 perfbench/record.py --seeds 11-20 --note "after pooled transport"
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default="reformulate,ingest,mixed")
    ap.add_argument("--note", default="")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    entry = {
        "rev": git_rev(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "nproc": os.cpu_count(),
        "machine": platform.processor() or platform.machine(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "note": args.note,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values, attempted, failed, correct = {}, 0, 0, True
        for seed in args.seeds:
            out = run_once(workload, seed, seconds)
            correct = correct and out["correct"]
            attempted += out["attempted"]
            failed += out["failed"]
            for name, m in out["metrics"].items():
                values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            print(f"{workload} seed {seed}: ok", file=sys.stderr, flush=True)
        entry["workloads"][workload] = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"unit": v["unit"], **summarize(v["values"]), "values": v["values"]}
                        for name, v in sorted(values.items())},
        }

    history = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as f:
            history = json.load(f)
    history.append(entry)
    with open(TRAJECTORY, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")
    for workload, w in entry["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:12s} {name:24s} median {m['median']:12.4f} {m['unit']:6s} spread {m['spread']:.3f}")


if __name__ == "__main__":
    main()
