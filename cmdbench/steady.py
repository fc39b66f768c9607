"""Steadiness check: run each workload repeatedly on the same code.

Usage (from the repository root):

    python3 cmdbench/steady.py [--workloads family,corpus,trace] [--runs 10]
        [--first-seed 1] [--seconds S]

Runs the command in BENCHMARK.json once per (seed, workload), each in a
fresh process, one at a time, cycling through the workloads so that a
drift of the machine spreads over all of them.  For every end-to-end
metric it prints the median, the quartiles (`statistics.quantiles(values,
n=4)`) and their distance as a share of the median; the bounds in
BENCHMARK.json are set to at least three times that share.  It also prints each run's failed share,
which must be the same in every run.  The figures are written to
`.cmdbench_out/steady.json` as well.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, env=os.environ.copy())
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            out = run_once(spec["command"], w, seed, args.seconds)
            results[w].append(out)
            print(f"{w} seed={seed} correct={out['correct']} attempted={out['attempted']} "
                  f"failed={out['failed']}", file=sys.stderr, flush=True)

    summary = {}
    for w, outs in results.items():
        shares = sorted({o["failed"] / o["attempted"] for o in outs})
        print(f"\n{w}: runs={len(outs)} all correct={all(o['correct'] for o in outs)} "
              f"failed shares={shares}")
        print(f"  {'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
        summary[w] = {"failed_shares": shares, "metrics": {}}
        for name in outs[0]["metrics"]:
            s = summarize([o["metrics"][name]["value"] for o in outs])
            summary[w]["metrics"][name] = s
            print(f"  {name:36s} {s['median']:14.4f} {s['q1']:14.4f} {s['q3']:14.4f} "
                  f"{s['spread']:8.4f}")
    out_dir = ROOT / ".cmdbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
