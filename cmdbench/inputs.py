"""Write one workload's inputs for inspection, as a run would set them up.

Usage (from the repository root):

    python3 cmdbench/inputs.py --workload corpus --seed 3 --out DIR

The inputs are derived from the seed at set-up time and never stored in
the repository; this regenerates them into DIR (which must not exist).  On
`trace`, set-up includes the projections, so DIR also holds their outputs.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    call = run.make_caller(run.import_pglblab())
    args.out.mkdir(parents=True)
    workload = run.WORKLOADS[args.workload](args.seed, 30)
    workload.prepare(args.out)
    workload.setup(args.out, call)
    print(f"wrote {len(list(args.out.iterdir()))} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
