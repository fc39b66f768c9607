"""Command-level benchmark of pglblab.

Usage (from the repository root):

    python3 cmdbench/run.py --workload family|corpus|trace --seed N \\
        --seconds S --trace 0|1

Every operation is one pglblab command, called in this process through
`pglblab.cli.main(argv)` with its stdout and stderr captured.  Load is a
closed loop: one caller, one thread, each command issued after the last
one returned.  A run prepares the workload once, untimed, then sets up
several times, each time importing the pglblab package afresh and
building the inputs (the median is `setup_s`),
issues one untimed warm-up command of each kind, then repeats whole rounds
of the workload's commands until `--seconds` have passed.
Outputs are checked against the reference semantics in `refsem.py` and the
workload's own properties.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics of a traced set-up and
round with `--trace 1` (spans are written to `.cmdbench_out/`).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".cmdbench_out"

sys.path.insert(0, str(HERE))

from refsem import Mismatch  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Result(NamedTuple):
    rc: int | None
    out: str
    err: str
    exc: Exception | None
    seconds: float


def import_pglblab(fresh: bool = False):
    """Import pglblab from this checkout's src/, never from elsewhere.

    With `fresh`, the package's modules are dropped first, so their code
    runs again; the standard-library modules they import stay loaded.
    """
    src = ROOT / "src"
    if not (src / "pglblab" / "__init__.py").is_file():
        raise SystemExit(f"cmdbench: no pglblab sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for name in [n for n in sys.modules if n == "pglblab" or n.startswith("pglblab.")]:
            del sys.modules[name]
    pglblab = importlib.import_module("pglblab")
    importlib.import_module("pglblab.cli")
    if Path(pglblab.__file__).resolve().parent != (src / "pglblab").resolve():
        raise SystemExit(f"cmdbench: imported pglblab from {pglblab.__file__}, not {src}")
    return pglblab


def make_caller(pglblab):
    cli = pglblab.cli

    def call(argv: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        rc = exc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code
        except Exception as e:  # a traceback escaping the CLI: the command failed
            exc = e
        seconds = time.perf_counter() - start
        return Result(rc, out.getvalue(), err.getvalue(), exc, seconds)

    return call


def warm_up(call, work: Path) -> None:
    """One untimed command of each kind, so lazy set-up is not timed."""
    p = work / "w1.pglb"
    for argv in (["gen", "family", "--k", "1", "--out", p], ["mid", p],
                 ["project", p, "--mode", "specialize", "--thread", "--out-dir", work],
                 ["project", p, "--mode", "dispatch", "--out-dir", work],
                 ["run", p, "--oracle", "1"], ["check", p, work / "w1.dispatch.pglb"],
                 ["bench", "--kmax", "1"]):
        call([str(a) for a in argv])


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []
        self.failures: dict[str, int] = {}

    def fail(self, op, what: str) -> None:
        self.mismatches.append(f"{' '.join(op.argv)}: {what}")

    def failure(self, op, exc: Exception) -> None:
        self.failed += 1
        key = f"{op.argv[0]} {Path(op.argv[1]).name}: {type(exc).__name__}: {exc}"
        self.failures[key] = self.failures.get(key, 0) + 1


def run_round(call, ops, first: bool, tally: Tally, tracer=None) -> list[float]:
    """Issue every command once; returns the command latencies in seconds."""
    latencies = []
    for n, op in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.start_command(n)
        result = call(op.argv)
        latencies.append(result.seconds)
        tally.attempted += 1
        if result.exc is not None:
            tally.failure(op, result.exc)
            continue
        try:
            if first or op.every_round:
                op.check(result)
                op.digest = op.fingerprint(result)
            elif op.fingerprint(result) != op.digest:
                raise Mismatch("output differs from the first round")
        except (Mismatch, OSError, KeyError, ValueError, IndexError) as e:
            tally.fail(op, repr(e))
    return latencies


def checked_round(call, workload, ops, tally, tracer=None) -> list[float]:
    latencies = run_round(call, ops, True, tally, tracer)
    try:
        workload.finish_round()
    except (Mismatch, OSError, KeyError, ValueError, IndexError) as e:
        tally.mismatches.append(f"{workload.name} round checks: {e!r}")
    return latencies


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def setup_once(workload, work: Path, n, call=None):
    """Import pglblab afresh (unless `call` is given) and build the inputs,
    timed; then check the inputs, untimed.

    Returns (seconds, pglblab module, caller).
    """
    target = work / f"setup{n}"
    target.mkdir(parents=True)
    gc.collect()
    start = time.perf_counter()
    pglblab = None
    if call is None:
        pglblab = import_pglblab(fresh=True)
        call = make_caller(pglblab)
    workload.setup(target, call)
    elapsed = time.perf_counter() - start
    workload.check_setup()
    return elapsed, pglblab, call


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("PGLBLAB_CONFIG", None)

    import_pglblab()
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.prepare(work / "inputs")
    setups: list[float] = []
    for n in range(workload.setups):
        elapsed, pglblab, call = setup_once(workload, work, n)
        setups.append(elapsed)
    (work / "warm").mkdir()
    warm_up(call, work / "warm")
    ops = workload.round()
    gc.collect()
    gc.freeze()

    tally = Tally()
    latencies: list[float] = []
    round_walls: list[float] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    began = time.perf_counter()
    while not round_walls or time.perf_counter() - began < budget:
        if round_walls:
            lat = run_round(call, ops, False, tally)
        else:
            lat = checked_round(call, workload, ops, tally)
        latencies += lat
        round_walls.append(sum(lat))

    if args.trace:
        metrics = traced(args, pglblab, call, workload, work, tally,
                         statistics.median(setups) + statistics.median(round_walls))
    else:
        sizes = workload.sizes.metrics()
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(round_walls), "s"),
            "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "op_tail_ms": (percentile(latencies, workload.tail_percentile) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            **sizes,
        }
    for line in tally.mismatches[:20]:
        print(f"cmdbench: MISMATCH {line}", file=sys.stderr)
    for line, count in tally.failures.items():
        print(f"cmdbench: FAILED x{count} {line}", file=sys.stderr)
    print(f"cmdbench: {args.workload} seed={args.seed} rounds={len(round_walls)} "
          f"commands/round={len(ops)} tail=p{workload.tail_percentile} "
          f"setups={[round(s, 4) for s in setups]} "
          f"round_walls={[round(s, 3) for s in round_walls]}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced(args, pglblab, call, workload, work: Path, tally: Tally, untraced_s: float):
    """One set-up and one round with every public pglblab function wrapped."""
    from tracing import Tracer

    tracer = Tracer(pglblab)
    setup_commands = iter(range(1_000_000))

    def setup_call(argv):
        tracer.start_command(f"setup{next(setup_commands)}")
        return call(argv)

    tracer.install()
    try:
        setup_s, _, _ = setup_once(workload, work, "traced", setup_call)
        ops = workload.round()
        gc.collect()
        round_s = sum(checked_round(call, workload, ops, tally, tracer))
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        print(f"cmdbench: public function {name} is missing; its metrics read 0",
              file=sys.stderr)
    for line in tracer.observer_errors[:5]:
        print(f"cmdbench: count not recorded: {line}", file=sys.stderr)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (setup_s + round_s - untraced_s, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
