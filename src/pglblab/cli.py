"""Command-line front end.

Subcommands: run, mid, project, gen, bench, check.  Program files are
plain text; "-" reads stdin.  Tool parameters resolve in increasing
precedence: PGLBLAB_CONFIG env config, a sidecar <program>.cfg next to the
input, an explicit --config file, then flags.  When maxr/maxn are not set
anywhere they are derived from the program (largest register index and
literal), so piped programs analyze without ceremony.

Exit codes: 0 success, 1 diagnostics/errors/counterexample, 2 usage.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from .analyzer import (
    build_state_graph,
    compute_mid,
    id_weight,
    program_mid,
)
from .bench import bench_family, to_csv, to_json, to_markdown
from .family import gen_scaling_family, gen_random
from .isa import (
    AuxSpec,
    InvalidProgram,
    ParseError,
    PglbError,
    Program,
    RegSet,
    ToolParams,
    WITH_REGISTER,
    parse_program,
    render_program,
)
from .projector import OracleSuite, check_equivalence, dispatch_project, specialize, thread_jumps
from .vm import (
    OracleExhausted,
    Scripted,
    Seeded,
    parse_oracle_script,
    run,
    trace_text,
)


class CLIError(PglbError):
    """A refusal of the command line itself: a config, file or oracle fault."""


def parse_config(text: str) -> dict[str, str]:
    """Line-based `key = value`; blank lines and '#' comments skipped."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CLIError(f"config line {lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "t", "1"):
        return True
    if low in ("false", "f", "0"):
        return False
    raise CLIError(f"expected a boolean, got {value!r}")


def _parse_cells(value: str) -> frozenset[str]:
    return frozenset(f.strip() for f in value.split(",") if f.strip())


#: config key -> (ToolParams field, dest of its flag, parser of a config
#: value or flag value).  Flags override config files.
_PARAMS = {
    "maxr": ("maxr", "maxr", int),
    "maxn": ("maxn", "maxn", int),
    "aux": ("aux", "aux", AuxSpec.parse),
    "cells": ("cell_foci", "cells", _parse_cells),
    "cellInit": ("cell_init", "cell_init", _parse_bool),
    "stepLimit": ("step_limit", "step_limit", int),
    "stateLimit": ("state_limit", "state_limit", int),
}


def _apply_config(pairs: dict[str, str], acc: dict) -> None:
    for key, value in pairs.items():
        if key not in _PARAMS:
            raise CLIError(f"unknown config key: {key}")
        try:
            acc[key] = _PARAMS[key][2](value)
        except ValueError as e:
            raise CLIError(f"config key {key}: {e}") from e


def _read(read: Callable[[], str], what: str) -> str:
    """`read()`, refused as a CLIError when the text cannot be read or decoded."""
    try:
        return read()
    except (OSError, UnicodeDecodeError) as e:
        raise CLIError(f"cannot read {what}: {e}") from e


def _open_untruncated(path, flags: int) -> int:
    """`os.open` for `open(..., "w")` without O_TRUNC: write access only."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_files(files: dict[str | Path, str]) -> None:
    """Write every file or none, refused as a CLIError, then print `wrote
    <path>` for each, the path as its key prints.

    Every destination is opened, without truncating it, before any is
    written: one that cannot be opened (a directory, a missing directory)
    refuses the whole set, leaving earlier files as they were and removing
    the ones this call created.  Files are rewritten in place from offset
    0 and cut at the end of the new text, not truncated first nor replaced
    by renamed temporaries, because freeing or making a file costs far
    more than a rewrite on some file systems (README, "Errors and exit
    codes").
    """
    opened = []
    created = []
    try:
        for path in files:
            existed = os.path.lexists(path)
            opened.append(open(path, "w", opener=_open_untruncated))
            if not existed:
                created.append(path)
        for (path, text), f in zip(files.items(), opened):
            f.write(text)
            f.truncate()
            f.close()
    except OSError as e:
        for f in opened:
            with contextlib.suppress(OSError):
                f.close()
        if len(opened) < len(files):  # refused before anything was written
            for new in created:
                with contextlib.suppress(OSError):
                    os.remove(new)
        raise CLIError(f"cannot write {path}: {e.strerror or e}") from e
    for path in files:
        print(f"wrote {path}")


def _load_config(path) -> dict[str, str]:
    return parse_config(_read(Path(path).read_text, f"config {path}"))


def derive_bounds(programs) -> tuple[int, int]:
    """The largest register index and register literal in `programs`, 1 where none."""
    used = [u for p in programs for u in p.instructions if type(u) in WITH_REGISTER]
    return (
        max((u.register for u in used), default=1),
        max((u.value for u in used if type(u) is RegSet), default=1),
    )


def resolve_params(args, programs=(), sidecars=()) -> ToolParams:
    acc: dict = {}
    env = os.environ.get("PGLBLAB_CONFIG")
    if env:
        _apply_config(_load_config(env), acc)
    for sidecar in sidecars:
        if sidecar is not None and sidecar.exists():
            _apply_config(_load_config(sidecar), acc)
    if getattr(args, "config", None):
        _apply_config(_load_config(args.config), acc)
    for key, (_, dest, parse) in _PARAMS.items():
        value = getattr(args, dest, None)
        if value is not None:
            acc[key] = parse(value)
    if ("maxr" not in acc or "maxn" not in acc) and programs:
        derived_r, derived_n = derive_bounds(programs)
        acc.setdefault("maxr", derived_r)
        acc.setdefault("maxn", derived_n)
    try:
        return ToolParams(**{_PARAMS[key][0]: value for key, value in acc.items()})
    except ValueError as e:
        raise CLIError(str(e)) from e


def read_program(path: str) -> tuple[Program, str, Path | None]:
    """-> (program, display name, sidecar config path or None); a parse error names the input."""
    stdin = path == "-"
    name = "<stdin>" if stdin else path
    try:
        p = parse_program(_read(sys.stdin.read if stdin else Path(path).read_text, name))
    except ParseError as e:
        raise CLIError(f"{name}:{e}") from None
    return p, name, None if stdin else Path(path).with_suffix(".cfg")


def _load(args, *paths: str) -> tuple[list[Program], ToolParams]:
    """Read each program, name it for the diagnostics `main` prints, and
    resolve the params over them and their sidecars."""
    loaded = [read_program(path) for path in paths]
    programs = [p for p, _, _ in loaded]
    args.names = {id(p): name for p, name, _ in loaded}
    return programs, resolve_params(args, programs, [sidecar for _, _, sidecar in loaded])


def _make_oracle(spec: str | None):
    if spec is None:
        return Scripted(())
    if re.fullmatch(r"-?\d+", spec):
        try:
            return Seeded(int(spec))
        except ValueError as e:  # more digits than int() converts
            raise CLIError(f"bad oracle seed: {e}") from e
    return parse_oracle_script(_read(Path(spec).read_text, f"oracle script {spec}"))


def _cmd_run(args) -> int:
    (p,), params = _load(args, args.file)
    if args.steps is not None:
        params = replace(params, step_limit=args.steps)
    try:
        trace = run(p, params, _make_oracle(args.oracle))
    except OracleExhausted:
        raise CLIError("oracle exhausted during the run; supply --oracle") from None
    sys.stdout.write(trace_text(trace))
    return 0


def _cmd_mid(args) -> int:
    (p,), params = _load(args, args.file)
    graph = build_state_graph(p, params)
    result = compute_mid(graph, params.aux)
    print(f"MID = {result.text}")
    if result.witness:
        rendered = " ".join(
            f"{node.pc}@{id_weight(p.instructions[node.pc - 1], params.aux)}"
            for node in result.witness
        )
        print(f"witness = {rendered}")
    if result.cycle:
        print(f"cycle = {' '.join(str(node.pc) for node in result.cycle)}")
    print(f"nodes = {graph.node_count}")
    print(f"edges = {graph.edge_count}")
    return 0


def _params_config_text(params: ToolParams, cells: frozenset[str] | None) -> str:
    lines = [f"maxr = {params.maxr}", f"maxn = {params.maxn}", f"aux = {params.aux.render()}"]
    if cells is not None:
        lines.append(f"cells = {','.join(sorted(cells))}")
    return "\n".join(lines) + "\n"


def _cmd_project(args) -> int:
    (p,), params = _load(args, args.file)
    if args.mode == "specialize":
        graph = build_state_graph(p, params)
        report = specialize(graph)
        mid_before = compute_mid(graph, params.aux)
        del graph  # free it before the output graphs are built
    else:
        # Projecting first keeps dispatch's output-length refusal ahead of
        # any state-graph error on the source.
        report = dispatch_project(p, params)
        mid_before = program_mid(p, params)
    map_csv = report.relocation.to_csv()
    # Release the map (per block a start, a length and, for specialize, a
    # state code) before the output graphs are built.
    report = replace(report, relocation=None)
    out_params = report.output_params(params)
    output = report.output
    # Same program, same aux marks, same MID: dispatch returns a program
    # without registers or out-of-range jumps as it is, and threading
    # leaves a program without jump chains as it is.
    if output == report.source and not report.aux_introduced:
        mid_after = mid_before
    else:
        mid_after = program_mid(output, out_params)
    summary = report.summary(mid_before, mid_after)
    if args.thread:
        output = thread_jumps(output)
        mid_threaded = mid_after if output == report.output else program_mid(output, out_params)
        summary += f"threaded=1\nmidAfterThreaded={mid_threaded.text}\n"

    stem = "program" if args.file == "-" else Path(args.file).stem
    out_dir = Path(args.out_dir) if args.out_dir else (
        Path(".") if args.file == "-" else Path(args.file).parent
    )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CLIError(f"cannot create directory {out_dir}: {e}") from e
    prefix = f"{stem}.{args.mode}"
    _write_files({
        out_dir / f"{prefix}.pglb": render_program(output) + "\n",
        out_dir / f"{prefix}.map.csv": map_csv,
        out_dir / f"{prefix}.report.txt": summary,
        out_dir / f"{prefix}.cfg": _params_config_text(out_params, out_params.cell_foci),
    })
    return 0


def _write_program(out: str | None, p: Program, params: ToolParams) -> None:
    text = render_program(p) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    path = Path(out)
    sidecar = path.with_suffix(".cfg")
    if sidecar == path:
        # The sidecar would overwrite the program it describes.
        raise CLIError(f"cannot write {path}: it is the path of its own .cfg sidecar")
    _write_files({path: text, sidecar: _params_config_text(params, None)})


def _cmd_gen(args) -> int:
    if args.what == "family":
        _write_program(args.out, *gen_scaling_family(args.k))
    else:
        params = ToolParams(maxr=args.maxr, maxn=args.maxn)
        p = gen_random(args.seed, args.len, params)
        _write_program(args.out, p, params)
    return 0


def _cmd_bench(args) -> int:
    params = resolve_params(args)
    mirror = Path(args.out).with_suffix(".md") if args.out and args.md else None
    if mirror is not None and mirror == Path(args.out):
        # The mirror would overwrite the CSV it mirrors.
        raise CLIError(f"cannot write {args.out}: it is the path of its own --md mirror")
    rows = bench_family(args.kmax, params)
    text = to_json(rows) if args.json else to_csv(rows)
    if args.out:
        # The CSV's path prints as given, the mirror's as a Path.
        files = {args.out: text}
        if mirror is not None:
            files[mirror] = to_markdown(rows)
        _write_files(files)
    else:
        sys.stdout.write(to_markdown(rows) if args.md else text)
    return 1 if any(row.flag for row in rows) else 0


def _cmd_check(args) -> int:
    if args.p == args.q == "-":
        raise CLIError("check reads stdin once: give at most one program as -")
    (p, q), params = _load(args, args.p, args.q)
    suite = OracleSuite(exhaustive_depth=args.depth)
    verdict = check_equivalence(p, q, params, suite)
    if verdict.equivalent:
        print(f"equivalent (checked={verdict.checked}, inconclusive={verdict.inconclusive})")
        return 0
    cex = verdict.counterexample
    print(f"counterexample oracle={cex.oracle}")
    for label, events, final in (("p", cex.p_events, cex.p_final), ("q", cex.q_events, cex.q_final)):
        rendered = " ".join(f"{e.focus}.{e.method}={'T' if e.reply else 'F'}" for e in events)
        status = "cut" if final is None else final.value
        print(f"{label}: {rendered} status={status}")
    print(f"checked={verdict.checked} inconclusive={verdict.inconclusive}")
    return 1


#: `check` enumerates every reply prefix up to --depth branches, so its
#: time grows exponentially with the depth.
MAX_CHECK_DEPTH = 16


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pglblab",
        description="Interpreter, delay analyzer, and projections for the instruction notation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(sp):
        sp.add_argument("--aux", help="aux patterns, comma separated (f.m or f.*)")
        sp.add_argument("--cell-init", choices=("true", "false"), help="initial cell contents")
        sp.add_argument("--step-limit", type=int)
        sp.add_argument("--state-limit", type=int)
        sp.add_argument("--config", help="config file (overrides PGLBLAB_CONFIG)")

    def add_param_flags(sp):
        sp.add_argument("--maxr", type=int, help="largest register index")
        sp.add_argument("--maxn", type=int, help="largest register literal")
        sp.add_argument("--cells", help="cell-bound foci, comma separated ('' = none)")
        add_run_flags(sp)

    sp = sub.add_parser("run", help="execute a program and print its trace")
    sp.add_argument("file")
    sp.add_argument("--oracle", help="reply script file or integer seed")
    sp.add_argument("--steps", type=int, help="step limit for this run")
    add_param_flags(sp)
    sp.set_defaults(handler=_cmd_run)

    sp = sub.add_parser("mid", help="compute the maximal internal delay")
    sp.add_argument("file")
    add_param_flags(sp)
    sp.set_defaults(handler=_cmd_mid)

    sp = sub.add_parser("project", help="project onto the register-free fragment")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=("specialize", "dispatch"), required=True)
    sp.add_argument("--thread", action="store_true", help="thread jump chains in the output")
    sp.add_argument("--out-dir", help="directory for output files")
    add_param_flags(sp)
    sp.set_defaults(handler=_cmd_project)

    sp = sub.add_parser("gen", help="generate programs")
    gen_sub = sp.add_subparsers(dest="what", required=True)
    fam = gen_sub.add_parser("family", help="the k-th scaling-family member")
    fam.add_argument("--k", type=int, required=True)
    fam.add_argument("--out", help="output file (default stdout)")
    fam.set_defaults(handler=_cmd_gen)
    rnd = gen_sub.add_parser("random", help="seeded random programs")
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--len", type=int, required=True)
    rnd.add_argument("--maxr", type=int, default=2)
    rnd.add_argument("--maxn", type=int, default=3)
    rnd.add_argument("--out", help="output file (default stdout)")
    rnd.set_defaults(handler=_cmd_gen)

    sp = sub.add_parser(
        "bench", help="scaling benchmark over the family",
        description="Scaling benchmark over the family members k=1..kmax.  Each member "
        "fixes its own maxr, maxn and cell bindings, so config-file maxr, maxn and "
        "cells are ignored here.",
    )
    sp.add_argument("--kmax", type=int, required=True)
    sp.add_argument("--out", help="output file (default stdout)")
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--md", action="store_true", help="markdown table mirror")
    fmt.add_argument(
        "--json", action="store_true",
        help="one JSON object with the environment, peak RSS and the rows, in place of the CSV",
    )
    add_run_flags(sp)
    sp.set_defaults(handler=_cmd_bench)

    sp = sub.add_parser("check", help="observable-equivalence check of two programs")
    sp.add_argument("p")
    sp.add_argument("q")
    sp.add_argument(
        "--depth", type=int, default=10, choices=range(MAX_CHECK_DEPTH + 1),
        metavar=f"0..{MAX_CHECK_DEPTH}", help="exhaustive oracle branch depth",
    )
    add_param_flags(sp)
    sp.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PglbError as e:
        message = str(e)
        if isinstance(e, InvalidProgram):
            # One line per diagnostic, named after the input that has it.
            for d in e.diagnostics:
                print(f"{args.names[id(e.program)]}: {d}", file=sys.stderr)
            message = f"{len(e.diagnostics)} diagnostic(s)"
        print(f"pglblab: {message}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
