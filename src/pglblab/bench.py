"""Scaling benchmark over the selection family.

One row per k: generate, measure MID, run both projections (the specialize
output then goes through `thread_jumps`), prove each output equivalent to
the member under the member's own cell binding, and record lengths,
delays, state-graph size, and per-phase wall time.  Each program is
analysed once: the member, the threaded specialize output and the dispatch
output.  Rows run one after another, so no row's timings include another's
work, and are deterministic apart from the wall-clock columns.
"""
from __future__ import annotations

import os
import sys
import time
from dataclasses import astuple, dataclass, replace

from .analyzer import build_state_graph, compute_mid, program_mid
from .family import gen_scaling_family
from .isa import InputError, StateLimitExceeded, ToolParams
from .projector import check_equivalence, dispatch_project, specialize, thread_jumps

# -1 in a mid column means unbounded (or not computed on a flagged row).
CSV_HEADER = (
    "k,lengthOriginal,midOriginal,lengthSpecialized,midSpecialized,"
    "lengthDispatch,midDispatch,stateNodes,genMillis,midMillis,"
    "specializeMillis,dispatchMillis,checkMillis,flag"
)
_CSV_COLUMNS = CSV_HEADER.split(",")
#: The CSV columns, then the two parts of specializeMillis, which only
#: `to_json` reports: emitting and threading the output, then the MID of
#: the threaded program.
_JSON_COLUMNS = _CSV_COLUMNS + ["specializeEmitMillis", "specializeAnalysisMillis"]


@dataclass(frozen=True)
class BenchRow:
    k: int
    length_original: int
    mid_original: int
    length_specialized: int
    mid_specialized: int
    length_dispatch: int
    mid_dispatch: int
    state_nodes: int
    gen_millis: float
    mid_millis: float
    specialize_millis: float
    dispatch_millis: float
    check_millis: float
    flag: int
    specialize_emit_millis: float = 0.0
    specialize_analysis_millis: float = 0.0

    def values(self) -> tuple:
        """The fields in _JSON_COLUMNS order, times rounded to 3 decimals."""
        return tuple(round(v, 3) if isinstance(v, float) else v for v in astuple(self))

    def csv_line(self) -> str:
        """The fields in CSV_HEADER order."""
        return ",".join(map(str, self.values()[: len(_CSV_COLUMNS)]))


def _mid_value(result) -> int:
    return -1 if result.value is None else result.value


def _bench_one(k: int, base: ToolParams) -> BenchRow:
    flag = 0

    t = time.perf_counter()
    p, params = gen_scaling_family(k)
    params = replace(params, aux=base.aux, state_limit=base.state_limit, cell_init=base.cell_init)
    gen_ms = (time.perf_counter() - t) * 1000.0
    if len(p) != 12 * 2**k + 4:
        flag = 1

    try:
        t = time.perf_counter()
        graph = build_state_graph(p, params)
        mid = compute_mid(graph, params.aux)
        mid_ms = (time.perf_counter() - t) * 1000.0
        state_nodes = graph.node_count
        if mid.value != 4:
            flag = 1

        t = time.perf_counter()
        spec = specialize(graph)
        # Keep only the output and its params: the graph and the relocation
        # map go before the output is threaded, and the plain output before
        # the threaded one's graph is built.
        output = spec.output
        spec_params = spec.output_params(params)
        del graph, spec
        threaded = thread_jumps(output)
        del output
        emit_ms = (time.perf_counter() - t) * 1000.0
        t = time.perf_counter()
        mid_spec = program_mid(threaded, spec_params)
        analysis_ms = (time.perf_counter() - t) * 1000.0

        t = time.perf_counter()
        disp = dispatch_project(p, params)
        mid_disp = program_mid(disp.output, disp.output_params(params))
        disp_ms = (time.perf_counter() - t) * 1000.0

        t = time.perf_counter()
        checks = ((threaded, spec_params), (disp.output, disp.output_params(params)))
        for output, check_params in checks:
            if not check_equivalence(p, output, check_params).equivalent:
                flag = 1
        check_ms = (time.perf_counter() - t) * 1000.0
    except StateLimitExceeded:
        return BenchRow(k, len(p), -1, -1, -1, -1, -1, -1, gen_ms, 0.0, 0.0, 0.0, 0.0, 1)

    return BenchRow(
        k=k,
        length_original=len(p),
        mid_original=_mid_value(mid),
        length_specialized=len(threaded),
        mid_specialized=_mid_value(mid_spec),
        length_dispatch=len(disp.output),
        mid_dispatch=_mid_value(mid_disp),
        state_nodes=state_nodes,
        gen_millis=gen_ms,
        mid_millis=mid_ms,
        specialize_millis=emit_ms + analysis_ms,
        dispatch_millis=disp_ms,
        check_millis=check_ms,
        flag=flag,
        specialize_emit_millis=emit_ms,
        specialize_analysis_millis=analysis_ms,
    )


def bench_family(kmax: int, params: ToolParams = ToolParams()) -> list[BenchRow]:
    """Rows for k=1..kmax (kmax ≤ 8: desk scale).

    `params` supplies aux/stateLimit/cellInit; maxr, maxn and the cell
    bindings always come from the family itself.  A row that passes
    stateLimit anywhere is flagged.  Rows are computed sequentially, in k
    order.
    """
    if not 1 <= kmax <= 8:
        raise InputError("kmax must be in 1..8")
    return [_bench_one(k, params) for k in range(1, kmax + 1)]


def to_csv(rows: list[BenchRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.csv_line() for row in rows]) + "\n"


def to_json(rows: list[BenchRow]) -> str:
    """One JSON object: Python version, CPU count, kmax, this process's
    peak RSS so far, and one object per row holding the CSV fields plus
    `specializeEmitMillis` and `specializeAnalysisMillis`."""
    # Only --json needs these; resource exists on Unix only.
    import json
    import resource

    # ru_maxrss counts KiB, except on macOS, where it counts bytes.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kib = peak // 1024 if sys.platform == "darwin" else peak
    report = {
        "python": ".".join(map(str, sys.version_info[:3])),
        "cpuCount": os.cpu_count(),
        "kmax": len(rows),
        "peakRssMiB": round(peak_kib / 1024, 1),
        "rows": [dict(zip(_JSON_COLUMNS, row.values())) for row in rows],
    }
    return json.dumps(report, indent=2) + "\n"


def to_markdown(rows: list[BenchRow]) -> str:
    lines = [
        "| " + " | ".join(_CSV_COLUMNS) + " |",
        "|" + "|".join(" --- " for _ in _CSV_COLUMNS) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row.csv_line().split(",")) + " |")
    return "\n".join(lines) + "\n"
