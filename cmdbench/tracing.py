"""Traced runs: spans around the public functions of each pglblab module.

`Tracer.install` wraps every public function defined in a pglblab module
and puts the wrapper into every pglblab module namespace that holds a
reference to the original, so calls made inside the package (such as
`specialize` calling `build_state_graph`) become child spans.  Functions
called once per interpreter step or per state are too frequent for one
span per call: their calls are counted and timed in aggregate, and their
time is charged to the enclosing span as covered by a child.

Spans are tuples (id, name, start, end, parent id, command id, thread),
kept in memory and written out by `dump` when the run ends.  A span's self
time is its duration minus the part of its interval covered by child spans
and aggregated calls.  The counts are recorded right after a span ends;
that work is charged to the enclosing span as covered too, so it inflates
no layer's self time.
"""
from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("isa", "vm", "analyzer", "projector", "family", "bench", "cli")

#: Called per step or per state: aggregated, not one span per call.
HOT = {"vm.step", "vm.cell_reply", "isa.basic_of", "isa.render_instruction",
       "analyzer.id_weight", "analyzer.node_successors"}

#: The functions the per-layer metrics are read from.
EXPECTED = ("isa.parse_program", "isa.validate", "isa.render_program", "vm.step",
            "vm.trace_text", "analyzer.build_state_graph", "analyzer.compute_mid",
            "projector.specialize", "projector.dispatch_project", "projector.thread_jumps",
            "projector.check_equivalence", "family.gen_scaling_family", "family.gen_random",
            "bench.bench_family", "cli.main")


class _Frame:
    __slots__ = ("sid", "start", "hot_covered")

    def __init__(self, sid, start):
        self.sid = sid
        self.start = start
        self.hot_covered = 0.0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS
                        if hasattr(package, name)}
        self.spans: list[tuple] = []
        self.hot_frames: dict[int, float] = {}
        self.hot_stats: list[dict] = []
        self.counts = defaultdict(float)
        self.command = None
        self.missing: list[str] = []
        self._patched: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.observer_errors: list[str] = []
        self._main_top = None
        self._main_thread = threading.get_ident()
        self._seen_builds: set = set()
        self._seen_mids: set = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        namespaces = [self.package, *self.modules.values()]
        originals = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    originals[obj] = f"{layer}.{name}"
        self.missing = [n for n in EXPECTED if n not in originals.values()]
        wrappers = {fn: (self._wrap_hot if qual in HOT else self._wrap)(fn, qual)
                    for fn, qual in originals.items()}
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, name, obj))
                    setattr(ns, name, wrappers[obj])

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._patched):
            setattr(ns, name, obj)
        self._patched.clear()

    def start_command(self, command) -> None:
        self.command = command
        self._seen_builds.clear()
        self._seen_mids.clear()

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.hot_depth = 0
            self._local.hot = defaultdict(lambda: [0, 0.0])
            self.hot_stats.append(self._local.hot)
        return stack

    def _wrap(self, fn, qual):
        tracer = self
        observe = getattr(self, "_after_" + qual.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1].sid
            elif threading.get_ident() != tracer._main_thread:
                parent = tracer._main_top
            else:
                parent = None
            frame = _Frame(sid, time.perf_counter())
            stack.append(frame)
            main = threading.get_ident() == tracer._main_thread
            if main:
                tracer._main_top = sid
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if main:
                    tracer._main_top = stack[-1].sid if stack else None
                tracer.spans.append((sid, qual, frame.start, end, parent, tracer.command,
                                     threading.get_ident()))
                tracer.hot_frames[sid] = frame.hot_covered
            if observe is not None:
                try:
                    observe(result, args)
                except Exception as e:  # a changed return type must not stop the command
                    tracer.observer_errors.append(f"{qual}: {e!r}")
                if stack:
                    stack[-1].hot_covered += time.perf_counter() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_hot(self, fn, qual):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            local = tracer._local
            local.hot_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                local.hot_depth -= 1
                stat = local.hot[qual]
                stat[0] += 1
                stat[1] += elapsed
                if local.hot_depth == 0 and stack:
                    stack[-1].hot_covered += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts recorded at the same boundaries ----------------------------

    def _after_analyzer_build_state_graph(self, graph, args):
        self.counts["analyzer.nodes"] += getattr(graph, "node_count", 0)
        self.counts["analyzer.edges"] += getattr(graph, "edge_count", 0)
        key = args[0] if args else None
        if key in self._seen_builds:
            self.counts["analyzer.redundant_builds"] += 1
        self._seen_builds.add(key)

    def _after_analyzer_compute_mid(self, result, args):
        program = getattr(args[0], "program", None) if args else None
        key = (program, args[1] if len(args) > 1 else None)
        if key in self._seen_mids:
            self.counts["analyzer.redundant_mids"] += 1
        self._seen_mids.add(key)

    def _after_projector_check_equivalence(self, verdict, args):
        self.counts["projector.check_runs"] += getattr(verdict, "checked", 0)
        self.counts["projector.check_inconclusive"] += getattr(verdict, "inconclusive", 0)

    def _after_isa_parse_program(self, program, args):
        self.counts["isa.parsed_instrs"] += len(program)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus what child spans and hot calls cover."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach, start), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = end - start - covered - self.hot_frames.get(sid, 0.0)
        return out

    def hot(self, qual: str) -> tuple[int, float]:
        calls = sum(stats[qual][0] for stats in self.hot_stats if qual in stats)
        seconds = sum(stats[qual][1] for stats in self.hot_stats if qual in stats)
        return calls, seconds

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        selfs = self.self_times()
        incl = defaultdict(float)
        self_by_name = defaultdict(float)
        calls = defaultdict(int)
        for sid, name, start, end, *_ in self.spans:
            incl[name] += end - start
            self_by_name[name] += selfs[sid]
            calls[name] += 1
        cli_self = sum(v for name, v in self_by_name.items() if name.startswith("cli."))
        steps, step_s = self.hot("vm.step")
        nodes = self.counts["analyzer.nodes"]
        build_s = incl["analyzer.build_state_graph"]
        runs = self.counts["projector.check_runs"]
        ms = 1000.0
        return {
            "analyzer.builds": (calls["analyzer.build_state_graph"], "count"),
            "analyzer.redundant_builds": (self.counts["analyzer.redundant_builds"], "count"),
            "analyzer.nodes": (nodes, "count"),
            "analyzer.edges": (self.counts["analyzer.edges"], "count"),
            "analyzer.build_ms": (build_s * ms, "ms"),
            "analyzer.nodes_per_s": (nodes / build_s if build_s else 0.0, "1/s"),
            "analyzer.mid_calls": (calls["analyzer.compute_mid"], "count"),
            "analyzer.redundant_mids": (self.counts["analyzer.redundant_mids"], "count"),
            "analyzer.mid_ms": (incl["analyzer.compute_mid"] * ms, "ms"),
            "projector.specialize_ms": (self_by_name["projector.specialize"] * ms, "ms"),
            "projector.dispatch_ms": (self_by_name["projector.dispatch_project"] * ms, "ms"),
            "projector.thread_ms": (incl["projector.thread_jumps"] * ms, "ms"),
            "projector.check_ms": (incl["projector.check_equivalence"] * ms, "ms"),
            "projector.check_self_ms": (self_by_name["projector.check_equivalence"] * ms, "ms"),
            "projector.check_runs": (runs, "count"),
            "projector.check_inconclusive": (self.counts["projector.check_inconclusive"], "count"),
            "projector.check_conclusive_share": (
                (runs - self.counts["projector.check_inconclusive"]) / runs if runs else 0.0,
                "share"),
            "vm.steps": (steps, "count"),
            "vm.step_ms": (step_s * ms, "ms"),
            "vm.steps_per_s": (steps / step_s if step_s else 0.0, "1/s"),
            "vm.trace_text_ms": (incl["vm.trace_text"] * ms, "ms"),
            "isa.parse_ms": (incl["isa.parse_program"] * ms, "ms"),
            "isa.parsed_instrs": (self.counts["isa.parsed_instrs"], "count"),
            "isa.validate_ms": (incl["isa.validate"] * ms, "ms"),
            "isa.render_ms": (incl["isa.render_program"] * ms, "ms"),
            "cli.commands": (calls["cli.main"], "count"),
            "cli.self_ms": (cli_self * ms, "ms"),
            "family.gen_ms": ((incl["family.gen_scaling_family"] + incl["family.gen_random"]) * ms,
                              "ms"),
            "bench.table_ms": (incl["bench.bench_family"] * ms, "ms"),
        }

    def dump(self, path) -> None:
        """Write the spans, the aggregated hot calls and missing names as JSON lines."""
        with open(path, "w") as f:
            f.write(json.dumps({"missing": self.missing,
                                "observer_errors": self.observer_errors}) + "\n")
            for qual in sorted(HOT):
                calls, seconds = self.hot(qual)
                f.write(json.dumps({"aggregate": qual, "calls": calls, "s": seconds}) + "\n")
            for sid, name, start, end, parent, command, thread in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "command": command,
                                    "thread": thread}) + "\n")
