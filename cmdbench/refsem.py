"""Reference semantics for checking pglblab outputs.

Written from the instruction table in the repository README and imports
nothing from pglblab, so a fault in the interpreter or the analyzer cannot
hide itself here.  Instructions are tuples:

    ("plain"|"pos"|"neg", focus, method)    f.m  +f.m  -f.m
    ("fwd"|"bwd", n)                        #n  \\#n
    ("set", i, n)                           set:i:n
    ("ifwd"|"ibwd", i)                      i#i  i\\#i
    ("halt",)                               !

Positions are 1-based.  A jump of distance 0, a jump out of range, running
off the end and an indirect jump through a register still holding 0
deadlock.  Foci bound to Boolean cells answer set:T, set:F and get from the
cell contents; other foci are answered by the oracle, and a plain basic
instruction proceeds as if it had been answered T.  Internal-delay weights:
external basics and `!` weigh 0, direct jumps, register sets and auxiliary
basics 1, indirect jumps 2.
"""
from __future__ import annotations

import re

_BASIC = re.compile(r"([+-]?)([a-z][a-z0-9]*)\.([a-zA-Z][a-zA-Z0-9]*(?::[a-zA-Z0-9]+)*)")
_FORMS = (
    (re.compile(r"!"), lambda m: ("halt",)),
    (re.compile(r"set:(\d+):(\d+)"), lambda m: ("set", int(m[1]), int(m[2]))),
    (re.compile(r"i#(\d+)"), lambda m: ("ifwd", int(m[1]))),
    (re.compile(r"i\\#(\d+)"), lambda m: ("ibwd", int(m[1]))),
    (re.compile(r"#(\d+)"), lambda m: ("fwd", int(m[1]))),
    (re.compile(r"\\#(\d+)"), lambda m: ("bwd", int(m[1]))),
    (_BASIC, lambda m: ({"": "plain", "+": "pos", "-": "neg"}[m[1]], m[2], m[3])),
)
_AUTO_CELL = re.compile(r"bool[0-9]+")
BASIC_KINDS = ("plain", "pos", "neg")
REGISTER_KINDS = ("set", "ifwd", "ibwd")


class Mismatch(Exception):
    """An output of the program disagrees with the reference."""


def parse(text: str) -> list[tuple]:
    out = []
    for chunk in text.strip().split(";"):
        body = chunk.strip()
        for pattern, build in _FORMS:
            m = pattern.fullmatch(body)
            if m:
                out.append(build(m))
                break
        else:
            raise Mismatch(f"not an instruction: {body!r}")
    return out


def render(u: tuple) -> str:
    kind = u[0]
    if kind in BASIC_KINDS:
        return {"plain": "", "pos": "+", "neg": "-"}[kind] + f"{u[1]}.{u[2]}"
    return {
        "halt": lambda: "!",
        "fwd": lambda: f"#{u[1]}",
        "bwd": lambda: f"\\#{u[1]}",
        "set": lambda: f"set:{u[1]}:{u[2]}",
        "ifwd": lambda: f"i#{u[1]}",
        "ibwd": lambda: f"i\\#{u[1]}",
    }[kind]()


def render_program(prog: list[tuple]) -> str:
    return " ; ".join(render(u) for u in prog)


def register_free(prog: list[tuple]) -> bool:
    return all(u[0] not in REGISTER_KINDS for u in prog)


class Params:
    """The tool parameters a run or an analysis sees, read from `.cfg` text.

    `cells` None means the default binding: every focus named bool<digits>.
    """

    def __init__(self, cfg_text: str = ""):
        pairs = {}
        for line in cfg_text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                pairs[key.strip()] = value.strip()
        self.aux = set()
        for item in pairs.get("aux", "").split(","):
            if item.strip():
                focus, _, method = item.strip().partition(".")
                self.aux.add((focus, None if method == "*" else method))
        self.cells = None
        if "cells" in pairs:
            self.cells = {f.strip() for f in pairs["cells"].split(",") if f.strip()}
        self.maxn = int(pairs.get("maxn", 0)) or None

    def is_aux(self, focus: str, method: str) -> bool:
        return (focus, method) in self.aux or (focus, None) in self.aux

    def cell_foci(self, prog: list[tuple]) -> set[str]:
        if self.cells is not None:
            return set(self.cells)
        return {u[1] for u in prog if u[0] in BASIC_KINDS and _AUTO_CELL.fullmatch(u[1])}


def weight(u: tuple, params: Params) -> int:
    kind = u[0]
    if kind in BASIC_KINDS:
        return 1 if params.is_aux(u[1], u[2]) else 0
    if kind == "halt":
        return 0
    return 2 if kind in ("ifwd", "ibwd") else 1


def _target(u: tuple, pc: int, regs: dict, reply) -> int | None:
    """Next position after executing `u` at `pc`; None deadlocks."""
    kind = u[0]
    if kind in ("plain", "set"):
        return pc + 1
    if kind == "pos":
        return pc + 1 if reply else pc + 2
    if kind == "neg":
        return pc + 2 if reply else pc + 1
    if kind in ("fwd", "bwd"):
        dist = u[1]
    else:
        dist = regs.get(u[1], 0)
    if dist == 0:
        return None
    return pc + dist if kind in ("fwd", "ifwd") else pc - dist


def _cell(contents: bool, method: str) -> tuple[bool, bool] | None:
    """(new contents, reply) of a Boolean cell, None for an unknown method."""
    if method == "set:T":
        return True, True
    if method == "set:F":
        return False, False
    if method == "get":
        return contents, contents
    return None


class Run:
    """A `run` trace replayed against the reference semantics.

    `busy_steps` counts the steps up to and including the last observable
    event, so that an endless internal loop after it does not count.
    """

    def __init__(self, busy_steps: int, final: str, observables: tuple):
        self.busy_steps = busy_steps
        self.final = final
        self.observables = observables

    @property
    def complete(self) -> bool:
        return self.final in ("Terminated", "Deadlocked")


def check_trace(prog: list[tuple], text: str, params: Params, step_limit: int) -> Run:
    """Check that `text` is a legal execution of `prog` and return its events.

    Each printed position must be where control is, each printed
    instruction the one there, each Boolean-cell reply the cell's answer,
    and the final status what the last event leads to.  Oracle replies are
    free, but a plain external instruction must print reply=T.  Cells
    start out F, the default `cellInit`.
    """
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("status="):
        raise Mismatch("trace does not end in a status line")
    final = lines[-1][len("status="):]
    cell_foci = params.cell_foci(prog)
    cells = dict.fromkeys(cell_foci, False)
    regs: dict[int, int] = {}
    obs = []
    busy = 0
    pc = 1
    status = "Running"
    length = len(prog)
    events = lines[:-1]
    for n, line in enumerate(events, start=1):
        if status != "Running":
            raise Mismatch(f"event {n} after the run ended ({status})")
        pos_text, _, rest = line.partition(" ")
        instr_text, _, reply_text = rest.partition(" reply=")
        if int(pos_text) != pc:
            raise Mismatch(f"event {n}: at position {pos_text}, expected {pc}")
        u = prog[pc - 1]
        if instr_text != render(u):
            raise Mismatch(f"event {n}: printed {instr_text!r}, program has {render(u)!r}")
        reply = None
        if u[0] in BASIC_KINDS:
            if reply_text not in ("T", "F"):
                raise Mismatch(f"event {n}: basic instruction without a reply")
            reply = reply_text == "T"
            focus, method = u[1], u[2]
            if focus in cells:
                answer = _cell(cells[focus], method)
                if answer is None:
                    raise Mismatch(f"event {n}: cell {focus} has no method {method}")
                cells[focus], expected = answer
                if reply != expected:
                    raise Mismatch(f"event {n}: cell {focus}.{method} replied {reply_text}")
            elif u[0] == "plain" and not reply:
                raise Mismatch(f"event {n}: plain instruction replied F")
            if not params.is_aux(focus, method):
                obs.append((focus, method, reply))
                busy = n
        elif reply_text:
            raise Mismatch(f"event {n}: reply on a non-basic instruction")
        if u[0] == "halt":
            status = "Terminated"
            continue
        if u[0] == "set":
            regs[u[1]] = u[2]
        target = _target(u, pc, regs, reply)
        if target is None or not 1 <= target <= length:
            status = "Deadlocked"
        else:
            pc = target
    if status == "Running":
        if len(events) != step_limit:
            raise Mismatch(f"run stopped after {len(events)} steps, limit {step_limit}")
        status = "StepLimit"
    if final != status:
        raise Mismatch(f"printed status {final}, reference {status}")
    return Run(busy, final, tuple(obs))


def check_same_observables(source: Run, projected: Run, label: str) -> None:
    """Observable events agree; as a common prefix when either run was cut."""
    if source.complete and projected.complete:
        if source.observables != projected.observables or source.final != projected.final:
            raise Mismatch(f"{label}: observable behaviour differs from the source")
        return
    m = min(len(source.observables), len(projected.observables))
    if source.observables[:m] != projected.observables[:m]:
        raise Mismatch(f"{label}: observable prefix differs from the source")


def _successor_pcs(u: tuple, pc: int, maxn: int | None) -> set[int] | None:
    """Positions control may reach next; None when any position may follow."""
    kind = u[0]
    if kind in ("pos", "neg"):
        return {pc + 1, pc + 2}
    if kind in ("ifwd", "ibwd"):
        if maxn is None:
            return None
        sign = 1 if kind == "ifwd" else -1
        return {pc + sign * d for d in range(1, maxn + 1)}
    if kind == "halt":
        return set()
    return {_target(u, pc, {u[1]: 0} if kind == "set" else {}, True)}


def check_mid(prog: list[tuple], stdout: str, params: Params) -> int | None:
    """Check a `mid` report and return its MID (None when unbounded).

    The witness is `pc@weight ...`: each weight must be the reference
    weight of the instruction at pc, consecutive positions must be possible
    successors, and for a finite MID the ends weigh 0 and the interior
    weights sum to the printed value.
    """
    fields = dict(line.split(" = ", 1) for line in stdout.splitlines())
    if "MID" not in fields:
        raise Mismatch("mid printed no MID line")
    value = None if fields["MID"] == "unbounded" else int(fields["MID"])
    witness = []
    for item in fields.get("witness", "").split():
        pc_text, _, w_text = item.partition("@")
        pc, w = int(pc_text), int(w_text)
        if not 1 <= pc <= len(prog):
            raise Mismatch(f"witness position {pc} out of range")
        if weight(prog[pc - 1], params) != w:
            raise Mismatch(f"witness weight {w} at {pc}, reference {weight(prog[pc - 1], params)}")
        witness.append((pc, w))
    for (a, _), (b, _) in zip(witness, witness[1:]):
        allowed = _successor_pcs(prog[a - 1], a, params.maxn)
        if allowed is not None and b not in allowed:
            raise Mismatch(f"witness steps from {a} to {b}")
    if value is not None and len(witness) >= 2:
        if witness[0][1] or witness[-1][1]:
            raise Mismatch("witness does not start and end at zero-weight instructions")
        interior = sum(w for _, w in witness[1:-1])
        if interior != value:
            raise Mismatch(f"witness interior weighs {interior}, MID printed {value}")
    if value is None and "cycle" not in fields:
        raise Mismatch("unbounded MID without a cycle")
    return value


def explore(prog: list[tuple], params: Params, depth: int, budget: int,
            max_cut: int, max_steps: int) -> tuple[int, int, int, set] | None:
    """Walk the run tree with free oracle replies, up to `depth` replies per
    path and `budget` steps per path.

    Returns (paths, cut paths, total steps of the paths that end, kinds of
    the instructions in the last `window` steps of cut paths), or None as
    soon as more than `max_cut` paths hit the budget or the steps of paths
    that end exceed `max_steps`.
    """
    window = 256
    loop_kinds = set()
    cell_foci = params.cell_foci(prog)
    length = len(prog)
    paths = cut = steps_total = 0
    stack = [(1, (), tuple(sorted(dict.fromkeys(cell_foci, False).items())), 0, 0)]
    while stack:
        pc, regs_t, cells_t, replies, steps = stack.pop()
        regs = dict(regs_t)
        cells = dict(cells_t)
        branch = None
        while True:
            if steps >= budget:
                cut += 1
                if cut > max_cut:
                    return None
                break
            u = prog[pc - 1]
            steps += 1
            kind = u[0]
            if steps > budget - window:
                loop_kinds.add(kind)
            if kind == "halt":
                break
            reply = True
            if kind in BASIC_KINDS:
                if u[1] in cells:
                    answer = _cell(cells[u[1]], u[2])
                    if answer is None:
                        break
                    cells[u[1]], reply = answer
                elif kind != "plain":
                    if replies >= depth:
                        break
                    branch = (pc, u)
                    break
            if kind == "set":
                regs[u[1]] = u[2]
            target = _target(u, pc, regs, reply)
            if target is None or not 1 <= target <= length:
                break
            pc = target
        if branch is not None:
            bpc, u = branch
            for reply in (False, True):
                target = _target(u, bpc, regs, reply)
                if target is not None and 1 <= target <= length:
                    stack.append((target, tuple(regs.items()), tuple(cells.items()),
                                  replies + 1, steps))
                else:
                    paths += 1
            continue
        paths += 1
        if steps < budget:
            steps_total += steps
            if steps_total > max_steps:
                return None
    return paths, cut, steps_total, loop_kinds
