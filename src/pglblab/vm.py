"""Single-pass execution of programs against Boolean cells and reply oracles.

Each executed basic instruction is a request to the environment: foci bound
to Boolean-cell services reply deterministically from cell contents, every
other focus is answered by the run's reply oracle.  Plain basic instructions
proceed as if True were produced, so they never consume an oracle reply;
only tests do.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

from .isa import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    Halt,
    IndBwdJump,
    IndFwdJump,
    Instruction,
    NegTest,
    Plain,
    PosTest,
    Program,
    RegSet,
    ToolParams,
    basic_of,
    render_instruction,
    validate,
)

_AUTO_CELL_FOCUS = re.compile(r"bool[0-9]+")


class Status(Enum):
    RUNNING = "Running"
    TERMINATED = "Terminated"
    DEADLOCKED = "Deadlocked"
    STEP_LIMIT = "StepLimit"


class OracleExhausted(RuntimeError):
    """A scripted oracle ran out of replies mid-run."""


class UnknownCellMethod(RuntimeError):
    """A Boolean cell received a method other than set:T, set:F or get."""


def cell_reply(contents: bool, method: str) -> tuple[bool, bool]:
    """Boolean-cell service: returns (new contents, reply)."""
    if method == "set:T":
        return True, True
    if method == "set:F":
        return False, False
    if method == "get":
        return contents, contents
    raise UnknownCellMethod(method)


class Scripted:
    """Replies from a fixed finite sequence; exhaustion is an error."""

    def __init__(self, replies: tuple[bool, ...] | list[bool], _index: int = 0):
        self.replies = tuple(replies)
        self._index = _index

    def take(self) -> tuple[bool, "Scripted"]:
        if self._index >= len(self.replies):
            raise OracleExhausted(f"scripted oracle exhausted after {self._index} replies")
        return self.replies[self._index], Scripted(self.replies, self._index + 1)

    def __repr__(self) -> str:
        return f"Scripted({list(self.replies)!r}@{self._index})"


class Seeded:
    """Deterministic pseudo-random reply stream; never exhausts."""

    def __init__(self, seed: int, _index: int = 0, _shared=None):
        self.seed = seed
        self._index = _index
        self._shared = _shared if _shared is not None else (random.Random(seed), [])

    def take(self) -> tuple[bool, "Seeded"]:
        rng, bits = self._shared
        while len(bits) <= self._index:
            bits.append(bool(rng.getrandbits(1)))
        return bits[self._index], Seeded(self.seed, self._index + 1, self._shared)

    def __repr__(self) -> str:
        return f"Seeded({self.seed}@{self._index})"


ReplyOracle = Scripted | Seeded


class TraceEvent(NamedTuple):
    position: int
    instruction: Instruction
    reply: bool | None


@dataclass(frozen=True)
class Trace:
    events: tuple[TraceEvent, ...]
    final: Status


class ObservableEvent(NamedTuple):
    focus: str
    method: str
    reply: bool


@dataclass(frozen=True)
class ObservableTrace:
    events: tuple[ObservableEvent, ...]
    final: Status


@dataclass(frozen=True)
class MachineConfig:
    """One machine state.  pc is 1-based; 0 marks a configuration that is no
    longer running.  Treated as a value: step() returns a fresh config."""

    pc: int
    registers: tuple[int, ...]
    cells: dict[str, bool]
    oracle: ReplyOracle
    status: Status = Status.RUNNING


def bound_cell_foci(p: Program, params: ToolParams) -> frozenset[str]:
    """Foci served by Boolean cells in runs of `p` under `params`."""
    if params.cell_foci is not None:
        return params.cell_foci
    return frozenset(
        b.focus
        for u in p.instructions
        if (b := basic_of(u)) is not None and _AUTO_CELL_FOCUS.fullmatch(b.focus)
    )


def initial_config(p: Program, params: ToolParams, oracle: ReplyOracle) -> MachineConfig:
    cells = {f: params.cell_init for f in bound_cell_foci(p, params)}
    return MachineConfig(1, (0,) * params.maxr, cells, oracle)


def _consult(cfg: MachineConfig, basic: BasicInstruction, is_test: bool):
    """Execute one basic instruction: returns (reply, cells', oracle')."""
    if basic.focus in cfg.cells:
        contents, reply = cell_reply(cfg.cells[basic.focus], basic.method)
        cells = cfg.cells
        if contents != cells[basic.focus]:
            cells = dict(cells)
            cells[basic.focus] = contents
        return reply, cells, cfg.oracle
    if is_test:
        reply, oracle = cfg.oracle.take()
        return reply, cfg.cells, oracle
    # A plain instruction proceeds as if True were produced.
    return True, cfg.cells, cfg.oracle


def step(p: Program, cfg: MachineConfig) -> tuple[MachineConfig, TraceEvent]:
    """Execute the instruction at cfg.pc.  Requires cfg.status == RUNNING."""
    if cfg.status is not Status.RUNNING:
        raise ValueError("cannot step a configuration that is not running")
    length = len(p)
    pc = cfg.pc
    u = p.at(pc)
    reply: bool | None = None
    registers = cfg.registers
    cells = cfg.cells
    oracle = cfg.oracle
    target: int | None

    match u:
        case Halt():
            event = TraceEvent(pc, u, None)
            return replace(cfg, pc=0, status=Status.TERMINATED), event
        case Plain(b):
            reply, cells, oracle = _consult(cfg, b, is_test=False)
            target = pc + 1
        case PosTest(b):
            reply, cells, oracle = _consult(cfg, b, is_test=True)
            target = pc + 1 if reply else pc + 2
        case NegTest(b):
            reply, cells, oracle = _consult(cfg, b, is_test=True)
            target = pc + 1 if not reply else pc + 2
        case FwdJump(l):
            target = pc + l if l > 0 else None
        case BwdJump(l):
            target = pc - l if l > 0 else None
        case RegSet(i, n):
            registers = registers[: i - 1] + (n,) + registers[i:]
            target = pc + 1
        case IndFwdJump(i):
            l = cfg.registers[i - 1]
            target = pc + l if l > 0 else None
        case IndBwdJump(i):
            l = cfg.registers[i - 1]
            target = pc - l if l > 0 else None
        case _:
            raise TypeError(f"not an instruction: {u!r}")

    event = TraceEvent(pc, u, reply)
    if target is None or target < 1 or target > length:
        new = MachineConfig(0, registers, cells, oracle, Status.DEADLOCKED)
    else:
        new = MachineConfig(target, registers, cells, oracle, Status.RUNNING)
    return new, event


def run(p: Program, params: ToolParams, oracle: ReplyOracle) -> Trace:
    """Run from position 1 until termination, deadlock, or the step limit."""
    diags = validate(p, params)
    if diags:
        raise ValueError("invalid program: " + "; ".join(map(str, diags)))
    cfg = initial_config(p, params, oracle)
    events: list[TraceEvent] = []
    for _ in range(params.step_limit):
        cfg, event = step(p, cfg)
        events.append(event)
        if cfg.status is not Status.RUNNING:
            return Trace(tuple(events), cfg.status)
    return Trace(tuple(events), Status.STEP_LIMIT)


def observable_events(
    events: tuple[TraceEvent, ...], aux
) -> tuple[ObservableEvent, ...]:
    """Project trace events to non-aux basic-instruction requests."""
    out = []
    for ev in events:
        b = basic_of(ev.instruction)
        if b is not None and not aux(b):
            assert ev.reply is not None
            out.append(ObservableEvent(b.focus, b.method, ev.reply))
    return tuple(out)


def observable_trace(t: Trace, params: ToolParams) -> ObservableTrace:
    return ObservableTrace(observable_events(t.events, params.aux), t.final)


def trace_text(t: Trace) -> str:
    """Line-oriented trace serialization, one event per line."""
    lines = []
    for ev in t.events:
        line = f"{ev.position} {render_instruction(ev.instruction)}"
        if ev.reply is not None:
            line += f" reply={'T' if ev.reply else 'F'}"
        lines.append(line)
    lines.append(f"status={t.final.value}")
    return "\n".join(lines) + "\n"


def parse_oracle_script(text: str) -> Scripted:
    """Oracle script files carry one 'T' or 'F' per line."""
    replies = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line not in ("T", "F"):
            raise ValueError(f"line {lineno}: oracle script lines must be 'T' or 'F'")
        replies.append(line == "T")
    return Scripted(tuple(replies))
