"""Single-pass execution of programs against Boolean cells and reply oracles.

Each executed basic instruction is a request to the environment: foci bound
to Boolean-cell services reply deterministically from cell contents, every
other focus is answered by the run's reply oracle.  Plain basic instructions
proceed as if True were produced, so they never consume an oracle reply;
only tests do.

`execute` is the interpreter loop; `run` and `step` are calls into it.
Each call decodes a position once, the first time it reaches it, into a
step rule that holds the position's events and targets, so a step is one
dict lookup and one branch on the rule's opcode.  Rules are kept per call
and per visited position; `cell_reply` stays the one cell law, read into
a rule when it is decoded.

A run that reads no reply between two backward transfers is deterministic
there, so `execute` watches the state (next pc, registers, cells) at those
transfers with Brent's cycle detection (BIT 1980).  When a state comes
back, the events since its first visit repeat for ever: whole laps are
appended at once, and only the rest, shorter than one lap, is stepped.
The events, final status and end configuration are those of stepping.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import cycle, islice, repeat
from typing import NamedTuple

from .isa import (
    BASIC_KINDS,
    BwdJump,
    FwdJump,
    Halt,
    IndBwdJump,
    IndFwdJump,
    InputError,
    Instruction,
    MOVES,
    PglbError,
    Program,
    RegSet,
    ToolParams,
    basic_of,
    bound_cell_foci,
    render_instruction,
    require_valid,
)


class Status(Enum):
    RUNNING = "Running"
    TERMINATED = "Terminated"
    DEADLOCKED = "Deadlocked"
    STEP_LIMIT = "StepLimit"


class OracleExhausted(PglbError, RuntimeError):
    """A scripted oracle ran out of replies mid-run."""


class UnknownCellMethod(PglbError, RuntimeError):
    """A Boolean cell received a method other than set:T, set:F or get.
    `validate` refuses such programs; this guards runs that skipped it."""

    def __init__(self, method: str):
        super().__init__(f"unknown method {method} on a Boolean cell")


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

    def supply(self, n: int) -> bool:
        return n <= len(self.replies)

    def at(self, index: int) -> "Scripted":
        return Scripted(self.replies, index)

    def exhausted(self) -> OracleExhausted:
        return OracleExhausted(f"scripted oracle exhausted after {self._index} replies")

    def __repr__(self) -> str:
        return f"Scripted({list(self.replies)!r}@{self._index})"


class Seeded:
    """Deterministic pseudo-random reply stream; never exhausts.

    Streams at different indexes of one seed share the drawn bits, so
    `replies` is one list that grows in place.
    """

    def __init__(self, seed: int, _index: int = 0, _shared=None):
        self.seed = seed
        self._index = _index
        self._shared = _shared if _shared is not None else (random.Random(seed), [])
        self.replies = self._shared[1]

    def supply(self, n: int) -> bool:
        rng, bits = self._shared
        while len(bits) < n:
            # Drawing ahead changes no reply: bit i is always the i-th draw.
            bits.extend(map(bool, map(rng.getrandbits, repeat(1, 64))))
        return True

    def at(self, index: int) -> "Seeded":
        return Seeded(self.seed, index, self._shared)

    def __repr__(self) -> str:
        return f"Seeded({self.seed}@{self._index})"


#: A reply stream read from `_index` on.  `replies` holds the replies
#: drawn so far, `supply(n)` says whether it can hold n of them (drawing
#: more if the stream allows), and `at(i)` is the same stream read from
#: reply i.  `execute` reads `replies` directly.
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
class MachineConfig:
    """One machine state.  pc is 1-based; 0 marks a configuration that is no
    longer running.  Treated as a value: step() returns a fresh config."""

    pc: int
    registers: tuple[int, ...]
    cells: dict[str, bool]
    oracle: ReplyOracle
    status: Status = Status.RUNNING


def initial_config(p: Program, params: ToolParams, oracle: ReplyOracle) -> MachineConfig:
    cells = {f: params.cell_init for f in bound_cell_foci(p, params)}
    return MachineConfig(1, (0,) * params.maxr, cells, oracle)


# Step rules.  A position is decoded once per run, the first time the run
# reaches it, into (op, event on True, target on True, event on False,
# target on False, operand).  A target is a position, 0 where the run stops
# there; a rule whose outcome does not depend on a reply has the same
# event and target in both slots.
_GO, _ASK, _CELL, _SET, _IND = range(5)

#: Builds a named tuple, such as a TraceEvent from a (position, instruction,
#: reply) tuple, without its Python-level `__new__`, at about half the
#: cost: a run that visits each position once pays one or two per step.
_event = tuple.__new__


def _decode(u: Instruction, pc: int, length: int, cells: dict[str, bool]) -> tuple:
    """The step rule of instruction `u` at position `pc`.

    _GO has one outcome; _ASK takes the oracle's next reply; _CELL runs
    the cell law (operand: the focus and `cell_reply` of both contents);
    _SET stores (register index, value); _IND jumps by register `operand[0]`
    times the direction `operand[1]`, so only its target is left open.
    """
    kind = type(u)
    try:
        step_true, step_false = MOVES[kind]
    except KeyError:
        raise TypeError(f"not an instruction: {u!r}") from None
    # A zero offset or a target outside the program deadlocks.
    if kind in BASIC_KINDS:
        on_true = to if step_true and 0 < (to := pc + step_true) <= length else 0
        true_event = _event(TraceEvent, (pc, u, True))
        focus = u.basic.focus
        if focus not in cells and step_true == step_false:
            # Without a cell, a plain instruction proceeds as if True were
            # produced.
            return (_GO, true_event, on_true, true_event, on_true, None)
        on_false = to if step_false and 0 < (to := pc + step_false) <= length else 0
        false_event = _event(TraceEvent, (pc, u, False))
        if focus in cells:
            method = u.basic.method
            law = (cell_reply(False, method), cell_reply(True, method))
            return (_CELL, true_event, on_true, false_event, on_false, (focus, law))
        return (_ASK, true_event, on_true, false_event, on_false, None)
    event = _event(TraceEvent, (pc, u, None))
    if kind is FwdJump or kind is BwdJump:
        step_true *= u.distance
    elif kind is IndFwdJump or kind is IndBwdJump:
        return (_IND, event, 0, event, 0, (u.register - 1, step_true))
    target = to if step_true and 0 < (to := pc + step_true) <= length else 0
    if kind is RegSet:
        return (_SET, event, target, event, target, (u.register - 1, u.value))
    return (_GO, event, target, event, target, None)


def execute(
    p: Program, cfg: MachineConfig, limit: int
) -> tuple[list[TraceEvent], Status | None, MachineConfig]:
    """Run from `cfg` for at most `limit` steps: the interpreter itself.

    Returns (events, final, end).  `final` is TERMINATED or DEADLOCKED when
    the run stopped on its own, STEP_LIMIT after `limit` steps, and None
    when a test needed a reply the oracle does not have; that test is not
    executed.  `end` is the configuration where the run stopped, with the
    oracle advanced past the replies it used.

    Each position the run reaches is decoded once into a step rule that
    holds its events (one per outcome, shared by every visit) and targets.
    A reply-free cycle is found at backward transfers and fast-forwarded
    by whole laps (module docstring).
    """
    if cfg.status is not Status.RUNNING:
        raise ValueError("cannot step a configuration that is not running")
    ins = p.instructions
    length = len(ins)
    pc = cfg.pc
    if not 1 <= pc <= length:
        raise IndexError(f"position {pc} out of range")
    registers = list(cfg.registers)
    cells = dict(cfg.cells)
    oracle = cfg.oracle
    replies = oracle.replies
    index = oracle._index
    events: list[TraceEvent] = []
    append = events.append
    rules: dict[int, tuple] = {}
    rule_at = rules.get
    final: Status | None = Status.STEP_LIMIT
    # Brent's method over the states at backward transfers since the last
    # one that followed a reply: `saved` and the event count `saved_at`
    # where it was taken, re-taken after `left` more transfers, `span`
    # doubling each time.
    mark = -1
    ticks = repeat(None, limit)
    for _ in ticks:
        rule = rule_at(pc)
        if rule is None:
            rule = rules[pc] = _decode(ins[pc - 1], pc, length, cells)
        op, event, target, on_false, false_target, operand = rule
        if op is _GO:
            pass
        elif op is _ASK:
            if index >= len(replies) and not oracle.supply(index + 1):
                final = None
                break
            if not replies[index]:
                event, target = on_false, false_target
            index += 1
        elif op is _CELL:
            focus, law = operand
            cells[focus], reply = law[cells[focus]]
            if not reply:
                event, target = on_false, false_target
        elif op is _SET:
            register, value = operand
            registers[register] = value
        else:
            register, direction = operand
            distance = registers[register]
            target = pc + direction * distance if distance else 0
            if not 1 <= target <= length:
                target = 0
        append(event)
        if target < pc:
            if not target:
                final = Status.TERMINATED if type(event.instruction) is Halt else Status.DEADLOCKED
                pc = 0
                break
            if index != mark:
                mark, saved, left, span = index, None, 0, 1
            else:
                state = (target, tuple(registers), tuple(cells.values()))
                if state == saved:
                    # Whole laps of the events since `saved`, then step on.
                    lap = len(events) - saved_at
                    ahead = (limit - len(events)) // lap * lap
                    events += islice(cycle(events[saved_at:]), ahead)
                    next(islice(ticks, ahead, ahead), None)
                elif left > 1:
                    left -= 1
                else:
                    saved, saved_at, left, span = state, len(events), span, span * 2
        pc = target
    status = final if pc == 0 else Status.RUNNING
    return events, final, MachineConfig(pc, tuple(registers), cells, oracle.at(index), status)


def step(p: Program, cfg: MachineConfig) -> tuple[MachineConfig, TraceEvent]:
    """Execute the instruction at cfg.pc: one step of `execute`.

    Requires cfg.status == RUNNING; raises OracleExhausted when the
    instruction is a test the oracle has no reply for.
    """
    events, final, end = execute(p, cfg, 1)
    if final is None:
        raise end.oracle.exhausted()
    return end, events[0]


def run(p: Program, params: ToolParams, oracle: ReplyOracle) -> Trace:
    """Run from position 1 until termination, deadlock, or the step limit."""
    require_valid(p, params)
    events, final, end = execute(p, initial_config(p, params, oracle), params.step_limit)
    if final is None:
        raise end.oracle.exhausted()
    return Trace(tuple(events), final)


def observable_events(
    events: tuple[TraceEvent, ...], aux
) -> tuple[ObservableEvent, ...]:
    """Project trace events to non-aux basic-instruction requests.

    Each distinct event object is projected once: `execute` shares one
    per position and outcome, so a long run holds few of them.
    """
    projected: dict[int, ObservableEvent | None] = {}
    out = []
    for ev in events:
        key = id(ev)
        if key in projected:
            o = projected[key]
        else:
            b = basic_of(ev.instruction)
            if b is not None and not aux(b):
                assert ev.reply is not None
                o = projected[key] = _event(ObservableEvent, (b.focus, b.method, ev.reply))
            else:
                o = projected[key] = None
        if o is not None:
            out.append(o)
    return tuple(out)


def trace_text(t: Trace) -> str:
    """Line-oriented trace serialization, one event per line."""
    prefixes: dict[int, str] = {}
    lines = []
    for position, instruction, reply in t.events:
        prefix = prefixes.get(position)
        if prefix is None:
            prefix = prefixes[position] = f"{position} {render_instruction(instruction)}"
        lines.append(prefix if reply is None else prefix + (" reply=T" if reply else " reply=F"))
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
            raise InputError(f"line {lineno}: oracle script lines must be 'T' or 'F'")
        replies.append(line == "T")
    return Scripted(tuple(replies))
