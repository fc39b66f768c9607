"""Single-pass execution of programs against Boolean cells and reply oracles.

Each executed basic instruction is a request to the environment: foci bound
to Boolean-cell services reply deterministically from cell contents, every
other focus is answered by the run's reply oracle.  Plain basic instructions
proceed as if True were produced, so they never consume an oracle reply;
only tests do.

`execute` is the interpreter loop; `run` and `step` are calls into it,
and `observable_steps` takes the same steps for `check`.  Each call
decodes a position once, the first time it reaches it, into a step rule
that holds the position's events, each with its trace line, and targets,
so a step is one list index and one branch on the rule's opcode.
`cell_reply` stays the one cell law, read into a rule when it is decoded.

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
from operator import itemgetter
from typing import NamedTuple

from .isa import (
    BASIC_KINDS,
    BwdJump,
    Diagnostic,
    FwdJump,
    Halt,
    IndBwdJump,
    IndFwdJump,
    InputError,
    Instruction,
    InvalidProgram,
    MOVES,
    NegTest,
    PglbError,
    PosTest,
    Program,
    RegSet,
    StateLimitExceeded,
    ToolParams,
    bound_cell_foci,
    render_instruction,
    require_valid,
)


class Status(Enum):
    RUNNING = "Running"
    TERMINATED = "Terminated"
    DEADLOCKED = "Deadlocked"
    STEP_LIMIT = "StepLimit"
    #: Loops for ever without an observable event (`observable_steps`).
    DIVERGES = "Diverges"


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
    #: Its `trace_text` line: "{position} {instruction}" and, for a reply, " reply=T" or " reply=F".
    line: str


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
# target on False, operand), each event holding its trace line.  A target
# is a position, 0 where the run stops there; a rule whose outcome does
# not depend on a reply has the same event and target in both slots.
_GO, _ASK, _CELL, _SET, _IND = range(5)

#: Builds a named tuple, such as a TraceEvent from a (position, instruction,
#: reply, line) tuple, without its Python-level `__new__`, at about half the
#: cost: a run that visits each position once pays one or two per step.
_event = tuple.__new__


def _decode(u: Instruction, pc: int, length: int, slot: dict[str, int]) -> tuple:
    """The step rule of instruction `u` at position `pc`; `slot` maps cell foci to slots.

    _GO has one outcome; _ASK takes the oracle's next reply; _CELL runs
    the cell law (operand: the cell's slot and `cell_reply` of both
    contents);
    _SET stores (register index, value); _IND jumps by register `operand[0]`
    times the direction `operand[1]`, so only its target is left open.
    """
    kind = type(u)
    try:
        step_true, step_false = MOVES[kind]
    except KeyError:
        raise TypeError(f"not an instruction: {u!r}") from None
    line = f"{pc} {render_instruction(u)}"
    # A zero offset or a target outside the program deadlocks.
    if kind in BASIC_KINDS:
        on_true = to if step_true and 0 < (to := pc + step_true) <= length else 0
        true_event = _event(TraceEvent, (pc, u, True, line + " reply=T"))
        focus = u.basic.focus
        if focus not in slot and step_true == step_false:
            # Without a cell, a plain instruction proceeds as if True were
            # produced.
            return (_GO, true_event, on_true, true_event, on_true, None)
        on_false = to if step_false and 0 < (to := pc + step_false) <= length else 0
        false_event = _event(TraceEvent, (pc, u, False, line + " reply=F"))
        if focus in slot:
            method = u.basic.method
            law = (cell_reply(False, method), cell_reply(True, method))
            return (_CELL, true_event, on_true, false_event, on_false, (slot[focus], law))
        return (_ASK, true_event, on_true, false_event, on_false, None)
    event = _event(TraceEvent, (pc, u, None, line))
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
    holds its events (one per outcome, shared by every visit, each with
    its trace line) and targets; the rules sit in a list indexed by pc.
    Cell contents sit in a list indexed by slot, in the order of
    `cfg.cells`, which `end.cells` keeps.  A reply-free cycle is found at
    backward transfers and fast-forwarded by whole laps (module docstring).
    """
    if cfg.status is not Status.RUNNING:
        raise ValueError("cannot step a configuration that is not running")
    ins = p.instructions
    length = len(ins)
    pc = cfg.pc
    if not 1 <= pc <= length:
        raise IndexError(f"position {pc} out of range")
    registers = list(cfg.registers)
    slot = {focus: i for i, focus in enumerate(cfg.cells)}
    cells = list(cfg.cells.values())
    oracle = cfg.oracle
    replies = oracle.replies
    index = oracle._index
    events: list[TraceEvent] = []
    append = events.append
    rules: list[tuple | None] = [None] * (length + 1)
    final: Status | None = Status.STEP_LIMIT
    # Brent's method over the states at backward transfers since the last
    # one that followed a reply: `saved` and the event count `saved_at`
    # where it was taken, re-taken after `left` more transfers, `span`
    # doubling each time.
    mark = -1
    ticks = repeat(None, limit)
    for _ in ticks:
        rule = rules[pc]
        if rule is None:
            rule = rules[pc] = _decode(ins[pc - 1], pc, length, slot)
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
            i, law = operand
            cells[i], reply = law[cells[i]]
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
                state = (target, tuple(registers), tuple(cells))
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
    end = MachineConfig(pc, tuple(registers), dict(zip(slot, cells)), oracle.at(index), status)
    return events, final, end


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


def observable_steps(p: Program, params: ToolParams) -> tuple:
    """The runs of `p` closed over internal steps (jumps, register sets,
    halts, aux-marked basic instructions): (start, after).  A closed state
    is the Status where the run stops, DIVERGES when its internal steps
    cycle, or the state (pc, registers, cells) at an observable
    instruction; `start` is the initial one.  `after(s)` is (whether s
    reads a reply, the (event, closed successor) on False and on True).
    An aux-marked test on a focus that is no cell reads a reply no trace
    shows, so it is refused before any step; so is a closure of more than
    `params.state_limit` states."""
    ins = p.instructions
    length = len(ins)
    aux, limit = params.aux, params.state_limit
    slot = {focus: i for i, focus in enumerate(sorted(bound_cell_foci(p, params)))}
    for pos, u in enumerate(ins, 1) if any(f not in slot for f, _ in aux.patterns) else ():
        if type(u) in (PosTest, NegTest) and u.basic.focus not in slot and aux(u.basic):
            message = f"aux-marked test {render_instruction(u)} reads a reply that no trace shows"
            raise InvalidProgram(p, [Diagnostic(pos, message)])
    rules: dict[int, tuple] = {}
    closed: dict[tuple, object] = {}

    def advance(pc: int, registers: tuple, cells: tuple, reply: bool) -> tuple:
        # One step by `execute`'s rule: (event, next pc or 0, registers, cells).
        op, event, target, on_false, false_target, operand = rules[pc]
        if op is _CELL:
            i, law = operand
            value, reply = law[cells[i]]
            cells = (*cells[:i], value, *cells[i + 1:])
        elif op is _SET:
            i, value = operand
            registers = (*registers[:i], value, *registers[i + 1:])
        elif op is _IND:
            i, direction = operand
            target = pc + direction * registers[i]
            if target == pc or not 1 <= target <= length:
                target = 0
        if not reply and (op is _ASK or op is _CELL):
            event, target = on_false, false_target
        return event, target, registers, cells

    def close(state: tuple):
        # A walk's states read DIVERGES until it ends: meeting one is a cycle.
        walk = []
        end = closed.get(state)
        while end is None:
            if len(closed) >= limit:
                raise StateLimitExceeded(f"closure exceeds the state limit of {limit} states")
            closed[state] = Status.DIVERGES
            walk.append(state)
            pc = state[0]
            u = ins[pc - 1]
            if pc not in rules:
                rules[pc] = _decode(u, pc, length, slot)
            if type(u) in BASIC_KINDS and not aux(u.basic):
                end = state
                break
            event, pc, registers, cells = advance(*state, True)
            if not pc:
                end = Status.TERMINATED if type(u) is Halt else Status.DEADLOCKED
                break
            state = (pc, registers, cells)
            end = closed.get(state)
        for s in walk:
            closed[s] = end
        return end

    def after(state: tuple) -> tuple:
        reads = rules[state[0]][0] is _ASK
        outcomes = []
        for reply in (False, True) if reads else (True,):
            event, pc, registers, cells = advance(*state, reply)
            b = event.instruction.basic
            seen = _event(ObservableEvent, (b.focus, b.method, event.reply))
            outcomes.append((seen, close((pc, registers, cells)) if pc else Status.DEADLOCKED))
        return reads, outcomes if reads else outcomes * 2

    return close((1, (0,) * params.maxr, (params.cell_init,) * len(slot))), after


def trace_text(t: Trace) -> str:
    """Line-oriented trace serialization: the lines the events carry, then the status."""
    return "\n".join([*map(itemgetter(3), t.events), f"status={t.final.value}", ""])


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
