"""Instruction model, concrete syntax, and static checks for PGLB/PGLBij programs.

A program is a non-empty, semicolon-separated sequence of primitive
instructions.  PGLBij is the full notation (direct jumps, register sets,
indirect jumps); PGLB is the register-free fragment.  Positions are 1-based
throughout, matching the counting used by the jump instructions themselves.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Union

FOCUS_PATTERN = re.compile(r"[a-z][a-z0-9]*")
METHOD_PATTERN = re.compile(r"[a-zA-Z][a-zA-Z0-9]*(?::[a-zA-Z0-9]+)*")

#: Reserved to keep `set:i:n` unambiguous under single-token lookahead.
RESERVED_FOCUS = "set"


class PglbError(Exception):
    """Base of the library's typed refusals: the command line prints each
    as `pglblab: <message>` and exits with `code`."""

    code = 1


class InputError(PglbError, ValueError):
    """A refused value other than program text: a size, count or limit out of
    range, a bad aux pattern or oracle-script line, an output over the limit."""


class StateLimitExceeded(InputError):
    """More than `stateLimit` of something: state-graph nodes, dispatch
    output instructions, closure states or product pairs; the message says
    which grew."""


class ParseError(PglbError, ValueError):
    """Raised on malformed program text; carries the 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


@dataclass(frozen=True, slots=True)
class BasicInstruction:
    """A focus.method pair naming one request to the execution environment."""

    focus: str
    method: str

    def __post_init__(self) -> None:
        if not FOCUS_PATTERN.fullmatch(self.focus):
            raise ValueError(f"bad focus {self.focus!r}")
        if self.focus == RESERVED_FOCUS:
            raise ValueError(f"focus {RESERVED_FOCUS!r} is reserved")
        if not METHOD_PATTERN.fullmatch(self.method):
            raise ValueError(f"bad method {self.method!r}")

    def __str__(self) -> str:
        return f"{self.focus}.{self.method}"


@dataclass(frozen=True, slots=True)
class Plain:
    """Execute the basic instruction and proceed regardless of its reply."""

    basic: BasicInstruction


@dataclass(frozen=True, slots=True)
class PosTest:
    """Execute the basic instruction; on True proceed, on False skip one."""

    basic: BasicInstruction


@dataclass(frozen=True, slots=True)
class NegTest:
    """Execute the basic instruction; on False proceed, on True skip one."""

    basic: BasicInstruction


@dataclass(frozen=True, slots=True)
class FwdJump:
    distance: int

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError("jump distance must be a natural number")


@dataclass(frozen=True, slots=True)
class BwdJump:
    distance: int

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError("jump distance must be a natural number")


@dataclass(frozen=True, slots=True)
class RegSet:
    """Store a positive literal into a register and proceed."""

    register: int
    value: int

    def __post_init__(self) -> None:
        if self.register < 1:
            raise ValueError("register index must be >= 1")
        if self.value < 1:
            raise ValueError("register literal must be >= 1")


@dataclass(frozen=True, slots=True)
class IndFwdJump:
    """Forward jump whose distance is read from a register."""

    register: int

    def __post_init__(self) -> None:
        if self.register < 1:
            raise ValueError("register index must be >= 1")


@dataclass(frozen=True, slots=True)
class IndBwdJump:
    """Backward jump whose distance is read from a register."""

    register: int

    def __post_init__(self) -> None:
        if self.register < 1:
            raise ValueError("register index must be >= 1")


@dataclass(frozen=True, slots=True)
class Halt:
    """Terminate execution successfully."""


Instruction = Union[
    Plain, PosTest, NegTest, FwdJump, BwdJump, RegSet, IndFwdJump, IndBwdJump, Halt
]

#: Instruction kinds that are part of the register-free PGLB fragment.
_PGLB_KINDS = frozenset((Plain, PosTest, NegTest, FwdJump, BwdJump, Halt))

#: Where each instruction kind sends the pc: type(u) -> (offset on a True
#: reply, offset on a False reply), 0 where the run stops.  A test proceeds
#: on the reply its sign names and skips one instruction on the other; equal
#: offsets do not depend on the reply.  A jump holds its direction, times
#: its distance or its register's content, so a zero distance or content
#: stops the run.  A target outside the program stops it too.
MOVES = {
    Plain: (1, 1), PosTest: (1, 2), NegTest: (2, 1), RegSet: (1, 1), Halt: (0, 0),
    FwdJump: (1, 1), BwdJump: (-1, -1), IndFwdJump: (1, 1), IndBwdJump: (-1, -1),
}


def basic_of(u: Instruction) -> BasicInstruction | None:
    """The basic instruction carried by `u`, if any."""
    if isinstance(u, (Plain, PosTest, NegTest)):
        return u.basic
    return None


#: type(u) -> the text of `u`: one format per instruction kind.
_FORMATS = {
    Plain: lambda u: f"{u.basic.focus}.{u.basic.method}",
    PosTest: lambda u: f"+{u.basic.focus}.{u.basic.method}",
    NegTest: lambda u: f"-{u.basic.focus}.{u.basic.method}",
    FwdJump: lambda u: f"#{u.distance}",
    BwdJump: lambda u: f"\\#{u.distance}",
    RegSet: lambda u: f"set:{u.register}:{u.value}",
    IndFwdJump: lambda u: f"i#{u.register}",
    IndBwdJump: lambda u: f"i\\#{u.register}",
    Halt: lambda u: "!",
}


def render_instruction(u: Instruction) -> str:
    render = _FORMATS.get(type(u))
    if render is None:
        raise TypeError(f"not an instruction: {u!r}")
    return render(u)


@dataclass(frozen=True)
class Program:
    """An immutable instruction sequence; position i is `instructions[i - 1]`."""

    instructions: tuple[Instruction, ...]

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError("a program has at least one instruction")

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:
        return render_program(self)


def per_object(instructions, f: Callable[[Instruction], object]) -> list:
    """`[f(u) for u in instructions]`, calling `f` once per distinct object.

    Programs share instruction objects (the parser's, the projections'
    jumps), so per-instruction work is done once per object.  Keying by
    `id` is sound while `instructions` holds every object.  A result of
    None counts as missing, so `f` runs again at each occurrence of its object.
    """
    memo: dict[int, object] = {}
    known, keep = memo.get, memo.setdefault
    return [v if (v := known(id(u))) is not None else keep(id(u), f(u)) for u in instructions]


def render_program(p: Program) -> str:
    """Canonical text: instructions joined by ' ; ', no trailing separator."""
    return " ; ".join(per_object(p.instructions, render_instruction))


# One alternative per instruction form but the direct jumps, which
# `parse_program` reads itself.  The forms are disjoint (only a basic
# instruction has a '.'), and the last group of each is named after its
# form, so `lastgroup` says which one matched.
_INSTR_SYNTAX = re.compile(
    r"(?P<halt>!)"
    r"|set:(?P<reg>\d+):(?P<set>\d+)"
    r"|i#(?P<ifwd>\d+)"
    r"|i\\#(?P<ibwd>\d+)"
    rf"|(?P<sign>[+-]?)(?P<focus>{FOCUS_PATTERN.pattern})\.(?P<basic>{METHOD_PATTERN.pattern})"
)
_BASIC_KINDS = {"": Plain, "+": PosTest, "-": NegTest}
#: The text before the `#` of a direct jump -> its kind.
_DIRECT_JUMPS = {"": FwdJump, "\\": BwdJump}
_INSTR_BUILD: dict[str, Callable[[re.Match[str]], Instruction]] = {
    "halt": lambda m: Halt(),
    "set": lambda m: RegSet(int(m["reg"]), int(m["set"])),
    "ifwd": lambda m: IndFwdJump(int(m["ifwd"])),
    "ibwd": lambda m: IndBwdJump(int(m["ibwd"])),
    "basic": lambda m: _BASIC_KINDS[m["sign"]](BasicInstruction(m["focus"], m["basic"])),
}


def _strip_comments(text: str) -> str:
    # '//' starts a comment running to end of line; the grammar has no
    # string literals, so a plain per-line cut is safe.
    if "//" not in text:
        return text
    return "\n".join(line.split("//", 1)[0] for line in text.split("\n"))


def _parse_instruction(body: str) -> Instruction:
    """One instruction from its stripped text; ValueError names the fault."""
    if not body:
        raise ValueError("empty instruction")
    m = _INSTR_SYNTAX.fullmatch(body)
    if m is None:
        raise ValueError(f"unrecognized instruction {body!r}")
    return _INSTR_BUILD[m.lastgroup](m)


def parse_program(text: str) -> Program:
    """Parse program text (UTF-8, '//' line comments) into a Program.

    Each distinct chunk of text is stripped once and each distinct
    instruction text parsed once, and the occurrences of a text share one
    instruction object.  Chunks are taken in order of first occurrence,
    so the first one that fails is also the first failing instruction in
    the text.

    A direct jump is `#` or `\\#` and digits: the text before its first
    `#` names the kind, and `str.isdecimal` accepts exactly the digits
    that `\\d` accepts in the other forms.  It is built in place, without
    the dataclass constructor, whose one check, a negative distance,
    digits never fail.
    """
    stripped = _strip_comments(text)
    chunks = stripped.split(";")
    built: dict[str, Instruction] = {}
    of_chunk: dict[str, Instruction] = {}
    new = object.__new__
    assign = object.__setattr__
    direct = _DIRECT_JUMPS.get
    for chunk in dict.fromkeys(chunks):
        body = chunk.strip()
        u = built.get(body)
        if u is None:
            try:
                head, _, digits = body.partition("#")
                kind = direct(head)
                if kind is not None and digits.isdecimal():
                    # int() refuses more than 4,300 digits with a
                    # ValueError, located below like any other fault.
                    u = new(kind)
                    assign(u, "distance", int(digits))
                else:
                    u = _parse_instruction(body)
            except ValueError as exc:
                raise _located(str(exc), stripped, chunks, chunks.index(chunk)) from None
            built[body] = u
        of_chunk[chunk] = u
    return Program(tuple(map(of_chunk.__getitem__, chunks)))


def _located(message: str, stripped: str, chunks: list[str], index: int) -> ParseError:
    """The ParseError for chunk `index`, at its first non-blank character."""
    chunk = chunks[index]
    start = sum(len(c) + 1 for c in chunks[:index]) + len(chunk) - len(chunk.lstrip())
    line = stripped.count("\n", 0, start) + 1
    column = start - stripped.rfind("\n", 0, start)
    return ParseError(message, line, column)


@dataclass(frozen=True)
class AuxSpec:
    """Predicate over basic instructions given as focus.method patterns.

    Each pattern is an exact `focus.method` pair or `focus.*`, the wildcard
    covering every method of that focus.
    """

    patterns: frozenset[tuple[str, str | None]] = frozenset()

    @classmethod
    def parse(cls, text: str) -> "AuxSpec":
        pats: set[tuple[str, str | None]] = set()
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            focus, _, method = item.partition(".")
            if not focus or not method:
                raise InputError(f"bad aux pattern {item!r} (want focus.method)")
            pats.add((focus, None if method == "*" else method))
        return cls(frozenset(pats))

    @classmethod
    def of_foci(cls, foci: "frozenset[str] | set[str]") -> "AuxSpec":
        return cls(frozenset((f, None) for f in foci))

    def union(self, other: "AuxSpec") -> "AuxSpec":
        return AuxSpec(self.patterns | other.patterns)

    def __call__(self, basic: BasicInstruction) -> bool:
        return (basic.focus, basic.method) in self.patterns or (
            basic.focus,
            None,
        ) in self.patterns

    def render(self) -> str:
        return ",".join(
            sorted(f"{f}.{'*' if m is None else m}" for f, m in self.patterns)
        )


#: Largest step limit: a run keeps every step's event in memory.
MAX_STEP_LIMIT = 1_000_000

#: Largest maxr: every machine state holds maxr registers.
MAX_REGISTERS = 1_000


@dataclass(frozen=True)
class ToolParams:
    """Machine parameters shared by the interpreter, analyzer and projections.

    `maxr`/`maxn` bound register indexes and literals; the register content
    range is a machine parameter, not a program property.  `aux` marks basic
    instructions whose occurrences count as internal delay.  `cell_foci`
    fixes which foci are bound to Boolean-cell services; None means the
    default binding of every focus matching bool<digits>.  `maxr` is at
    most MAX_REGISTERS; `step_limit` is at most MAX_STEP_LIMIT, which is
    also its default; neither limit is negative.
    """

    maxr: int = 2
    maxn: int = 7
    aux: AuxSpec = field(default_factory=AuxSpec)
    step_limit: int = MAX_STEP_LIMIT
    state_limit: int = 5_000_000
    cell_foci: frozenset[str] | None = None
    cell_init: bool = False

    def __post_init__(self) -> None:
        if self.maxr < 1 or self.maxn < 1:
            raise InputError("maxr and maxn must be >= 1")
        if self.maxr > MAX_REGISTERS:
            raise InputError(f"maxr {self.maxr} exceeds {MAX_REGISTERS}")
        if self.step_limit > MAX_STEP_LIMIT:
            raise InputError(f"step limit {self.step_limit} exceeds {MAX_STEP_LIMIT}")
        if self.step_limit < 0 or self.state_limit < 0:
            raise InputError("step and state limits must be >= 0")


@dataclass(frozen=True)
class Diagnostic:
    position: int
    message: str

    def __str__(self) -> str:
        return f"position {self.position}: {self.message}"


_AUTO_CELL_FOCUS = re.compile(r"bool[0-9]+")

#: The methods a Boolean cell serves.
CELL_METHODS = frozenset(("set:T", "set:F", "get"))

#: Instruction kinds that carry a basic instruction, a register index, and
#: either.
BASIC_KINDS = frozenset((Plain, PosTest, NegTest))
WITH_REGISTER = frozenset((RegSet, IndFwdJump, IndBwdJump))
_WITH_OPERAND = BASIC_KINDS | WITH_REGISTER


def bound_cell_foci(p: Program, params: ToolParams) -> frozenset[str]:
    """Foci served by Boolean cells in runs of `p` under `params`."""
    if params.cell_foci is not None:
        return params.cell_foci
    foci = {u.basic.focus for u in p.instructions if type(u) in BASIC_KINDS}
    return frozenset(filter(_AUTO_CELL_FOCUS.fullmatch, foci))


def validate(p: Program, params: ToolParams) -> list[Diagnostic]:
    """Static checks against the machine parameters.

    Register indexes must lie in [1, maxr] and register literals in
    [1, maxn], and a focus bound to a Boolean cell takes only the methods
    in CELL_METHODS.  Jump targets are deliberately not checked:
    out-of-range jumps are legal programs that deadlock at run time.
    Each instruction object is checked once; positions are walked only to
    place the diagnostics of a bad one.
    """
    maxr, maxn, cells = params.maxr, params.maxn, bound_cell_foci(p, params)
    checked = _WITH_OPERAND if cells else WITH_REGISTER
    faults: dict[int, list[str]] = {}
    for key, u in {id(u): u for u in p.instructions if type(u) in checked}.items():
        kind = type(u)
        if kind in WITH_REGISTER:
            if kind is RegSet and u.value > maxn:
                faults[key] = [f"register literal {u.value} exceeds maxn={maxn}"]
            if u.register > maxr:
                faults.setdefault(key, []).append(f"register index {u.register} exceeds maxr={maxr}")
        elif u.basic.focus in cells and u.basic.method not in CELL_METHODS:
            faults[key] = [f"unknown method {u.basic.method} on Boolean cell {u.basic.focus}"]
    if not faults:
        return []
    return [
        Diagnostic(pos, message)
        for pos, key in enumerate(map(id, p.instructions), 1)
        for message in faults.get(key, ())
    ]


class InvalidProgram(PglbError, ValueError):
    """A program that fails `validate`; carries it and its diagnostics."""

    def __init__(self, program: Program, diagnostics: list[Diagnostic]):
        self.program = program
        self.diagnostics = diagnostics
        super().__init__("invalid program: " + "; ".join(map(str, diagnostics)))


def require_valid(p: Program, params: ToolParams) -> None:
    """Raise InvalidProgram unless `validate` finds nothing."""
    diags = validate(p, params)
    if diags:
        raise InvalidProgram(p, diags)


def is_pglb(p: Program) -> bool:
    """True iff the program avoids register and indirect-jump instructions."""
    return _PGLB_KINDS.issuperset(map(type, p.instructions))
