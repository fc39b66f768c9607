"""Projections from the full notation onto the register-free fragment.

Two constructions with opposite trade-offs:

* `specialize` unfolds a prebuilt reachable state graph, emitting one block
  per (position, register contents) state.  Register and indirect-jump
  instructions collapse to direct jumps, so internal delay stays flat while
  length grows with the state count.

* `dispatch_project` keeps the original layout and represents each register
  by a vector of auxiliary Boolean cells.  Register sets become bit writes
  and indirect jumps become balanced decision trees over the bits, so
  length stays linear while internal delay grows with the bit width.

Projections emit programs and do no analysis: the caller computes the MID
of each program it reports, under `ProjectionReport.output_params` for the
output.  `thread_jumps` is a separate linear pass over any register-free
program, either projection's output included, that collapses chains of
direct jumps.  `check_equivalence` compares observable behaviour over an
oracle suite.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import accumulate, compress, islice
from typing import Callable

from .analyzer import MidResult, StateGraph
from .isa import (
    AuxSpec,
    BasicInstruction,
    BwdJump,
    FwdJump,
    Halt,
    IndBwdJump,
    IndFwdJump,
    InputError,
    Instruction,
    MOVES,
    NegTest,
    Plain,
    PosTest,
    Program,
    RegSet,
    ToolParams,
    basic_of,
    bound_cell_foci,
    is_pglb,
    require_valid,
)
from .vm import (
    MachineConfig,
    ObservableEvent,
    Scripted,
    Seeded,
    Status,
    execute,
    initial_config,
    observable_events,
)


@dataclass(frozen=True)
class RelocationMap:
    """Old key i -> (new block start `starts[i]`, new block length `sizes[i]`).

    `key(i)` renders old key i, only when `to_csv` asks: the 1-based old
    position for dispatch_project, the source state `pc:r1-r2-...` for
    specialize.
    """

    starts: list[int]
    sizes: list[int]
    key: Callable[[int], str]

    def to_csv(self) -> str:
        lines = ["old_key,new_start,new_len"]
        for i, (start, length) in enumerate(zip(self.starts, self.sizes)):
            lines.append(f"{self.key(i)},{start},{length}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ProjectionReport:
    mode: str
    source: Program
    output: Program
    relocation: RelocationMap
    aux_introduced: frozenset[BasicInstruction]

    @property
    def length_before(self) -> int:
        return len(self.source)

    @property
    def length_after(self) -> int:
        return len(self.output)

    @property
    def aux_foci(self) -> frozenset[str]:
        return frozenset(b.focus for b in self.aux_introduced)

    def output_params(self, params: ToolParams) -> ToolParams:
        """Params for running or analyzing the projected program: the
        introduced cells are aux-marked and Boolean-cell bound."""
        cells = bound_cell_foci(self.source, params) | self.aux_foci
        return replace(
            params,
            aux=params.aux.union(AuxSpec.of_foci(self.aux_foci)),
            cell_foci=frozenset(cells),
        )

    def summary(self, mid_before: MidResult, mid_after: MidResult) -> str:
        """report.txt text, given the MIDs of the source and the output."""
        return (
            f"mode={self.mode}\n"
            f"lengthBefore={self.length_before}\n"
            f"lengthAfter={self.length_after}\n"
            f"midBefore={mid_before.text}\n"
            f"midAfter={mid_after.text}\n"
            f"auxIntroduced={','.join(sorted(str(b) for b in self.aux_introduced))}\n"
        )


class _Jumps(dict):
    """Signed distance d -> the one direct jump of that distance (`#d`,
    or `\\#-d` for negative d), made on first use.  One lives for one
    emission, so no call reuses another call's objects; `thread_jumps`
    seeds its own with its input's jumps."""

    def __missing__(self, d: int) -> Instruction:
        assert d != 0, "a block never jumps to itself"
        u = self[d] = FwdJump(d) if d > 0 else BwdJump(-d)
        return u


_DEADLOCK = FwdJump(0)

#: Output block length per instruction kind in `specialize`; 1 otherwise.
_BLOCK_SIZE = {Plain: 2, PosTest: 3, NegTest: 3}

#: Instruction kinds whose `specialize` block is one jump.
_JUMP_KINDS = frozenset((FwdJump, BwdJump, RegSet, IndFwdJump, IndBwdJump))

#: The kinds whose two replies go to different positions: the tests.
_TEST_KINDS = frozenset(kind for kind, (on_true, on_false) in MOVES.items() if on_true != on_false)

#: The tests that skip on True: their pc+1 branch is the graph's second.
_SKIP_ON_TRUE = frozenset(kind for kind in _TEST_KINDS if MOVES[kind][0] != 1)


def specialize(graph: StateGraph) -> ProjectionReport:
    """Unfold a reachable state graph into a register-free program.

    The source is `graph.program`.  Every reachable (position, registers)
    state becomes one block: basics and tests are copied with explicit
    successor jumps, register sets and resolved indirect jumps become
    single direct jumps, deadlocking outcomes become '#0'.  Only reachable
    states are emitted.
    """
    p = graph.program
    pcs = graph.pcs()
    offsets, targets = graph.offsets, graph.targets
    block_size = [0] + [_BLOCK_SIZE.get(type(u), 1) for u in p.instructions]
    sizes = list(map(block_size.__getitem__, pcs))
    starts = list(accumulate(sizes, initial=1))
    jump = _Jumps()
    out: list[Instruction] = []
    add = out.append
    at_pc = (None,) + p.instructions
    for u, at, o, e in zip(map(at_pc.__getitem__, pcs), starts, offsets, islice(offsets, 1, None)):
        # A block is a copied head, if any, then one jump per successor
        # slot to the successor state's block, or '#0' when the slot's
        # outcome deadlocks.
        kind = type(u)
        if kind in _JUMP_KINDS:
            # Direct jumps keep their role; register sets and indirect
            # jumps resolve against the state and become direct jumps.
            add(jump[starts[targets[o]] - at] if o < e else _DEADLOCK)
            continue
        add(u)
        if kind is Plain:
            add(jump[starts[targets[o]] - at - 1] if o < e else _DEADLOCK)
        elif kind is not Halt:
            if e - o == 2:
                # The graph lists on-true before on-false.  The copied test
                # proceeds to the first slot on the reply that sends the
                # source to pc+1 and skips to the second on the other.
                first, second = targets[o], targets[o + 1]
                if kind in _SKIP_ON_TRUE:
                    first, second = second, first
                add(jump[starts[first] - at - 1])
                add(jump[starts[second] - at - 2])
            else:
                # Only the pc+1 outcome, if any, stays in the program.
                add(jump[starts[targets[o]] - at - 1] if o < e else _DEADLOCK)
                add(_DEADLOCK)

    node = graph.decoder()
    base = len(p) + 1
    codes = graph.codes
    suffixes: dict[int, str] = {}

    def state_key(i: int) -> str:
        # States share register vectors: render each vector once.
        regs_code, pc = divmod(codes[i], base)
        suffix = suffixes.get(regs_code)
        if suffix is None:
            suffix = suffixes[regs_code] = "-".join(map(str, node(i).registers))
        return f"{pc}:{suffix}"

    relocation = RelocationMap(starts[:-1], sizes, state_key)
    return ProjectionReport("specialize", p, Program(tuple(out)), relocation, frozenset())


def _tree_size(levels: int) -> int:
    # One test per internal node, a branch jump per non-bottom node, two
    # leaf jumps per bottom node: 5 * 2^(levels-1) - 2 instructions.
    return 5 * 2 ** (levels - 1) - 2


def _fresh_cell_prefix(p: Program) -> str:
    foci = {b.focus for u in p.instructions if (b := basic_of(u)) is not None}
    prefix = "r"
    while any(re.fullmatch(rf"{prefix}\d+b\d+", f) for f in foci):
        prefix += "r"
    return prefix


def dispatch_project(p: Program, params: ToolParams) -> ProjectionReport:
    """Replace registers with aux Boolean cells, keeping the block layout.

    With b = bits needed for [0, maxn], register i is held in cells
    <prefix>ib0..b-1 (prefix 'r' unless taken).  A register set writes all
    b bits; an indirect jump becomes a balanced decision tree testing bits
    most-significant-first whose 2^b leaves are direct jumps to the
    relocated targets, in ascending value order; value 0 and out-of-range
    targets deadlock.  Raises InputError, before emitting anything, when
    the output would be longer than params.state_limit.
    """
    require_valid(p, params)
    ins = p.instructions
    length = len(ins)
    bits = params.maxn.bit_length()
    prefix = _fresh_cell_prefix(p)
    size_of = {RegSet: bits, IndFwdJump: _tree_size(bits), IndBwdJump: _tree_size(bits)}
    sizes = [size_of.get(type(u), 1) for u in ins]
    for i in range(length - 2, -1, -1):
        # A bare test skips exactly one output instruction on its other
        # reply, so it stays bare only before a one-instruction block;
        # otherwise two jumps follow it.
        if sizes[i + 1] != 1 and type(ins[i]) in _TEST_KINDS:
            sizes[i] = 3
    starts = list(accumulate(sizes, initial=1))
    if starts[-1] - 1 > params.state_limit:
        # The tree size grows as 2^bits with bits from maxn: refuse before
        # emitting, with the limit that bounds the other constructions.
        raise InputError(
            f"dispatch output of {starts[-1] - 1} instructions exceeds the state limit "
            f"of {params.state_limit}"
        )

    jump = _Jumps()
    cells: dict[tuple, Instruction] = {}
    out: list[Instruction] = []
    add = out.append

    def cell(kind: type, register: int, bit: int, method: str) -> Instruction:
        key = (kind, register, bit, method)
        u = cells.get(key)
        if u is None:
            u = cells[key] = kind(BasicInstruction(f"{prefix}{register}b{bit}", method))
        return u

    def retarget(at: int, old_target: int) -> Instruction:
        # The jump at output position `at` to the block of source position
        # `old_target`, or a deadlock when there is no such position.
        if 1 <= old_target <= length:
            return jump[starts[old_target - 1] - at]
        return _DEADLOCK

    def tree(register: int, pos: int, sign: int, levels: int, high: int, at: int) -> None:
        # The decision tree at output position `at` over the low `levels`
        # bits of the register, whose higher bits are `high`.  The leaf of
        # value v jumps to source position pos + sign * v; value 0 deadlocks.
        if levels == 1:
            # Bit 0 unset proceeds to the even leaf; set, it skips to the odd.
            add(cell(NegTest, register, 0, "get"))
            for v in (high << 1, high << 1 | 1):
                at += 1
                add(retarget(at, pos + sign * v) if v else _DEADLOCK)
            return
        # The top bit set proceeds to a jump past the subtree where it is unset.
        one_start = at + 2 + _tree_size(levels - 1)
        add(cell(PosTest, register, levels - 1, "get"))
        add(jump[one_start - at - 1])
        tree(register, pos, sign, levels - 1, high << 1, at + 2)
        tree(register, pos, sign, levels - 1, high << 1 | 1, one_start)

    for pos, u, at, size in zip(range(1, length + 1), ins, starts, sizes):
        kind = type(u)
        if kind is RegSet:
            for bit in range(bits - 1, -1, -1):
                add(cell(Plain, u.register, bit, "set:T" if u.value >> bit & 1 else "set:F"))
        elif kind is IndFwdJump or kind is IndBwdJump:
            tree(u.register, pos, MOVES[kind][0], bits, 0, at)
        elif kind is FwdJump or kind is BwdJump:
            add(retarget(at, pos + MOVES[kind][0] * u.distance) if u.distance else u)
        else:
            add(u)
            if size == 3:
                add(retarget(at + 1, pos + 1))
                add(retarget(at + 2, pos + 2))

    assert len(out) == starts[-1] - 1, "blocks emitted as sized"
    relocation = RelocationMap(starts[:-1], sizes, lambda i: str(i + 1))
    return ProjectionReport(
        "dispatch", p, Program(tuple(out)), relocation, frozenset(u.basic for u in cells.values())
    )


def thread_jumps(p: Program) -> Program:
    """Retarget each direct jump to the end of its jump chain.

    Chains stop at the first non-jump instruction or at a jump that itself
    deadlocks (distance 0 or out-of-range target); jump cycles are left
    intact.  Length-preserving and idempotent.  Each position's chain end
    is resolved once, so the pass is linear in the length.  The output
    holds one jump object per nonzero distance, the input's own where it
    has one.
    """
    if not is_pglb(p):
        raise ValueError("thread_jumps expects a register-free program")
    src = p.instructions
    length = len(src)
    # Signed distance of the jump at each position, 0 for any other kind.
    fwd, bwd = MOVES[FwdJump][0], MOVES[BwdJump][0]
    dist = [0] + [
        fwd * u.distance if type(u) is FwdJump else bwd * u.distance if type(u) is BwdJump else 0
        for u in src
    ]
    # One input jump per distance, so the output shares them; distance 0
    # keys the other instructions.
    jump = _Jumps(zip(islice(dist, 1, None), src))
    jump.pop(0, None)
    # The position where the chain through each position ends: a non-jump
    # ends its own, -1 marks a chain that enters a cycle, 0 a jump not yet
    # resolved.
    end = [0 if d else pos for pos, d in enumerate(dist)]
    out = list(src)
    # Latest positions first, so a forward jump mostly finds its target
    # resolved.
    for pos in compress(range(length, 0, -1), reversed(dist)):
        d = dist[pos]
        t = pos + d
        if 1 <= t <= length and end[t] > 0:
            e = end[pos] = end[t]
            out[pos - 1] = jump[e - pos]
            continue
        # Walk to the first resolved position.  The walk is marked cyclic
        # as it goes: meeting it again closes a cycle, which every position
        # of the walk then enters.
        j = pos
        while not end[j]:
            t = j + dist[j]
            if not 1 <= t <= length:
                end[j] = j
                break
            end[j] = -1
            j = t
        # Every position of the walk takes the end it led to.
        e = end[j]
        i = pos
        while i != j:
            end[i] = e
            i += dist[i]
        # A deadlocking jump ends its own chain; a cyclic one keeps its
        # target.
        out[pos - 1] = jump[d if e < 0 or e == pos else e - pos]
    return Program(tuple(out))


#: Step budget of each checked run, further capped by the params limit.
#: Runs cut by it are inconclusive, never counterexamples.
CHECK_STEP_LIMIT = 4096


@dataclass(frozen=True)
class OracleSuite:
    """Exhaustive reply prefixes up to a branch depth, then seeded streams."""

    exhaustive_depth: int = 10
    seeds: tuple[int, ...] = (101, 102, 103, 104, 105)


@dataclass(frozen=True)
class Counterexample:
    oracle: str
    p_events: tuple[ObservableEvent, ...]
    q_events: tuple[ObservableEvent, ...]
    p_final: Status | None
    q_final: Status | None


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    counterexample: Counterexample | None
    checked: int
    inconclusive: int


def _oracle_runs(p: Program, q: Program, params: ToolParams, suite: OracleSuite):
    """(oracle label, p run, q run) for each oracle of the suite, in check
    order.  A run is (observable events, final status), the status None
    when the run waits for a reply its oracle does not have.

    The exhaustive oracles come from one depth-first walk over the joint
    reply tree of p and q, False before True, so in sorted order of their
    reply sequences.  At each node a side that waits for a reply runs on
    with the node's reply from where it stopped; a side that stopped above
    is carried along.  A node is an oracle where a side that reached it
    stops, and at the exhaustive depth.

    A seeded run's first replies follow a path of that tree, so it resumes
    from the deepest node of its path: a side that stopped at or above it
    keeps its result, and a waiting side runs on with the seed's stream
    from the node's depth, within the same step budget.
    """
    aux = params.aux
    budget = min(params.step_limit, CHECK_STEP_LIMIT)
    depth = suite.exhaustive_depth
    seeded = [Seeded(seed) for seed in suite.seeds]
    for oracle in seeded:
        oracle.supply(depth)
    # The nodes on the seeds' paths, and each side's state where the walk
    # met them.
    on_paths = {tuple(o.replies[:d]) for o in seeded for d in range(depth + 1)}
    kept = {}
    # A side is (observable events, final status, end configuration, steps).
    start = [((), None, initial_config(x, params, Scripted(())), 0) for x in (p, q)]
    stack = [((), start)]
    while stack:
        sigma, sides = stack.pop()
        now = []
        stopped = False
        for x, (obs, final, end, steps) in zip((p, q), sides):
            if final is None:
                cfg = MachineConfig(end.pc, end.registers, end.cells, Scripted(sigma[-1:]))
                events, final, end = execute(x, cfg, budget - steps)
                obs += observable_events(events, aux)
                steps += len(events)
                stopped = stopped or final is not None
            now.append((obs, final, end, steps))
        if sigma in on_paths:
            kept[sigma] = now
        deep = len(sigma) >= depth
        if stopped or deep:
            yield "exhaustive:" + "".join("T" if r else "F" for r in sigma), now[0][:2], now[1][:2]
        if not deep and (now[0][1] is None or now[1][1] is None):
            stack.append((sigma + (True,), now))
            stack.append((sigma + (False,), now))
    for oracle in seeded:
        path = tuple(oracle.replies[:depth])
        d = 0
        while d < depth and path[: d + 1] in kept:
            d += 1
        runs = []
        for x, (obs, final, end, steps) in zip((p, q), kept[path[:d]]):
            if final is None:
                cfg = MachineConfig(end.pc, end.registers, end.cells, oracle.at(d))
                events, final, _ = execute(x, cfg, budget - steps)
                obs += observable_events(events, aux)
            runs.append((obs, final))
        yield f"seeded:{oracle.seed}", runs[0], runs[1]


def check_equivalence(
    p: Program, q: Program, params: ToolParams, suite: OracleSuite
) -> Verdict:
    """Compare observable traces of p and q over the oracle suite.

    Runs cut by the step limit or waiting for a reply are inconclusive:
    their common observable prefix must still agree, but no verdict is
    drawn from the cut itself.  The first disagreement is reported.
    """
    require_valid(p, params)
    require_valid(q, params)
    stops = (Status.TERMINATED, Status.DEADLOCKED)
    checked = inconclusive = 0
    for label, (po, p_final), (qo, q_final) in _oracle_runs(p, q, params, suite):
        checked += 1
        if p_final in stops and q_final in stops:
            if po == qo and p_final == q_final:
                continue
        else:
            inconclusive += 1
            m = min(len(po), len(qo))
            if po[:m] == qo[:m]:
                continue
        cex = Counterexample(label, po, qo, p_final, q_final)
        return Verdict(False, cex, checked, inconclusive)
    return Verdict(True, None, checked, inconclusive)
