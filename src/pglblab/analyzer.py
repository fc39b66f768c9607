"""Exact internal-delay analysis over the reachable machine-state graph.

Internal delay weighs each executed instruction: external (non-aux) basic
instructions and halt cost 0, direct jumps, register sets and aux basics
cost 1, indirect jumps cost 2.  The maximal internal delay (MID) of a
program is the largest total weight of a run segment closed between two
consecutive zero-weight occurrences ("anchors").

The state graph over-approximates runs by treating every test reply as
nondeterministic — Boolean-cell determinism is deliberately ignored, so the
analysis needs no service bindings.  The tests hold an independent
run-enumeration oracle over the same reply nondeterminism.

`compute_mid` resolves each state on a chain of single-successor states by
a memoised walk; only states at or upstream of a branching positive state
(an aux-marked test) reach its Tarjan SCC pass.
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Callable, NamedTuple

from .isa import (
    BASIC_KINDS,
    BasicInstruction,
    BwdJump,
    FwdJump,
    Halt,
    IndBwdJump,
    IndFwdJump,
    Instruction,
    MOVES,
    PglbError,
    Program,
    RegSet,
    ToolParams,
    per_object,
    require_valid,
)

AuxPredicate = Callable[[BasicInstruction], bool]


#: Weights that do not depend on the aux predicate.
_FIXED_WEIGHT = {FwdJump: 1, BwdJump: 1, RegSet: 1, IndFwdJump: 2, IndBwdJump: 2, Halt: 0}


def id_weight(u: Instruction, aux: AuxPredicate) -> int:
    """Internal-delay weight of one instruction occurrence."""
    w = _FIXED_WEIGHT.get(type(u))
    if w is not None:
        return w
    if type(u) in BASIC_KINDS:
        return 1 if aux(u.basic) else 0
    raise TypeError(f"not an instruction: {u!r}")


class StateNode(NamedTuple):
    pc: int
    registers: tuple[int, ...]


class StateLimitExceeded(PglbError, RuntimeError):
    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"state graph exceeds the configured limit of {limit} nodes")


# Successor rules: no successor (halt or deadlock), a fixed pc step whose
# target is checked per state, a test's two branches, a register set, an
# indirect jump.
_STOP, _STEP, _TEST, _SET, _IND = range(5)
_NO_SUCCESSOR = (_STOP, 0, 0)
_NEXT = (_STEP, 1, 0)


def _rule(u: Instruction, base: int, radix: int) -> tuple:
    """The successor rule of `u`: the state-code delta of each successor
    (its `MOVES` offsets), or the register's place value and the operand
    for _SET/_IND."""
    kind = type(u)
    a, b = MOVES[kind]
    if kind is FwdJump or kind is BwdJump:
        a = b = a * u.distance
    elif kind is RegSet:
        return (_SET, base * radix ** (u.register - 1), u.value)
    elif kind is IndFwdJump or kind is IndBwdJump:
        return (_IND, base * radix ** (u.register - 1), a)
    if not a:
        return _NO_SUCCESSOR
    return (_STEP, a, 0) if a == b else (_TEST, a, b)


@dataclass
class StateGraph:
    """Reachable closure from (pc=1, all registers 0), integer-coded.

    Node ids are dense, in BFS discovery order.  Node i is the state
    `codes[i] = regs_code * (len(program) + 1) + pc`, where `regs_code`
    holds the registers in base `radix` = maxn + 1, register 1 least
    significant.  Its successors are `targets[offsets[i]:offsets[i + 1]]`
    in branch order: a test lists on-true before on-false, and an outcome
    that deadlocks has no entry.
    """

    program: Program
    maxr: int
    radix: int
    codes: list[int]
    offsets: array
    targets: array

    @property
    def node_count(self) -> int:
        return len(self.codes)

    @property
    def edge_count(self) -> int:
        return len(self.targets)

    def pcs(self) -> list[int]:
        """The pc of every node, by id."""
        base = len(self.program) + 1
        return [c % base for c in self.codes]

    def successors(self, i: int) -> array:
        """Successor ids of node i, in branch order."""
        return self.targets[self.offsets[i]:self.offsets[i + 1]]

    def decoder(self) -> Callable[[int], StateNode]:
        """A function that decodes node i to its `StateNode`; it keeps the
        codes alive, not the graph."""
        codes, base, radix, maxr = self.codes, len(self.program) + 1, self.radix, self.maxr

        def node(i: int) -> StateNode:
            regs_code, pc = divmod(codes[i], base)
            regs = []
            for _ in range(maxr):
                regs_code, v = divmod(regs_code, radix)
                regs.append(v)
            return StateNode(pc, tuple(regs))

        return node


def build_state_graph(p: Program, params: ToolParams) -> StateGraph:
    require_valid(p, params)
    ins = p.instructions
    length = len(ins)
    base = length + 1
    radix = params.maxn + 1

    # Each distinct instruction object is decoded once, into one rule tuple
    # that all its positions share.
    rules = [_NO_SUCCESSOR] + per_object(ins, lambda u: _rule(u, base, radix))
    # An outcome past the last position deadlocks: a test at length - 1
    # keeps only its pc+1 branch, and a test or a register set at `length`
    # has no successor.  _STEP targets are checked per state.
    if length > 1 and rules[length - 1][0] == _TEST:
        rules[length - 1] = _NEXT
    if rules[length][0] in (_TEST, _SET):
        rules[length] = _NO_SUCCESSOR
    limit = params.state_limit
    codes = [1]  # pc 1, all registers 0
    claim = {1: 0}.setdefault  # code -> id, the next id for a new code
    size, edges = 1, 0
    add_code = codes.append
    offsets = array("l", [0])
    add_offset = offsets.append
    targets = array("l")
    push = targets.append
    for code in codes:  # grows while iterated: a FIFO in discovery order
        pc = code % base
        r, a, b = rules[pc]
        if r == _STEP:
            t = code + a if 0 < pc + a <= length else None
        elif r == _TEST:
            t = code + a  # the first branch here, the second below
            j = claim(t, size)
            if j == size:
                if size >= limit:
                    raise StateLimitExceeded(limit)
                size += 1
                add_code(t)
            push(j)
            edges += 1
            t = code + b
        elif r == _SET:
            t = code + (b - code // a % radix) * a + 1
        elif r == _IND:
            d = code // a % radix * b
            t = code + d if d and 1 <= pc + d <= length else None
        else:
            t = None
        if t is not None:
            j = claim(t, size)
            if j == size:
                if size >= limit:
                    raise StateLimitExceeded(limit)
                size += 1
                add_code(t)
            push(j)
            edges += 1
        add_offset(edges)
    return StateGraph(p, params.maxr, radix, codes, offsets, targets)


@dataclass(frozen=True)
class MidResult:
    """Outcome of the MID computation.

    `value` is the MID, or None when it is unbounded.  For a finite value,
    `witness` is a run segment (state sequence) with zero-weight endpoints
    achieving it, or empty when no anchor is reachable.  For an unbounded
    one, the (stem, cycle, exit_path) triple exhibits a positive-weight
    anchor-free cycle with anchors on both sides, and `witness` is one
    replayable pass: stem, one full cycle lap, exit.
    """

    value: int | None
    witness: tuple[StateNode, ...]
    stem: tuple[StateNode, ...] = ()
    cycle: tuple[StateNode, ...] = ()
    exit_path: tuple[StateNode, ...] = ()

    @property
    def text(self) -> str:
        """The value as printed: the number, or `unbounded`."""
        return "unbounded" if self.value is None else str(self.value)


#: `best_from` marks below -1 (does not close): a state the chain walk has
#: not reached, one on the walk in progress, one it leaves to the SCC pass.
_UNSEEN, _ON_WALK, _OPEN = -4, -3, -2


def compute_mid(graph: StateGraph, aux: AuxPredicate) -> MidResult:
    """MID by a chain walk, then one Tarjan SCC pass over what it leaves.

    The region is every positive-weight state reachable from an anchor
    through positive-weight states.  A region state *closes* when it can
    reach an anchor inside the region; closing states are the interiors
    of run segments, and each takes its longest interior weight to an
    anchor (the segment DP), the first maximum over successors in edge
    order.

    The walk resolves each positive state whose chain of single-successor
    states ends at an anchor, a dead end or a cycle (the last two do not
    close).  The rest are at or upstream of a positive state with two
    successors, which only an aux-marked test makes, and one iterative
    Tarjan (1972) SCC pass from the anchors covers them.  It finishes SCCs
    in reverse topological order, so each sees its successors' results:
    a non-trivial closing SCC is a positive cycle with anchors on both
    sides, so MID is unbounded; a single state gets the segment DP.
    """
    # Each distinct instruction object is weighed once.
    wpc = [0] + per_object(graph.program.instructions, lambda u: id_weight(u, aux))
    base = len(wpc)
    w = [wpc[c % base] for c in graph.codes]
    offsets, targets = graph.offsets, graph.targets
    node = graph.decoder()

    n = len(w)
    if 0 not in w:
        return MidResult(0, ())

    def anchors():
        # The zero-weight states in id order, afresh for each pass over them.
        return compress(range(n), map(not_, w))

    # Segment DP: an anchor is 0, a closing state its weight to an anchor,
    # -1 a state that does not close.
    best_from = [_UNSEEN if x else 0 for x in w]
    # Latest states first: BFS order puts most successors after their
    # predecessors, so most positive states find theirs resolved.
    open_states = False
    for v in range(n - 1, -1, -1):
        if best_from[v] != _UNSEEN:
            continue
        o = offsets[v]
        if offsets[v + 1] - o == 1 and best_from[targets[o]] >= 0:
            best_from[v] = w[v] + best_from[targets[o]]
            continue
        # Walk the chain to the first state that is not unseen, then set
        # the states walked, last first.
        chain = []
        j = v
        while (b := best_from[j]) == _UNSEEN:
            o = offsets[j]
            e = offsets[j + 1]
            if e - o != 1:
                b = best_from[j] = _OPEN if e > o else -1
                break
            best_from[j] = _ON_WALK
            chain.append(j)
            j = targets[o]
        if b >= 0:
            for x in reversed(chain):
                b = best_from[x] = b + w[x]
        else:
            # A dead end, a single-successor cycle, or a state left open.
            b = -1 if b == _ON_WALK else b
            for x in chain:
                best_from[x] = b
            open_states = open_states or b == _OPEN

    # The SCC pass: only states the walk left open take part, so it visits
    # none when nothing is open.
    index = [0] * n if open_states else []  # DFS number, 0 = unvisited
    low = index[:]
    best_next: dict[int, int] = {}  # the DP's choice at an open state
    counter = 0
    stack: list[int] = []
    canonical = n  # lowest state in a non-trivial closing SCC
    canonical_scc: list[int] = []
    for a in anchors() if open_states else ():
        for root in targets[offsets[a]:offsets[a + 1]]:
            if best_from[root] != _OPEN or index[root]:
                continue
            counter += 1
            index[root] = low[root] = counter
            stack.append(root)
            work = [(root, offsets[root])]
            while work:
                v, i = work[-1]
                end = offsets[v + 1]
                while i < end:
                    t = targets[i]
                    i += 1
                    # Only open states take part; the rest are final.
                    if best_from[t] != _OPEN:
                        continue
                    if not index[t]:
                        work[-1] = (v, i)
                        counter += 1
                        index[t] = low[t] = counter
                        stack.append(t)
                        work.append((t, offsets[t]))
                        break
                    if low[t] < low[v]:
                        low[v] = low[t]
                else:
                    work.pop()
                    if low[v] == index[v]:
                        # v roots an SCC.  Every rule moves the pc, so
                        # a state never succeeds itself: a lone state is
                        # acyclic and takes the segment DP.
                        if stack[-1] == v:
                            stack.pop()
                            best = chosen = -1
                            for t in targets[offsets[v]:end]:
                                if best_from[t] > best:
                                    best, chosen = best_from[t], t
                            best_from[v] = w[v] + best if best >= 0 else -1
                            best_next[v] = chosen
                        else:
                            pos = len(stack) - 1
                            while stack[pos] != v:
                                pos -= 1
                            scc = stack[pos:]
                            del stack[pos:]
                            # A cycle: MID is unbounded if it closes.
                            closes = any(
                                best_from[t] >= 0
                                for x in scc
                                for t in targets[offsets[x]:offsets[x + 1]]
                            )
                            for x in scc:
                                best_from[x] = 1 if closes else -1
                            if closes and min(scc) < canonical:
                                canonical, canonical_scc = min(scc), scc
                    if work:
                        u = work[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]

    def decode(ids) -> tuple[StateNode, ...]:
        return tuple(node(i) for i in ids)

    if canonical_scc:
        # The shortest cycle through c0, a stem to it from the anchors as
        # their region BFS first reaches it, and the shortest exit.
        c0 = canonical
        succ = graph.successors
        cycle = _bfs_path(succ, [c0], c0.__eq__, set(canonical_scc).__contains__)[:-1]
        stem = _bfs_path(succ, list(anchors()), c0.__eq__, w.__getitem__)
        exit_path = _bfs_path(succ, [c0], lambda t: not w[t], lambda t: best_from[t] > 0)
        return MidResult(
            None,
            decode(stem + cycle[1:] + [c0] + exit_path[1:]),
            stem=decode(stem),
            cycle=decode(cycle),
            exit_path=decode(exit_path),
        )

    # The first maximum over the anchors' successors.  No value exceeds
    # the largest of all, so the scan stops once it meets that.
    top = max(best_from)
    mid = 0
    arg = None
    for a in anchors():
        if mid == top:
            break
        for s in targets[offsets[a]:offsets[a + 1]]:
            if best_from[s] > mid:
                mid = best_from[s]
                arg = (a, s)
    if arg is None:
        witness = decode([w.index(0)])
    else:
        chain = list(arg)
        while w[x := chain[-1]]:
            chain.append(best_next.get(x, targets[offsets[x]]))
        witness = decode(chain)
    return MidResult(mid, witness)


def program_mid(p: Program, params: ToolParams) -> MidResult:
    """MID of p under params, from a state graph built for this call."""
    return compute_mid(build_state_graph(p, params), params.aux)


def _bfs_path(succ, sources, goal, allowed) -> list[int]:
    """Shortest path from a source through `allowed` states to the first
    `goal` state found, by BFS from the sources in order, edges in order."""
    prev = dict.fromkeys(sources)
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for t in succ(v):
            if goal(t):
                path = [t, v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            if allowed(t) and t not in prev:
                prev[t] = v
                queue.append(t)
    raise AssertionError("no path to a goal state")
