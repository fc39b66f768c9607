"""Independent reference implementations the tests compare the package with.

`tarjan_mid` is `compute_mid` as it was before the chain walk: one iterative
Tarjan SCC pass over the whole from-anchor region, with the weights decoded
once per program position.  `reference_state_graph` is `build_state_graph`
as it was before the rules were decoded once per instruction object: one
decoder call per program position.  `reference_execute` is `vm.execute`
as it was before each position was decoded once per run into a step rule:
one dispatch on the instruction type, and one `cell_reply` call, per step.
All three are kept unchanged as the references of the differential tests.

`brute_force_mid` enumerates runs to find the MID that the state graph
gives, and `replay_segment` replays a MID witness; both step through
`vm.step`.
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import replace

from pglblab.analyzer import (
    AuxPredicate,
    MidResult,
    StateGraph,
    StateLimitExceeded,
    StateNode,
    id_weight,
)
from pglblab.isa import (
    BwdJump,
    FwdJump,
    Halt,
    IndBwdJump,
    IndFwdJump,
    NegTest,
    Plain,
    PosTest,
    Program,
    RegSet,
    ToolParams,
    require_valid,
)
from pglblab.vm import MachineConfig, Scripted, Status, TraceEvent, cell_reply, step


# Successor rules of one program position, decoded once per build: no
# successor (halt or deadlock), one or two fixed pc steps, a register set,
# an indirect jump.
_STOP, _STEP, _TEST, _SET, _IND = range(5)
_NO_SUCCESSOR = (_STOP, 0, 0)


def _decode_test(pos: int, length: int, on_true: int, on_false: int):
    # The pc+2 branch needs pc+2 in the program, the pc+1 branch pc+1.
    if pos + 2 <= length:
        return (_TEST, on_true, on_false)
    return (_STEP, 1, 0) if pos < length else _NO_SUCCESSOR


#: type(u) -> (u, pos, length, place) -> (rule, a, b): the successors of
#: position `pos` as state-code deltas, or the register place value and
#: operand for _SET/_IND.  `place(i)` is register i's place value in the
#: state code.  An outcome that deadlocks is dropped.
_DECODERS = {
    Halt: lambda u, pos, length, place: _NO_SUCCESSOR,
    Plain: lambda u, pos, length, place: (_STEP, 1, 0) if pos < length else _NO_SUCCESSOR,
    PosTest: lambda u, pos, length, place: _decode_test(pos, length, 1, 2),
    NegTest: lambda u, pos, length, place: _decode_test(pos, length, 2, 1),
    FwdJump: lambda u, pos, length, place: (
        (_STEP, u.distance, 0) if 0 < u.distance <= length - pos else _NO_SUCCESSOR
    ),
    BwdJump: lambda u, pos, length, place: (
        (_STEP, -u.distance, 0) if 0 < u.distance < pos else _NO_SUCCESSOR
    ),
    RegSet: lambda u, pos, length, place: (
        (_SET, place(u.register), u.value) if pos < length else _NO_SUCCESSOR
    ),
    IndFwdJump: lambda u, pos, length, place: (_IND, place(u.register), 1),
    IndBwdJump: lambda u, pos, length, place: (_IND, place(u.register), -1),
}


def reference_state_graph(p: Program, params: ToolParams) -> StateGraph:
    require_valid(p, params)
    length = len(p)
    base = length + 1
    radix = params.maxn + 1
    limit = params.state_limit

    def place(register: int) -> int:
        return base * radix ** (register - 1)

    rules = [_NO_SUCCESSOR] + [
        _DECODERS[type(u)](u, pos, length, place) for pos, u in enumerate(p.instructions, 1)
    ]

    codes = [1]  # pc 1, all registers 0
    ids = {1: 0}
    ids_get = ids.get
    add_code = codes.append
    offsets = array("l", [0])
    add_offset = offsets.append
    targets = array("l")
    push = targets.append
    for code in codes:  # grows while iterated: a FIFO in discovery order
        pc = code % base
        r, a, b = rules[pc]
        if r == _STEP:
            t = code + a
        elif r == _TEST:
            t = code + a  # the first branch here, the second below
            j = ids_get(t)
            if j is None:
                j = ids[t] = len(codes)
                if j >= limit:
                    raise StateLimitExceeded(limit)
                add_code(t)
            push(j)
            t = code + b
        elif r == _SET:
            t = code + (b - code // a % radix) * a + 1
        elif r == _IND:
            d = code // a % radix * b
            t = code + d if d and 1 <= pc + d <= length else None
        else:
            t = None
        if t is not None:
            j = ids_get(t)
            if j is None:
                j = ids[t] = len(codes)
                if j >= limit:
                    raise StateLimitExceeded(limit)
                add_code(t)
            push(j)
        add_offset(len(targets))
    return StateGraph(p, params.maxr, radix, codes, offsets, targets)


def tarjan_mid(graph: StateGraph, aux: AuxPredicate) -> MidResult:
    """MID by one iterative Tarjan SCC pass over the from-anchor region.

    The region is every positive-weight state reachable from an anchor
    through positive-weight states.  A region state *closes* when it can
    reach an anchor inside the region; closing states are the interiors
    of run segments.  Tarjan (1972) finishes SCCs in reverse topological
    order, so each finished SCC sees its successors' results already set:

    * a non-trivial closing SCC is a positive cycle with anchors on both
      sides, so MID is unbounded;
    * a single state gets its longest interior weight to an anchor (the
      segment DP), the first maximum over successors in edge order.
    """
    base = len(graph.program) + 1
    wpc = [0] + [id_weight(u, aux) for u in graph.program.instructions]
    w = [wpc[c % base] for c in graph.codes]
    offsets, targets = graph.offsets, graph.targets
    node = graph.decoder()

    anchors = [i for i, x in enumerate(w) if not x]
    if not anchors:
        return MidResult(0, ())

    n = len(w)
    done = n + 1  # `low` of a state whose SCC is finished
    index = [0] * n  # DFS number, 0 = unvisited
    low = [0] * n
    best_from = [-1] * n  # segment DP; -1 = does not close
    best_next = [-1] * n
    counter = 0
    stack: list[int] = []
    canonical = n  # lowest state in a non-trivial closing SCC
    canonical_scc: list[int] = []

    for a in anchors:
        for root in targets[offsets[a]:offsets[a + 1]]:
            if not w[root] or index[root]:
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
                    if not w[t]:
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
                            low[v] = done
                            best = chosen = -1
                            for t in targets[offsets[v]:end]:
                                cand = best_from[t] if w[t] else 0
                                if cand > best:
                                    best, chosen = cand, t
                            if best >= 0:
                                best_from[v] = w[v] + best
                                best_next[v] = chosen
                        else:
                            pos = len(stack) - 1
                            while stack[pos] != v:
                                pos -= 1
                            scc = stack[pos:]
                            del stack[pos:]
                            # A cycle: MID is unbounded if it closes.
                            for x in scc:
                                low[x] = done
                            closes = any(
                                not w[t] or best_from[t] > 0
                                for x in scc
                                for t in targets[offsets[x]:offsets[x + 1]]
                            )
                            if closes:
                                for x in scc:
                                    best_from[x] = 1
                                if min(scc) < canonical:
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
        stem = _bfs_path(succ, anchors, c0.__eq__, w.__getitem__)
        exit_path = _bfs_path(succ, [c0], lambda t: not w[t], lambda t: best_from[t] > 0)
        return MidResult(
            None,
            decode(stem + cycle[1:] + [c0] + exit_path[1:]),
            stem=decode(stem),
            cycle=decode(cycle),
            exit_path=decode(exit_path),
        )

    mid = 0
    arg = None
    for a in anchors:
        for s in targets[offsets[a]:offsets[a + 1]]:
            if best_from[s] > mid:
                mid = best_from[s]
                arg = (a, s)
    if arg is None:
        witness = decode(anchors[:1])
    else:
        chain = list(arg)
        while w[chain[-1]]:
            chain.append(best_next[chain[-1]])
        witness = decode(chain)
    return MidResult(mid, witness)


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


def reference_execute(
    p: Program, cfg: MachineConfig, limit: int
) -> tuple[list[TraceEvent], Status | None, MachineConfig]:
    """Run from `cfg` for at most `limit` steps: the interpreter itself.

    Returns (events, final, end).  `final` is TERMINATED or DEADLOCKED when
    the run stopped on its own, STEP_LIMIT after `limit` steps, and None
    when a test needed a reply the oracle does not have; that test is not
    executed.  `end` is the configuration where the run stopped, with the
    oracle advanced past the replies it used.
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
    # One event object per position and reply: key pc for reply None or
    # True, -pc for False (a position's replies are all None or all bools).
    made: dict[int, TraceEvent] = {}
    final: Status | None = Status.STEP_LIMIT
    for _ in range(limit):
        u = ins[pc - 1]
        kind = type(u)
        key = pc
        reply = None
        if kind is Plain or kind is PosTest or kind is NegTest:
            basic = u.basic
            focus = basic.focus
            if focus in cells:
                cells[focus], reply = cell_reply(cells[focus], basic.method)
            elif kind is Plain:
                # A plain instruction proceeds as if True were produced.
                reply = True
            else:
                if index >= len(replies) and not oracle.supply(index + 1):
                    final = None
                    break
                reply = replies[index]
                index += 1
            if not reply:
                key = -pc
            # A test proceeds on True (+) or False (-) and skips one otherwise.
            target = pc + 1 if kind is Plain or (not reply) is (kind is NegTest) else pc + 2
        else:
            if kind is FwdJump:
                distance = u.distance
            elif kind is BwdJump:
                distance = -u.distance
            elif kind is RegSet:
                registers[u.register - 1] = u.value
                distance = 1
            elif kind is IndFwdJump:
                distance = registers[u.register - 1]
            elif kind is IndBwdJump:
                distance = -registers[u.register - 1]
            elif kind is Halt:
                distance = 0
            else:
                raise TypeError(f"not an instruction: {u!r}")
            # Distance 0 stops the run (a halt terminates, a zero jump
            # deadlocks); so does a target outside the program (deadlock).
            target = pc + distance if distance else 0
        event = made.get(key)
        if event is None:
            event = made[key] = TraceEvent(pc, u, reply)
        append(event)
        if not 1 <= target <= length:
            final = Status.TERMINATED if kind is Halt else Status.DEADLOCKED
            pc = 0
            break
        pc = target
    status = final if pc == 0 else Status.RUNNING
    return events, final, MachineConfig(pc, tuple(registers), cells, oracle.at(index), status)


def brute_force_mid(p: Program, params: ToolParams, depth: int) -> int:
    """Independent oracle: explore every reply sequence up to `depth` steps.

    Replies are fully nondeterministic (cell bindings ignored), matching the
    state-graph semantics.  Sound lower bound of the true MID; exact once
    `depth` exceeds the longest simple path of an acyclic state graph.
    Arriving at an already-explored (state, accumulation) with no more
    remaining steps is pruned — the continuations are a subset of what was
    already explored, so the result is that of the full enumeration.
    """
    require_valid(p, params)
    aux = params.aux
    # No cell bindings: every test reply is a free choice, as in the graph.
    initial = MachineConfig(1, (0,) * params.maxr, {}, Scripted(()))
    best = 0
    earliest: dict[tuple[int, tuple[int, ...], int, bool], int] = {}
    # DFS over the run tree: (config, steps, weight since last anchor, seen one)
    stack: list[tuple[MachineConfig, int, int, bool]] = [(initial, 0, 0, False)]
    while stack:
        cfg, steps, acc, opened = stack.pop()
        if cfg.status is not Status.RUNNING or steps >= depth:
            continue
        key = (cfg.pc, cfg.registers, acc, opened)
        prior = earliest.get(key)
        if prior is not None and prior <= steps:
            continue
        earliest[key] = steps
        u = p.instructions[cfg.pc - 1]
        w = id_weight(u, aux)
        if w == 0:
            if opened and acc > best:
                best = acc
            nacc, nopened = 0, True
        else:
            nacc, nopened = (acc + w if opened else 0), opened
        if isinstance(u, (PosTest, NegTest)):
            for r in (False, True):
                nxt, _ = step(p, replace(cfg, oracle=Scripted((r,))))
                stack.append((nxt, steps + 1, nacc, nopened))
        else:
            nxt, _ = step(p, cfg)
            stack.append((nxt, steps + 1, nacc, nopened))
    return best


def replay_segment(p: Program, params: ToolParams, nodes: tuple[StateNode, ...]) -> int:
    """Replay a witness through vm.step and return its interior weight sum.

    Raises AssertionError if the claimed node sequence is not a run segment.
    """
    assert nodes, "empty witness"
    for a, b in zip(nodes, nodes[1:]):
        u = p.instructions[a.pc - 1]
        replies: tuple[bool, ...] = ()
        if isinstance(u, PosTest):
            replies = (b.pc == a.pc + 1,)
        elif isinstance(u, NegTest):
            replies = (b.pc != a.pc + 1,)
        cfg = MachineConfig(a.pc, a.registers, {}, Scripted(replies))
        nxt, _ = step(p, cfg)
        assert nxt.status is Status.RUNNING, f"segment dies at {a}"
        assert (nxt.pc, nxt.registers) == (b.pc, b.registers), f"bad edge {a} -> {b}"
    return sum(id_weight(p.instructions[n.pc - 1], params.aux) for n in nodes[1:-1])
