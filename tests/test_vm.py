import contextlib
import random
from dataclasses import replace
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    reference_execute,
    reference_line,
    reference_observable_events,
    reference_trace_text,
)

from pglblab.analyzer import build_state_graph
from pglblab.family import gen_scaling_family, gen_random
from pglblab.isa import (
    AuxSpec,
    BasicInstruction,
    BwdJump,
    Halt,
    InputError,
    InvalidProgram,
    NegTest,
    Plain,
    PosTest,
    Program,
    ToolParams,
    parse_program,
    render_instruction,
)
import pglblab.vm as vm
from pglblab.projector import dispatch_project, specialize, thread_jumps
from pglblab.vm import (
    MachineConfig,
    OracleExhausted,
    Scripted,
    Seeded,
    Status,
    Trace,
    UnknownCellMethod,
    bound_cell_foci,
    cell_reply,
    execute,
    initial_config,
    observable_steps,
    parse_oracle_script,
    run,
    step,
    trace_text,
)

P = ToolParams()


def positions(trace):
    return [ev.position for ev in trace.events]


# --- control flow of every instruction kind ---


def test_plain_always_proceeds_without_consuming_oracle():
    # An empty oracle proves plain basics never draw a reply.
    t = run(parse_program("f.m ; g.n ; !"), P, Scripted(()))
    assert t.final is Status.TERMINATED
    assert positions(t) == [1, 2, 3]
    assert [ev.reply for ev in t.events] == [True, True, None]


def test_pos_test_branches():
    p = parse_program("+f.m ; ! ; g.n ; !")
    t = run(p, P, Scripted((True,)))
    assert positions(t) == [1, 2] and t.final is Status.TERMINATED
    f = run(p, P, Scripted((False,)))
    assert positions(f) == [1, 3, 4] and f.final is Status.TERMINATED


def test_neg_test_branches():
    p = parse_program("-f.m ; ! ; g.n ; !")
    t = run(p, P, Scripted((False,)))
    assert positions(t) == [1, 2]
    f = run(p, P, Scripted((True,)))
    assert positions(f) == [1, 3, 4]


def test_scripted_oracle_exhaustion_raises():
    with pytest.raises(OracleExhausted):
        run(parse_program("+f.m ; ! ; !"), P, Scripted(()))


@pytest.mark.parametrize(
    "text",
    [
        "#0 ; !",  # distance-0 forward jump
        "\\#0 ; !",  # distance-0 backward jump
        "#9 ; !",  # target beyond the end
        "\\#5 ; !",  # target before position 1
        "f.m ; f.m",  # advancing past the last instruction
        "i#1 ; !",  # indirect jump through a never-set register
        "i\\#1 ; !",
        "set:1:9 ; i#1 ; !",  # indirect target beyond the end
    ],
)
def test_deadlock_clauses(text):
    p = parse_program(text)
    t = run(p, ToolParams(maxr=1, maxn=9), Scripted(()))
    assert t.final is Status.DEADLOCKED


def test_test_skip_off_end_deadlocks():
    t = run(parse_program("f.m ; +g.n"), P, Scripted((False,)))
    assert t.final is Status.DEADLOCKED
    assert positions(t) == [1, 2]


def test_register_set_and_indirect_jump():
    p = parse_program("set:1:2 ; i#1 ; ! ; !")
    t = run(p, ToolParams(maxr=1, maxn=2), Scripted(()))
    assert positions(t) == [1, 2, 4]
    assert t.final is Status.TERMINATED


def test_indirect_backward_jump():
    p = parse_program("set:1:2 ; f.m ; ! ; set:1:1 ; i\\#1 ; !")
    # Entry at 1 sets r1=2, f.m, halt: never reaches the tail.
    t = run(p, ToolParams(maxr=1, maxn=2), Scripted(()))
    assert positions(t) == [1, 2, 3]


def test_registers_start_at_zero_and_update_independently():
    p = parse_program("set:2:3 ; !")
    cfg = initial_config(p, ToolParams(maxr=2, maxn=3), Scripted(()))
    assert cfg.registers == (0, 0)
    nxt, _ = step(p, cfg)
    assert nxt.registers == (0, 3)


# --- Boolean cells ---


def test_cell_reply_laws():
    assert cell_reply(False, "set:T") == (True, True)
    assert cell_reply(True, "set:F") == (False, False)
    assert cell_reply(True, "get") == (True, True)
    assert cell_reply(False, "get") == (False, False)
    with pytest.raises(UnknownCellMethod):
        cell_reply(False, "run")


def test_cell_bound_focus_replies_deterministically():
    p = parse_program("bool1.set:T ; +bool1.get ; !")
    t = run(p, P, Scripted(()))  # cells never touch the oracle
    assert t.final is Status.TERMINATED
    assert [(ev.position, ev.reply) for ev in t.events] == [(1, True), (2, True), (3, None)]


def test_cell_initial_contents_default_false():
    p = parse_program("+bool1.get ; ! ; !")
    t = run(p, P, Scripted(()))
    assert positions(t) == [1, 3]


def test_cell_initial_contents_overridable():
    p = parse_program("+bool1.get ; ! ; !")
    t = run(p, ToolParams(cell_init=True), Scripted(()))
    assert positions(t) == [1, 2]


def test_unknown_cell_method_raises():
    p = parse_program("bool1.run ; !")
    # `run` validates first; `execute` refuses the method when it meets it.
    with pytest.raises(InvalidProgram):
        run(p, P, Scripted(()))
    with pytest.raises(UnknownCellMethod):
        execute(p, initial_config(p, P, Scripted(())), 10)


def test_auto_cell_binding_matches_bool_digits_only():
    p = parse_program("bool1.get ; bool22.get ; boolean.m ; fbool1.m ; !")
    assert bound_cell_foci(p, P) == {"bool1", "bool22"}


def test_explicit_cell_foci_replace_auto_binding():
    p = parse_program("+bool1.get ; ! ; !")
    routed = ToolParams(cell_foci=frozenset())
    # bool1 now consults the oracle instead of a cell.
    t = run(p, routed, Scripted((True,)))
    assert positions(t) == [1, 2]
    bound = ToolParams(cell_foci=frozenset({"x"}))
    p2 = parse_program("x.set:T ; +x.get ; !")
    t2 = run(p2, bound, Scripted(()))
    assert t2.final is Status.TERMINATED


# --- the selection family under a scripted environment ---


def test_family_first_branch_pair_selected_by_two_trues():
    p, params = gen_scaling_family(1)
    params = replace(params, cell_foci=frozenset())  # route bool1 to the oracle
    t = run(p, params, Scripted((True, True)))
    assert t.final is Status.TERMINATED
    foci = [ev.focus for ev in reference_observable_events(t.events, params.aux)]
    assert foci == ["bool1", "bool1", "a1", "ap1"]


def test_family_all_false_halts_in_first_chunk():
    p, params = gen_scaling_family(1)
    params = replace(params, cell_foci=frozenset())
    t = run(p, params, Scripted((False, False)))
    assert t.final is Status.TERMINATED
    obs = reference_observable_events(t.events, params.aux)
    assert [ev.focus for ev in obs] == ["bool1", "bool1"]


def test_family_under_default_binding_is_deterministic():
    # bool1 auto-binds to a cell holding False: no oracle replies needed.
    t = run(*gen_scaling_family(2), Scripted(()))
    assert t.final is Status.TERMINATED


# --- limits, determinism, serialization ---


def test_step_limit_reports_and_bounds_events():
    p = parse_program("f.m ; \\#1")
    t = run(p, ToolParams(step_limit=10), Seeded(0))
    assert t.final is Status.STEP_LIMIT
    assert len(t.events) == 10


def test_seeded_oracle_is_deterministic():
    p = parse_program("+f.m ; \\#1 ; +g.n ; ! ; !")
    a = run(p, ToolParams(step_limit=50), Seeded(7))
    b = run(p, ToolParams(step_limit=50), Seeded(7))
    assert a == b
    c = run(p, ToolParams(step_limit=50), Seeded(8))
    d = run(p, ToolParams(step_limit=50), Seeded(8))
    assert c == d


def test_observable_trace_filters_aux_and_non_basics():
    p = parse_program("aux1.m ; f.m ; #2 ; ! ; !")
    params = ToolParams(aux=AuxSpec.parse("aux1.*"))
    t = run(p, params, Scripted(()))
    obs = reference_observable_events(t.events, params.aux)
    assert [(ev.focus, ev.method, ev.reply) for ev in obs] == [("f", "m", True)]
    assert t.final is Status.TERMINATED


def test_trace_text_golden():
    t = run(parse_program("bool1.set:T ; +bool1.get ; !"), P, Scripted(()))
    assert trace_text(t) == (
        "1 bool1.set:T reply=T\n"
        "2 +bool1.get reply=T\n"
        "3 !\n"
        "status=Terminated\n"
    )


def test_trace_text_jump_lines_have_no_reply():
    t = run(parse_program("#2 ; ! ; !"), P, Scripted(()))
    assert trace_text(t) == "1 #2\n3 !\nstatus=Terminated\n"


def test_parse_oracle_script():
    s = parse_oracle_script("T\nF\n\n  T \n")
    assert s.replies == (True, False, True)
    with pytest.raises(ValueError):
        parse_oracle_script("T\nmaybe\n")


def test_run_rejects_invalid_programs():
    with pytest.raises(ValueError):
        run(parse_program("set:5:1 ; !"), ToolParams(maxr=2), Scripted(()))


# --- property: every run settles into one of the three final statuses ---


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 14))
def test_random_programs_always_settle(seed, length):
    params = ToolParams(maxr=2, maxn=3, step_limit=300)
    p = gen_random(seed, length, params)
    t = run(p, params, Seeded(seed))
    assert t.final in (Status.TERMINATED, Status.DEADLOCKED, Status.STEP_LIMIT)
    assert len(t.events) <= 300
    # Event positions always lie inside the program.
    assert all(1 <= ev.position <= length for ev in t.events)


# --- one interpreter: run equals a step-by-step replay through vm.step ---


def replay_by_step(p, params, oracle):
    """Reference run: one vm.step call per instruction."""
    cfg = initial_config(p, params, oracle)
    events = []
    for _ in range(params.step_limit):
        cfg, event = step(p, cfg)
        events.append(event)
        if cfg.status is not Status.RUNNING:
            return Trace(tuple(events), cfg.status)
    return Trace(tuple(events), Status.STEP_LIMIT)


def outcome(runner, p, params, oracle):
    try:
        return runner(p, params, oracle)
    except OracleExhausted as e:
        return ("exhausted", str(e))


_CELL_METHODS = ("get", "set:T", "set:F")


def with_cells(p: Program, rng: random.Random) -> Program:
    """`p` with focus h turned into the Boolean cell bool1."""
    out = []
    for u in p.instructions:
        if type(u) in (Plain, PosTest, NegTest) and u.basic.focus == "h":
            u = type(u)(BasicInstruction("bool1", rng.choice(_CELL_METHODS)))
        out.append(u)
    return Program(tuple(out))


@pytest.mark.parametrize("cells", [False, True])
@pytest.mark.parametrize("aux", ["", "f.*"])
def test_run_equals_step_by_step_replay(cells, aux):
    params = ToolParams(maxr=2, maxn=3, aux=AuxSpec.parse(aux), step_limit=120)
    rng = random.Random(5)
    exhausted = 0
    for seed in range(150):
        p = gen_random(seed, 4 + seed % 9, params)
        if cells:
            p = with_cells(p, rng)
        script = Scripted(tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 6))))
        for oracle in (Seeded(seed), script):
            got = outcome(run, p, params, oracle)
            assert got == outcome(replay_by_step, p, params, oracle), (seed, str(p))
            exhausted += isinstance(got, tuple)
            if not isinstance(got, tuple):
                ref = replay_by_step(p, params, oracle)
                assert reference_observable_events(
                    got.events, params.aux
                ) == reference_observable_events(ref.events, params.aux)
                assert got.final == ref.final
    assert exhausted > 0  # the short scripts do run out


# --- differential: trace_text against a line rendered per event ---


def assert_same_text(p, cfg, limit):
    """`execute`'s events carry the reference line of each event, and,
    where the run does not wait for a reply, `trace_text` of them is the
    reference text of `reference_execute`'s run."""
    events, final, _ = execute(p, cfg, limit)
    assert [e.line for e in events] == [reference_line(*e[:3]) for e in events], str(p)
    ref_events, ref_final, _ = reference_execute(p, cfg, limit)
    if final is not None:
        text = trace_text(Trace(tuple(events), final))
        assert text == reference_trace_text(ref_events, ref_final), (str(p), limit)
    return final


@pytest.mark.parametrize("limit", [0, 1, 120])
@pytest.mark.parametrize("cells", [False, True])
def test_trace_text_matches_the_reference(cells, limit):
    params = ToolParams(maxr=2, maxn=3)
    rng = random.Random(23)
    finals = set()
    for seed in range(150):
        p = gen_random(seed, 4 + seed % 9, params)
        if cells:
            p = with_cells(p, rng)
        script = Scripted(tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 6))))
        for oracle in (Seeded(seed), script):
            finals.add(assert_same_text(p, initial_config(p, params, oracle), limit))
    assert Status.STEP_LIMIT in finals and (limit == 0 or None in finals)


# --- differential: execute against the per-step reference interpreter ---


def execute_outcome(interpreter, p, cfg, limit):
    """(comparable result, end configuration or None) of one call."""
    try:
        events, final, end = interpreter(p, cfg, limit)
    except UnknownCellMethod as e:
        return ("raised", str(e)), None
    # One event object per position and outcome within a call.
    assert len(set(map(id, events))) == len({(e.position, e.reply) for e in events})
    shown = [(e.position, render_instruction(e.instruction), e.reply) for e in events]
    state = (end.pc, end.registers, list(end.cells.items()), end.status, end.oracle._index)
    return (shown, final, state), end


def assert_same_runs(p, cfg, limit, most=40) -> list:
    """`execute` and `reference_execute` agree from `cfg` and, since
    `execute` resumes from its own end configurations, from every running
    configuration either returns: a step-limit cut runs on with its own
    oracle, a waiting run with a fresh one-reply script of each reply.
    Stops after `most` calls.  Returns the outcomes."""
    pending = [cfg]
    outcomes = []
    while pending and len(outcomes) < most:
        cfg = pending.pop()
        got, end = execute_outcome(execute, p, cfg, limit)
        assert got == execute_outcome(reference_execute, p, cfg, limit)[0], (str(p), cfg, limit)
        outcomes.append(got)
        if end is None or end.status is not Status.RUNNING:
            continue
        if got[1] is None:
            pending += [replace(end, oracle=Scripted((r,))) for r in (False, True)]
        else:
            pending.append(end)
    return outcomes


def with_cell_methods(p: Program, rng: random.Random) -> Program:
    """`p` with some basic instructions turned into cell requests, focus h
    sometimes renamed bool1, so every binding below meets get, set:T,
    set:F and, on a bound focus, the unknown methods m and n."""
    out = []
    for u in p.instructions:
        if type(u) in (Plain, PosTest, NegTest) and rng.random() < 0.7:
            focus = "bool1" if u.basic.focus == "h" and rng.random() < 0.5 else u.basic.focus
            u = type(u)(BasicInstruction(focus, rng.choice(_CELL_METHODS)))
        out.append(u)
    return Program(tuple(out))


_BINDINGS = (None, frozenset(), frozenset({"f"}), frozenset({"bool1", "g", "h"}))


def test_execute_matches_the_reference_interpreter():
    rng = random.Random(13)
    outcomes = []
    for seed in range(160):
        params = ToolParams(maxr=1 + seed % 3, maxn=1 + seed % 5)
        p = with_cell_methods(gen_random(seed, 1 + seed % 16, params), rng)
        for cells in _BINDINGS:
            for cell_init in (False, True):
                run_params = replace(params, cell_foci=cells, cell_init=cell_init)
                script = Scripted(tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 4))))
                for oracle in (Seeded(seed), script):
                    cfg = initial_config(p, run_params, oracle)
                    for limit in (1, 2, 9, 400):
                        outcomes += assert_same_runs(p, cfg, limit)
    finals = [final for _, final, *state in outcomes if state]
    assert len(outcomes) > 20_000 and len(outcomes) - len(finals) > 500
    assert set(finals) == {None, Status.TERMINATED, Status.DEADLOCKED, Status.STEP_LIMIT}


def service_loop(p: Program) -> Program:
    """Each `!` at position i turned into a jump back to position 1."""
    return Program(tuple(
        BwdJump(i) if type(u) is Halt else u for i, u in enumerate(p.instructions)
    ))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_execute_matches_the_reference_on_service_loops(k):
    p, family_params = gen_scaling_family(k)
    p = service_loop(p)
    for cells in (None, frozenset()):
        params = replace(family_params, cell_foci=cells)
        report = dispatch_project(p, params)
        for program, run_params in (
            (p, params),
            (specialize(build_state_graph(p, params)).output, params),
            (report.output, report.output_params(params)),
        ):
            for seed in (71, 72):
                cfg = initial_config(program, run_params, Seeded(seed))
                got, _ = execute_outcome(execute, program, cfg, 10_000)
                assert got == execute_outcome(reference_execute, program, cfg, 10_000)[0]
                assert len(got[0]) == 10_000 and got[1] is Status.STEP_LIMIT


# --- reply-free cycles: fast-forwarded by whole laps ---

#: The `corpus` benchmark's five programs that loop before their first
#: reply (maxr 2, maxn 3), then hand-made ones: the shortest such loop, a
#: lap of two passes that toggles a bound cell, a lap holding an unbound
#: plain instruction, observable but needing no reply, and a lap shorter
#: than the program whose indirect jump lands past the lap's length.
LOOPERS = (
    "set:1:1 ; \\#1 ; \\#5 ; -h.n ; ! ; set:2:2",
    "-bool1.get ; set:2:1 ; set:1:2 ; set:2:1 ; \\#3 ; set:1:3",
    "set:2:3 ; \\#1 ; +f.m ; \\#1",
    "set:1:1 ; i\\#1 ; ! ; set:2:3 ; +h.n ; -g.m ; h.m",
    "set:2:1 ; i\\#2 ; +f.n ; -f.n ; #0 ; \\#3 ; #1",
    "set:1:1 ; i\\#1 ; !",
    "+bool1.get ; #3 ; bool1.set:T ; \\#3 ; bool1.set:F ; \\#5",
    "+g.n ; f.m ; set:1:1 ; \\#2",
    "set:1:3 ; i#1 ; ! ; ! ; \\#4",
)


def looper_runs():
    """(name, program, params) for each looper and its two projections."""
    params = ToolParams(maxr=2, maxn=3)
    for text in LOOPERS:
        p = parse_program(text)
        threaded = thread_jumps(specialize(build_state_graph(p, params)).output)
        report = dispatch_project(p, params)
        yield text, p, params
        yield text + " (specialize)", threaded, params
        yield text + " (dispatch)", report.output, report.output_params(params)


def lap_of(events) -> int:
    """The period of a run's last 1,000 events, which repeat."""
    tail = list(map(id, events[-1000:]))
    return next(n for n in range(1, 500) if tail[n:] == tail[:-n])


def first_detection(p, cfg, laps) -> int:
    """The least limit at which `execute` finds a state coming back."""
    for limit in count(1):
        seen = len(laps)
        execute(p, cfg, limit)
        if len(laps) > seen:
            return limit


def test_reply_free_cycles_match_the_reference(monkeypatch):
    laps = []
    real_cycle = vm.cycle
    monkeypatch.setattr(vm, "cycle", lambda lap: laps.append(len(lap)) or real_cycle(lap))
    for name, p, params in looper_runs():
        cfg = initial_config(p, params, Seeded(3))
        events, final, _ = reference_execute(p, cfg, 4096)
        assert final is Status.STEP_LIMIT, name
        assert assert_same_text(p, cfg, 4096) is Status.STEP_LIMIT, name
        first = first_detection(p, cfg, laps)
        lap = laps[-1]
        assert lap % lap_of(events) == 0, name
        # Every limit up to 40, and limits around the first detection and
        # whole laps after it; each run resumed from its own end configuration.
        limits = set(range(1, 40)) | {4096} | {
            first + k * lap + d for k in (0, 1, 2, 7, 64) for d in (-1, 0, 1)
        }
        for limit in sorted(limits):
            outcomes = assert_same_runs(p, cfg, limit, 8 if limit < 300 else 2)
            assert outcomes[0][1] is Status.STEP_LIMIT, (name, limit)


def closed_events(p, params, replies, count):
    """The first `count` observable events of `observable_steps` on `p`,
    each oracle test answered by the next of `replies`, and the closed
    state after them."""
    state, after = observable_steps(p, params)
    replies = iter(replies)
    events = []
    while len(events) < count and type(state) is not Status:
        reads, outcomes = after(state)
        event, state = outcomes[next(replies) if reads else True]
        events.append(event)
    return tuple(events), state


@pytest.mark.parametrize("aux", ["", "f.*", "*.m"])
def test_observable_events_match_a_per_event_projection(aux):
    # The closed runs of `observable_steps`, fed the replies a run read,
    # make the events a per-event projection of that run shows, and stop
    # as it stops.  A closed run that diverges is one the run cut at its
    # step limit.
    aux = AuxSpec.parse(aux)
    rng = random.Random(17)
    cases = [(p, replace(params, aux=aux, step_limit=4096), 5) for _, p, params in looper_runs()]
    for seed in range(200):
        params = ToolParams(maxr=2, maxn=3, step_limit=60, aux=aux)
        p = with_cell_methods(gen_random(seed, 1 + seed % 12, params), rng)
        cases += [(p, replace(params, cell_foci=cells), seed) for cells in _BINDINGS]
    ends = []
    for p, params, seed in cases:
        # An aux-marked test on an unbound focus is refused by the closure.
        with contextlib.suppress(InvalidProgram, InputError):
            oracle = Seeded(seed)
            trace = run(p, params, oracle)
            shown = reference_observable_events(trace.events, aux)
            events, end = closed_events(p, params, oracle.replies, len(shown))
            assert events == shown, (str(p), params)
            if trace.final is not Status.STEP_LIMIT:
                assert end is trace.final, (str(p), params)
            ends.append(end if type(end) is Status else Status.RUNNING)
    assert {Status.TERMINATED, Status.DEADLOCKED, Status.DIVERGES, Status.RUNNING} <= set(ends)


def test_oracle_exhausted_message_counts_used_replies():
    p = parse_program("+f.m ; +g.n ; +h.m ; !")
    with pytest.raises(OracleExhausted, match="^scripted oracle exhausted after 2 replies$"):
        run(p, P, Scripted((True, True)))
    cfg = initial_config(p, P, Scripted((True,)))
    cfg, _ = step(p, cfg)
    with pytest.raises(OracleExhausted, match="^scripted oracle exhausted after 1 replies$"):
        step(p, cfg)


def test_step_leaves_its_input_configuration_unchanged():
    p = parse_program("bool1.set:T ; set:1:2 ; +f.m ; !")
    cfg = initial_config(p, ToolParams(maxr=1, maxn=2), Scripted((False,)))
    first, _ = step(p, cfg)
    second, _ = step(p, first)
    assert cfg.cells == {"bool1": False} and first.cells == {"bool1": True}
    assert first.registers == (0,) and second.registers == (2,)
    third, event = step(p, second)
    assert event.reply is False and third.pc == 0 and third.status is Status.DEADLOCKED
    assert second.oracle._index == 0 and third.oracle._index == 1


def test_step_rejects_a_non_instruction():
    cfg = MachineConfig(1, (0,), {}, Scripted(()))
    with pytest.raises(TypeError, match="^not an instruction: 'f.m'$"):
        step(Program(("f.m",)), cfg)


@pytest.mark.parametrize("pc", [0, -1, 3])
def test_step_rejects_a_position_outside_the_program(pc):
    p = parse_program("f.m ; !")
    cfg = MachineConfig(pc, (0, 0), {}, Scripted(()))
    with pytest.raises(IndexError, match=f"position {pc} out of range"):
        step(p, cfg)
