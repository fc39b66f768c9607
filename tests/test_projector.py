import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from pglblab.analyzer import StateNode, build_state_graph, compute_mid, program_mid
from pglblab.family import gen_random, gen_scaling_family
from pglblab.isa import (
    AuxSpec,
    BwdJump,
    FwdJump,
    Halt,
    NegTest,
    Plain,
    PosTest,
    Program,
    ToolParams,
    is_pglb,
    parse_program,
    render_program,
)
import pglblab.projector as projector
from pglblab.projector import (
    CHECK_STEP_LIMIT,
    Counterexample,
    OracleSuite,
    Verdict,
    check_equivalence,
    dispatch_project,
    specialize,
    thread_jumps,
)
from pglblab.vm import (
    MachineConfig,
    OracleExhausted,
    Scripted,
    Seeded,
    Status,
    execute,
    initial_config,
    observable_events,
    step,
)

P11 = ToolParams(maxr=1, maxn=1)
P12 = ToolParams(maxr=1, maxn=2)
P23 = ToolParams(maxr=2, maxn=3)

#: PGLB-only draw weights for gen_random.
PGLB_WEIGHTS = {
    "plain": 4,
    "pos_test": 3,
    "neg_test": 2,
    "fwd_jump": 3,
    "bwd_jump": 2,
    "halt": 2,
}


def equivalent(p, q, params, depth=10):
    return check_equivalence(p, q, params, OracleSuite(exhaustive_depth=depth))


def specialize_program(p, params):
    return specialize(build_state_graph(p, params))


def relocation_blocks(report):
    """(new start, new length) per old key, in key order."""
    return list(zip(report.relocation.starts, report.relocation.sizes))


# --- specialize ---


def test_specialize_resolves_register_use_to_direct_jumps():
    report = specialize(build_state_graph(parse_program("set:1:1 ; i#1 ; !"), P11))
    assert render_program(report.output) == "#1 ; #1 ; !"
    assert report.mode == "specialize"
    assert report.length_before == 3
    assert report.length_after == 3
    assert report.aux_introduced == frozenset()


def test_specialize_emits_reachable_states_only():
    # The halt is unreachable behind the never-set register.
    report = specialize(build_state_graph(parse_program("i#1 ; !"), P11))
    assert render_program(report.output) == "#0"


def test_specialize_pos_test_block():
    graph = build_state_graph(parse_program("+f.m ; ! ; #0"), P11)
    report = specialize(graph)
    assert render_program(report.output) == "+f.m ; #2 ; #2 ; ! ; #0"
    blocks = relocation_blocks(report)
    node = graph.decoder()
    assert {node(i): block for i, block in enumerate(blocks)} == {
        StateNode(1, (0,)): (1, 3),
        StateNode(2, (0,)): (4, 1),
        StateNode(3, (0,)): (5, 1),
    }


def test_specialize_neg_test_block_slots_follow_reply_routing():
    # Blocks are laid out in discovery order (the True branch of a negative
    # test first); the slots still route False to the old pc+1.
    report = specialize(build_state_graph(parse_program("-f.m ; ! ; #0"), P11))
    assert render_program(report.output) == "-f.m ; #3 ; #1 ; #0 ; !"
    p = parse_program("-f.m ; ! ; #0")
    assert equivalent(p, report.output, P11).equivalent


def test_specialize_deadlock_branches_become_distance_zero_jumps():
    report = specialize(build_state_graph(parse_program("+f.m ; !"), P11))
    # False lands past the end: slot 2 deadlocks just like the original.
    assert render_program(report.output) == "+f.m ; #2 ; #0 ; !"


def test_specialize_output_is_register_free():
    p = parse_program("set:2:3 ; i#1 ; set:1:2 ; i\\#2 ; f.m ; !")
    report = specialize(build_state_graph(p, P23))
    assert is_pglb(report.output)


def test_specialize_relocation_partitions_output():
    p = parse_program("set:1:2 ; +f.m ; i#1 ; g.n ; !")
    report = specialize(build_state_graph(p, P12))
    at = 1
    for start, size in sorted(relocation_blocks(report)):
        assert start == at
        at += size
    assert at == report.length_after + 1


def test_specialize_unfolds_register_states():
    # Same position reached with two register values becomes two blocks.
    p = parse_program("+f.m ; #3 ; set:1:1 ; set:1:2 ; i#1 ; ! ; !")
    report = specialize(build_state_graph(p, P12))
    rows = report.relocation.to_csv().splitlines()[1:]
    pcs = [int(row.split(":")[0]) for row in rows]
    assert pcs.count(5) == 2
    assert equivalent(p, report.output, P12).equivalent


def test_specialize_keeps_mid_flat_without_aux():
    for seed in range(60):
        p = gen_random(seed, 3 + seed % 10, P23)
        graph = build_state_graph(p, P23)
        report = specialize(graph)
        before = compute_mid(graph, P23.aux).value
        after = program_mid(report.output, P23).value
        if before is None:
            assert after is None, (seed, str(p))
        else:
            assert after is not None and after <= before + 1, (seed, str(p))


def test_specialize_relocation_csv_uses_state_keys():
    report = specialize(build_state_graph(parse_program("+f.m ; ! ; #0"), P11))
    assert report.relocation.to_csv() == (
        "old_key,new_start,new_len\n1:0,1,3\n2:0,4,1\n3:0,5,1\n"
    )


# --- dispatch ---


def test_dispatch_single_bit_golden():
    report = dispatch_project(parse_program("set:1:1 ; i#1 ; ! ; !"), P11)
    assert render_program(report.output) == "r1b0.set:T ; -r1b0.get ; #0 ; #1 ; ! ; !"
    assert report.mode == "dispatch"
    assert report.aux_foci == {"r1b0"}


def test_dispatch_two_bit_tree_golden():
    report = dispatch_project(parse_program("set:1:2 ; i#1 ; ! ; !"), P12)
    assert render_program(report.output) == (
        "r1b1.set:T ; r1b0.set:F ; "
        "+r1b1.get ; #4 ; -r1b0.get ; #0 ; #4 ; -r1b0.get ; #3 ; #0 ; "
        "! ; !"
    )


def test_dispatch_relocation_uses_positions():
    report = dispatch_project(parse_program("set:1:2 ; i#1 ; ! ; !"), P12)
    assert report.relocation.to_csv().splitlines()[1:] == ["1,1,2", "2,3,8", "3,11,1", "4,12,1"]


def test_dispatch_test_copied_bare_before_unit_block():
    report = dispatch_project(parse_program("+f.m ; ! ; !"), P11)
    assert render_program(report.output) == "+f.m ; ! ; !"


def test_dispatch_test_expanded_before_wide_block():
    report = dispatch_project(parse_program("+f.m ; set:1:1 ; !"), P12)
    assert render_program(report.output) == "+f.m ; #2 ; #3 ; r1b1.set:F ; r1b0.set:T ; !"
    p = parse_program("+f.m ; set:1:1 ; !")
    assert equivalent(p, report.output, report.output_params(P12)).equivalent


def test_dispatch_out_of_range_jumps_normalize_to_deadlock():
    report = dispatch_project(parse_program("#7 ; set:1:1 ; !"), P11)
    assert render_program(report.output) == "#0 ; r1b0.set:T ; !"


def test_dispatch_is_identity_on_register_free_in_range_programs():
    for seed in range(40):
        p = gen_random(seed, 2 + seed % 9, P23, weights=PGLB_WEIGHTS)
        length = len(p)
        clamped = []
        for pos, u in enumerate(p.instructions, start=1):
            if isinstance(u, FwdJump) and pos + u.distance > length:
                u = FwdJump(0)
            elif isinstance(u, BwdJump) and pos - u.distance < 1:
                u = BwdJump(0)
            clamped.append(u)
        q = parse_program(render_program(type(p)(tuple(clamped))))
        report = dispatch_project(q, P23)
        assert report.output == q, (seed, str(q))


def test_dispatch_fresh_cell_prefix_avoids_collisions():
    p = parse_program("r1b0.get ; set:1:1 ; i#1 ; !")
    report = dispatch_project(p, P11)
    assert report.aux_foci == {"rr1b0"}
    assert equivalent(p, report.output, report.output_params(P11)).equivalent


def test_dispatch_length_bound():
    # Worst per-block expansion: the b-bit decision tree (5·2^(b-1) - 2),
    # never below the 3-instruction test block.  The coarser closed form
    # 2^(b+1)+b+1 over-approximates it for b <= 3 only.
    for maxn, seeds in ((1, 40), (3, 40), (7, 30), (15, 20), (31, 20)):
        params = ToolParams(maxr=2, maxn=maxn)
        b = maxn.bit_length()
        worst = max(3, b, 5 * 2 ** (b - 1) - 2)
        for seed in range(seeds):
            p = gen_random(seed, 2 + seed % 10, params)
            report = dispatch_project(p, params)
            assert report.length_after <= report.length_before * worst
            if b <= 3:
                assert report.length_after <= report.length_before * (2 ** (b + 1) + b + 1)


def test_dispatch_maxn_comes_from_params_not_program():
    # Same program, wider machine: more bits per register.
    p = parse_program("set:1:1 ; i#1 ; ! ; !")
    narrow = dispatch_project(p, P11)
    wide = dispatch_project(p, ToolParams(maxr=1, maxn=3))
    assert narrow.length_after < wide.length_after
    assert wide.aux_foci == {"r1b0", "r1b1"}


def test_dispatch_mid_grows_with_bit_width():
    p = parse_program("f.m ; set:1:1 ; i#1 ; f.m ; !")
    mids = []
    for maxn in (1, 3, 7, 15):
        params = ToolParams(maxr=1, maxn=maxn)
        report = dispatch_project(p, params)
        mids.append(program_mid(report.output, report.output_params(params)).value)
    assert mids == sorted(mids)
    assert mids[-1] > mids[0]


# --- both projections against the interpreter ---


def test_projections_preserve_observable_behavior_on_random_programs():
    for seed in range(80):
        p = gen_random(7000 + seed, 3 + seed % 10, P23)
        for proj in (specialize_program, dispatch_project):
            report = proj(p, P23)
            assert is_pglb(report.output)
            verdict = equivalent(p, report.output, report.output_params(P23))
            assert verdict.equivalent, (seed, proj.__name__, verdict.counterexample)


def test_projection_reports_record_lengths():
    p = parse_program("set:1:2 ; i#1 ; ! ; !")
    for proj in (specialize_program, dispatch_project):
        report = proj(p, P12)
        assert report.length_before == 4
        assert report.length_after == len(report.output)
        summary = report.summary(program_mid(p, P12), program_mid(report.output, report.output_params(P12)))
        assert f"mode={report.mode}" in summary
        assert f"lengthAfter={report.length_after}" in summary


def test_projection_rejects_invalid_programs():
    p = parse_program("set:9:9 ; !")
    with pytest.raises(ValueError):
        specialize(build_state_graph(p, P11))
    with pytest.raises(ValueError):
        dispatch_project(p, P11)


# --- jump threading ---


def reference_thread_jumps(p):
    """`thread_jumps` as one walk per jump, each with its own visited set:
    quadratic in the chain length, kept as the reference."""
    src = p.instructions
    length = len(src)
    out = list(src)
    for pos in range(1, length + 1):
        u = src[pos - 1]
        if not isinstance(u, (FwdJump, BwdJump)):
            continue
        if u.distance == 0:
            continue
        target = pos + u.distance if isinstance(u, FwdJump) else pos - u.distance
        if target < 1 or target > length:
            continue
        visited = {pos}
        cur = target
        cyclic = False
        while isinstance(v := src[cur - 1], (FwdJump, BwdJump)):
            if cur in visited:
                cyclic = True
                break
            visited.add(cur)
            if v.distance == 0:
                break
            nxt = cur + v.distance if isinstance(v, FwdJump) else cur - v.distance
            if nxt < 1 or nxt > length:
                break
            cur = nxt
        if cyclic or cur == target:
            continue
        out[pos - 1] = FwdJump(cur - pos) if cur > pos else BwdJump(pos - cur)
    return Program(tuple(out))


def test_thread_jumps_collapses_chains():
    assert render_program(thread_jumps(parse_program("#1 ; #1 ; !"))) == "#2 ; #1 ; !"


def test_thread_jumps_keeps_deadlocks_and_cycles():
    assert render_program(thread_jumps(parse_program("#0 ; !"))) == "#0 ; !"
    assert render_program(thread_jumps(parse_program("#1 ; \\#1"))) == "#1 ; \\#1"
    # A chain into a deadlocking jump stops at that jump.
    assert render_program(thread_jumps(parse_program("#1 ; #0 ; !"))) == "#1 ; #0 ; !"
    # A chain into an out-of-range jump also stops there.
    assert render_program(thread_jumps(parse_program("#1 ; #9 ; !"))) == "#1 ; #9 ; !"


def test_thread_jumps_handles_backward_chains():
    assert render_program(thread_jumps(parse_program("f.m ; \\#1 ; #0"))) == "f.m ; \\#1 ; #0"
    assert (
        render_program(thread_jumps(parse_program("#2 ; ! ; \\#2 ; g.n")))
        == "#2 ; ! ; \\#2 ; g.n"
    )
    assert render_program(thread_jumps(parse_program("g.n ; #2 ; ! ; \\#2"))) == (
        "g.n ; #2 ; ! ; \\#2"
    )


def test_thread_jumps_requires_register_free_input():
    with pytest.raises(ValueError):
        thread_jumps(parse_program("set:1:1 ; !"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_thread_jumps_is_idempotent_and_behavior_preserving(seed, length):
    p = gen_random(seed, length, P23, weights=PGLB_WEIGHTS)
    threaded = thread_jumps(p)
    assert len(threaded) == len(p)
    assert thread_jumps(threaded) == threaded
    params = ToolParams(maxr=2, maxn=3, step_limit=200)
    verdict = equivalent(p, threaded, params, depth=6)
    assert verdict.equivalent, (str(p), verdict.counterexample)


def test_threading_a_specialized_program_shortens_hops():
    p = parse_program("set:1:1 ; i#1 ; !")
    report = specialize(build_state_graph(p, P11))
    threaded = thread_jumps(report.output)
    assert render_program(threaded) == "#2 ; #1 ; !"


def service_loop(k):
    """Family member k with each `!` turned into a jump back to position 1,
    and its params."""
    p, params = gen_scaling_family(k)
    loop = tuple(BwdJump(pos - 1) if u == Halt() else u for pos, u in enumerate(p.instructions, 1))
    return Program(loop), params


def threading_cases():
    """(program, params) pairs: random programs, with aux-marked and with
    cell-bound foci too, family members, service loops, jump-state cycles."""
    variants = (
        P23,
        replace(P23, aux=AuxSpec.parse("f.*")),
        replace(P23, cell_foci=frozenset({"bool1"})),
    )
    for seed in range(1200):
        params = variants[seed % 3]
        text = render_program(gen_random(seed, 1 + seed % 16, params))
        if params.cell_foci:
            # A Boolean cell serves only set:T, set:F and get.
            text = text.replace("f.m", "bool1.get").replace("f.n", "bool1.set:T")
        yield parse_program(text), params
    for k in range(1, 7):
        yield gen_scaling_family(k)
    for k in range(1, 5):
        yield service_loop(k)
    for text in (
        "set:1:1 ; i#1 ; \\#1",
        "#1 ; \\#1 ; !",
        "f.m ; #1 ; set:1:1 ; \\#1",
        "+f.m ; set:1:2 ; #1 ; i\\#1 ; #0 ; !",
        "+f.m ; #2 ; #1 ; \\#1 ; !",
    ):
        yield parse_program(text), P12


def test_specialize_threads_its_output_as_thread_jumps_does():
    # Threading specialize's output gives what the per-jump reference walk
    # gives.
    for p, params in threading_cases():
        output = specialize(build_state_graph(p, params)).output
        assert thread_jumps(output) == reference_thread_jumps(output), str(p)


def test_dispatch_threads_its_output_as_thread_jumps_does():
    # Threading dispatch's output gives what the per-jump reference walk
    # gives.
    for p, params in threading_cases():
        output = dispatch_project(p, params).output
        assert thread_jumps(output) == reference_thread_jumps(output), str(p)


def test_thread_jumps_matches_the_reference():
    # Register-free random programs as they are.
    for seed in range(600):
        p = gen_random(seed, 1 + seed % 40, P23, weights=PGLB_WEIGHTS)
        assert thread_jumps(p) == reference_thread_jumps(p), str(p)


def test_thread_jumps_is_linear_in_the_chain_length():
    # Every jump of a 20,000-jump chain lands on the halt.  A walk per jump
    # takes about a minute here; one walk per position, milliseconds.
    n = 20_000
    start = time.perf_counter()
    threaded = thread_jumps(Program((FwdJump(1),) * n + (Halt(),)))
    assert time.perf_counter() - start < 10.0
    lands = tuple(FwdJump(n + 1 - pos) for pos in range(1, n + 1))
    assert threaded.instructions == lands + (Halt(),)


def test_specialize_threading_leaves_jump_cycles_alone():
    # Block 2 (set:1:1 at pc 1, register 0 -> 1) leads into the cycle
    # i#1 <-> \#1 of jump states; a jump into it keeps its target.
    output = specialize(build_state_graph(parse_program("set:1:1 ; i#1 ; \\#1"), P11)).output
    assert render_program(output) == render_program(thread_jumps(output)) == "#1 ; #1 ; \\#1"


def test_specialize_interns_its_jumps():
    # One object per (kind, distance) within the emitted program, and
    # within its threaded program.
    output = specialize(build_state_graph(*gen_scaling_family(3))).output
    for program in (output, thread_jumps(output)):
        jumps = [u for u in program.instructions if isinstance(u, (FwdJump, BwdJump))]
        assert len({id(u) for u in jumps}) == len(set(jumps)) > 1


def test_dispatch_interns_its_cells_and_jumps():
    # One basic instruction object per (focus, method) on the introduced
    # cells, and one jump object per (kind, distance).
    report = dispatch_project(*gen_scaling_family(3))
    ins = report.output.instructions
    basics = [u.basic for u in ins if isinstance(u, (Plain, PosTest, NegTest))]
    cells = [b for b in basics if b.focus in report.aux_foci]
    assert len({id(b) for b in cells}) == len(set(cells)) > 1
    jumps = [u for u in ins if isinstance(u, (FwdJump, BwdJump))]
    assert len({id(u) for u in jumps}) == len(set(jumps)) > 1


def test_specialize_relocation_csv_renders_each_state():
    cases = [service_loop(2), (parse_program("set:2:3 ; +f.m ; set:1:2 ; i\\#2 ; !"), P23)]
    cases += [(gen_random(seed, 12, P23), P23) for seed in range(40)]
    for p, params in cases:
        graph = build_state_graph(p, params)
        report = specialize(graph)
        rows = ["old_key,new_start,new_len"]
        node = graph.decoder()
        for i, (start, size) in enumerate(relocation_blocks(report)):
            pc, registers = node(i)
            rows.append(f"{pc}:{'-'.join(map(str, registers))},{start},{size}")
        assert report.relocation.to_csv() == "\n".join(rows) + "\n", str(p)


# --- equivalence checking ---


def test_check_equivalence_accepts_identical_programs():
    p = parse_program("+f.m ; ! ; g.n ; !")
    verdict = equivalent(p, p, ToolParams())
    assert verdict.equivalent
    assert verdict.counterexample is None
    assert verdict.checked >= 2


def test_check_equivalence_distinguishes_final_status():
    verdict = equivalent(parse_program("f.m ; !"), parse_program("f.m ; #0"), ToolParams())
    assert not verdict.equivalent
    cex = verdict.counterexample
    assert cex.oracle == "exhaustive:"
    assert cex.p_final is Status.TERMINATED
    assert cex.q_final is Status.DEADLOCKED
    assert cex.p_events == cex.q_events


def test_check_equivalence_distinguishes_observable_events():
    verdict = equivalent(parse_program("f.m ; !"), parse_program("g.m ; !"), ToolParams())
    assert not verdict.equivalent
    assert verdict.counterexample.p_events[0].focus == "f"
    assert verdict.counterexample.q_events[0].focus == "g"


def test_check_equivalence_ignores_aux_differences():
    params = ToolParams(aux=AuxSpec.parse("aux1.*"))
    verdict = equivalent(parse_program("aux1.m ; f.m ; !"), parse_program("f.m ; !"), params)
    assert verdict.equivalent


def test_check_equivalence_reports_step_limited_runs_as_inconclusive():
    p = parse_program("+f.m ; \\#1 ; !")
    params = ToolParams(step_limit=50)
    verdict = equivalent(p, p, params, depth=4)
    assert verdict.equivalent
    assert verdict.inconclusive > 0


def test_check_equivalence_catches_mismatch_on_common_prefix_of_cut_runs():
    # Both loop forever, but emit different requests while doing so.
    p = parse_program("f.m ; \\#1")
    q = parse_program("g.m ; \\#1")
    verdict = equivalent(p, q, ToolParams(step_limit=50))
    assert not verdict.equivalent


def test_check_equivalence_seeded_oracles_cover_deep_branches():
    # Identical except at a branch deeper than the exhaustive depth; the
    # seeded streams still reach it.
    deep = 8 * "+f.m ; "
    p = parse_program(deep + "f.m ; !")
    q = parse_program(deep + "g.m ; !")
    verdict = equivalent(p, q, ToolParams(), depth=2)
    assert not verdict.equivalent
    assert verdict.counterexample.oracle.startswith("seeded:")


def test_dispatch_checks_output_length_against_state_limit():
    # 3 bit writes + an 18-instruction decision tree + the halt.
    p = parse_program("set:1:7 ; i#1 ; !")
    assert len(dispatch_project(p, ToolParams(maxr=1, maxn=7, state_limit=22)).output) == 22
    with pytest.raises(ValueError, match="dispatch output of 22 instructions"):
        dispatch_project(p, ToolParams(maxr=1, maxn=7, state_limit=21))


def test_projections_do_no_analysis(monkeypatch):
    import pglblab.analyzer as analyzer
    import pglblab.projector as projector

    p = parse_program("set:1:2 ; +f.m ; i#1 ; g.n ; !")
    graph = build_state_graph(p, P12)

    def forbidden(*args, **kwargs):
        raise AssertionError("a projection analysed a program")

    for module in (analyzer, projector):
        for name in ("build_state_graph", "compute_mid"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    assert is_pglb(specialize(graph).output)
    assert is_pglb(dispatch_project(p, P12).output)


# --- check_equivalence against a whole-check vm.step reference ---


def step_reply_prefixes(p, params, depth, step_limit):
    """Reference enumerator: one vm.step call per instruction."""
    seqs = set()
    stack = [(initial_config(p, params, Scripted(())), 0, ())]
    while stack:
        cfg, steps, sigma = stack.pop()
        if cfg.status is not Status.RUNNING or steps >= step_limit:
            seqs.add(sigma)
            continue
        u = p.instructions[cfg.pc - 1]
        if isinstance(u, (PosTest, NegTest)) and u.basic.focus not in cfg.cells:
            if len(sigma) >= depth:
                seqs.add(sigma)
                continue
            for r in (False, True):
                branch = MachineConfig(cfg.pc, cfg.registers, cfg.cells, Scripted((r,)))
                stack.append((step(p, branch)[0], steps + 1, sigma + (r,)))
        else:
            stack.append((step(p, cfg)[0], steps + 1, sigma))
    return seqs


def step_run_bounded(p, params, oracle, step_limit):
    """Reference bounded run: one vm.step call per instruction."""
    cfg = initial_config(p, params, oracle)
    events = []
    for _ in range(step_limit):
        try:
            cfg, event = step(p, cfg)
        except OracleExhausted:
            return tuple(events), None
        events.append(event)
        if cfg.status is not Status.RUNNING:
            return tuple(events), cfg.status
    return tuple(events), Status.STEP_LIMIT


def reference_check(p, q, params, suite):
    """Reference check: list both programs' reply prefixes, then run both
    from the start on every prefix of the union in sorted order, then on
    every seed, and report the first disagreement."""
    budget = min(params.step_limit, CHECK_STEP_LIMIT)
    stops = (Status.TERMINATED, Status.DEADLOCKED)
    prefixes = step_reply_prefixes(p, params, suite.exhaustive_depth, budget)
    prefixes |= step_reply_prefixes(q, params, suite.exhaustive_depth, budget)
    oracles = [("exhaustive:" + "".join("T" if r else "F" for r in sigma), Scripted(sigma))
               for sigma in sorted(prefixes)]
    oracles += [(f"seeded:{seed}", Seeded(seed)) for seed in suite.seeds]
    checked = inconclusive = 0
    for label, oracle in oracles:
        (p_ev, p_final), (q_ev, q_final) = (
            step_run_bounded(x, params, oracle, budget) for x in (p, q)
        )
        po = observable_events(p_ev, params.aux)
        qo = observable_events(q_ev, params.aux)
        checked += 1
        if p_final in stops and q_final in stops:
            agree = po == qo and p_final == q_final
        else:
            inconclusive += 1
            m = min(len(po), len(qo))
            agree = po[:m] == qo[:m]
        if not agree:
            cex = Counterexample(label, po, qo, p_final, q_final)
            return Verdict(False, cex, checked, inconclusive)
    return Verdict(True, None, checked, inconclusive)


def _check_cases():
    params = ToolParams(maxr=1, maxn=2, step_limit=200)
    p = parse_program("+f.m ; set:1:2 ; i#1 ; g.n ; +h.m ; ! ; #0")
    report = dispatch_project(p, params)
    yield "equivalent", p, report.output, report.output_params(params), (True, None, 8, 0)
    p = parse_program("+f.m ; -g.n ; h.m ; +f.n ; !")
    q = parse_program("+f.m ; -g.n ; h.m ; +f.n ; #0")
    yield "different", p, q, params, (False, "exhaustive:FT", 2, 0)
    # On a False first reply the loop requests g.n forever: cut at 200 steps.
    loop = parse_program("+f.m ; ! ; set:1:1 ; g.n ; i\\#1")
    report = dispatch_project(loop, params)
    yield "loop", loop, report.output, report.output_params(params), (True, None, 7, 2)


@pytest.mark.parametrize("case", list(_check_cases()), ids=lambda case: case[0])
def test_check_equivalence_matches_a_step_by_step_reference(case):
    _, p, q, params, expected = case
    suite = OracleSuite(exhaustive_depth=6)
    verdict = check_equivalence(p, q, params, suite)
    label = verdict.counterexample.oracle if verdict.counterexample else None
    assert (verdict.equivalent, label, verdict.checked, verdict.inconclusive) == expected
    assert reference_check(p, q, params, suite) == verdict


def test_check_equivalence_matches_the_reference_on_random_programs():
    params = ToolParams(maxr=2, maxn=3, step_limit=100)
    for seed in range(120):
        p = gen_random(9000 + seed, 4 + seed % 9, params)
        i = seed % len(p)
        mutant = Program(
            p.instructions[:i] + gen_random(seed, 1, params).instructions + p.instructions[i + 1:]
        )
        report = dispatch_project(p, params)
        partners = ((p, params), (mutant, params), (report.output, report.output_params(params)))
        for q, q_params in partners:
            for depth in (0, 3, 6):
                suite = OracleSuite(exhaustive_depth=depth)
                assert check_equivalence(p, q, q_params, suite) == reference_check(
                    p, q, q_params, suite
                ), (seed, depth, str(p), str(q))


def counted_check(monkeypatch, p, q, suite=OracleSuite()):
    """(verdict, number of execute calls) of checking p against q."""
    calls = []

    def counted(*args):
        calls.append(args)
        return execute(*args)

    monkeypatch.setattr(projector, "execute", counted)
    return check_equivalence(p, q, ToolParams(), suite), len(calls)


def test_check_equivalence_runs_each_waiting_side_once_per_node(monkeypatch):
    # The joint reply tree of p with itself has 5 nodes (root, F, T, TF,
    # TT), two execute calls each: 10.  Every seed's path ends at a node
    # where both sides stopped, so the seeded runs make no call.  Running
    # each seed from position 1 took 10 more.
    p = parse_program("+f.m ; +g.n ; !")
    verdict, calls = counted_check(monkeypatch, p, p)
    assert (verdict.equivalent, verdict.checked, verdict.inconclusive) == (True, 8, 0)
    assert calls == 5 * 2


def test_seeded_runs_keep_a_result_the_walk_already_has(monkeypatch):
    # A silent loop stops at the step budget at the root: 2 calls, and
    # the 5 seeded runs reuse them (re-running them took 10 more).
    loop = parse_program("#1 ; \\#1")
    verdict, calls = counted_check(monkeypatch, loop, loop)
    assert (verdict.equivalent, verdict.checked, verdict.inconclusive) == (True, 6, 6)
    assert calls == 2


def test_seeded_runs_resume_once_per_suite_entry(monkeypatch):
    # Duplicate seeds are two oracles, as they were when each ran alone.
    p = parse_program("+f.m ; +g.n ; !")
    verdict, _ = counted_check(monkeypatch, p, p, OracleSuite(seeds=(7, 7)))
    assert (verdict.equivalent, verdict.checked, verdict.inconclusive) == (True, 5, 0)


def test_seeded_runs_continue_from_the_exhaustive_depth():
    # At depths 0..2 both sides still wait, so each seeded run goes on
    # from there with the seed's stream and the steps left: the verdicts,
    # cut runs included, equal the step-by-step reference, which runs
    # each seed from position 1.
    p = parse_program("+f.m ; -g.n ; +h.m ; set:1:2 ; +f.n ; i\\#1 ; !")
    mutant = parse_program("+f.m ; -g.n ; +h.m ; set:1:2 ; +f.n ; i\\#1 ; #0")
    for step_limit in (7, 11, 300):
        params = ToolParams(maxr=1, maxn=2, step_limit=step_limit)
        report = dispatch_project(p, params)
        for q, q_params in ((report.output, report.output_params(params)), (mutant, params)):
            for depth in (0, 1, 2):
                suite = OracleSuite(exhaustive_depth=depth, seeds=(5, 6, 5, 9))
                verdict = check_equivalence(p, q, q_params, suite)
                assert verdict == reference_check(p, q, q_params, suite), (str(q), depth)
