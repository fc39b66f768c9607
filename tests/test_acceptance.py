"""End-to-end acceptance checks.

One test per headline claim the toolkit makes: family shape, constant
delay of the family under analysis, agreement between the static
analyzer and exhaustive search, legality and observable equivalence of
both projections, the two horns of the length/delay trade-off, the core
semantics laws, and unboundedness detection.  Each test prints a single
PASS/FAIL line (visible with `pytest -s`, or in captured output) so the
suite reads as a checklist.
"""
from dataclasses import replace
from time import perf_counter

import pytest
from oracles import brute_force_mid, reference_observable_events, replay_segment

from pglblab.analyzer import build_state_graph, compute_mid, id_weight
from pglblab.bench import bench_family
from pglblab.family import gen_scaling_family, gen_random
from pglblab.isa import AuxSpec, InvalidProgram, ToolParams, is_pglb, parse_program
from pglblab.projector import check_equivalence, dispatch_project, specialize, thread_jumps
from pglblab.vm import (
    Scripted,
    Seeded,
    UnknownCellMethod,
    execute,
    initial_config,
    run,
    trace_text,
)


def specialize_program(p, params):
    return specialize(build_state_graph(p, params))


def report(label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def bench_rows():
    return bench_family(6)


def test_family_length_formula():
    t0 = perf_counter()
    lengths = [len(gen_scaling_family(k)[0].instructions) for k in range(1, 9)]
    wall = perf_counter() - t0
    expected = [12 * 2**k + 4 for k in range(1, 9)]
    report(
        "family length is 12*2^k+4 for k=1..8",
        lengths == expected and wall < 1.0,
        f"lengths={lengths}, {wall:.3f}s",
    )


def test_family_mid_is_constant_four():
    values = []
    nodes_k8 = 0
    wall_k8 = 0.0
    for k in range(1, 9):
        p, params = gen_scaling_family(k)
        t0 = perf_counter()
        graph = build_state_graph(p, params)
        values.append(compute_mid(graph, params.aux).value)
        if k == 8:
            wall_k8 = perf_counter() - t0
            nodes_k8 = graph.node_count
    ok = (
        all(v == 4 for v in values)
        and wall_k8 < 60.0
        and nodes_k8 <= 5_000_000
    )
    report(
        "analyzer reports delay 4 for every family member k=1..8",
        ok,
        f"k=8: {nodes_k8} nodes in {wall_k8:.1f}s",
    )


def test_analyzer_agrees_with_exhaustive_search(is_acyclic):
    p1, params1 = gen_scaling_family(1)
    static1 = compute_mid(build_state_graph(p1, params1), params1.aux).value
    brute1 = brute_force_mid(p1, params1, 60)

    params = ToolParams(maxr=2, maxn=3)
    checked = 0
    seed = 0
    mismatches = []
    while checked < 500:
        seed += 1
        p = gen_random(seed, 3 + seed % 13, params)
        graph = build_state_graph(p, params)
        if not is_acyclic(graph):
            continue
        checked += 1
        expected = compute_mid(graph, params.aux).value
        if brute_force_mid(p, params, graph.node_count + 1) != expected:
            mismatches.append(seed)
    ok = static1 == 4 == brute1 and not mismatches
    report(
        "static delay equals exhaustive-search delay (family head + 500 acyclic)",
        ok,
        f"family: static={static1} brute={brute1}; mismatched seeds={mismatches}",
    )


def test_projections_are_legal_and_equivalent():
    # Equivalence is proven on the closed product, for family k=1..6 with
    # bool1 a cell, as the member's params bind it, and with bool1 read
    # from the oracle, and for 500 random programs.
    failures = []
    proven = 0

    for k in range(1, 7):
        p, params = gen_scaling_family(k)
        for bound in (params, replace(params, cell_foci=frozenset())):
            for project in (specialize_program, dispatch_project):
                rep = project(p, bound)
                if not is_pglb(rep.output):
                    failures.append((f"family k={k}", project.__name__, "not register-free"))
                    continue
                verdict = check_equivalence(p, rep.output, rep.output_params(bound))
                proven += verdict.equivalent
                if not verdict.equivalent:
                    failures.append((f"family k={k}", project.__name__, verdict.counterexample))

    params = ToolParams(maxr=2, maxn=3)
    for seed in range(1, 501):
        p = gen_random(1000 + seed, 3 + seed % 10, params)
        for project in (specialize_program, dispatch_project):
            rep = project(p, params)
            if not is_pglb(rep.output):
                failures.append((seed, project.__name__, "not register-free"))
                continue
            verdict = check_equivalence(p, rep.output, rep.output_params(params))
            proven += verdict.equivalent
            if not verdict.equivalent:
                failures.append((seed, project.__name__, verdict.counterexample))

    report(
        "both projections emit register-free programs, proven observably equivalent",
        not failures and proven == 6 * 2 * 2 + 500 * 2,
        f"{proven} proven, {len(failures)} failure(s): {failures[:3]}",
    )


def test_specialize_keeps_delay_flat_while_length_blows_up(bench_rows):
    # The closed forms of the rows k=1..6: the source, its state graph,
    # and the threaded specialize output.
    rows = [
        (row.length_original, row.mid_original, row.state_nodes,
         row.length_specialized, row.mid_specialized)
        for row in bench_rows
    ]
    forms = [
        (12 * 2**k + 4, 4, 10 * 4**k + 5 * 2**k + 1, 14 * 4**k + 7 * 2**k + 1, 1)
        for k in range(1, 7)
    ]
    report(
        "specializer: delay stays 1 while length grows as 14*4^k+7*2^k+1 (k=1..6)",
        rows == forms,
        f"rows={rows}",
    )


def test_dispatch_keeps_length_linear_while_delay_grows(bench_rows):
    # Length (2k+34)*2^k-2 is linear in the source length 12*2^k+4 up to
    # a log factor, and delay grows as 5k+10.
    rows = [(row.length_dispatch, row.mid_dispatch) for row in bench_rows]
    forms = [((2 * k + 34) * 2**k - 2, 5 * k + 10) for k in range(1, 7)]
    report(
        "dispatcher: length is (2k+34)*2^k-2 while delay grows as 5k+10 (k=1..6)",
        rows == forms,
        f"rows={rows}",
    )


def test_core_semantics_laws():
    t0 = perf_counter()
    params = ToolParams()
    checks = []

    # deadlock clauses: distance-0 jump, out-of-range jump, running off the end
    for text in ("#0", "#9", "f.m"):
        trace = run(parse_program(text), params, Seeded(1))
        checks.append(("deadlock:" + text, trace.final.value == "Deadlocked"))

    # Boolean-cell laws under the automatic bool* binding
    trace = run(parse_program("bool1.set:T ; +bool1.get ; !"), params, Scripted(()))
    checks.append(("cell set/get", [e.reply for e in trace.events] == [True, True, None]))
    trace = run(parse_program("bool1.set:F ; +bool1.get ; ! ; !"), params, Scripted(()))
    checks.append(
        ("cell set:F routes false", [e.position for e in trace.events] == [1, 2, 4])
    )
    # An unknown cell method is refused before the run; the interpreter
    # itself still refuses it in an unvalidated program.
    frob = parse_program("bool1.frob ; !")
    with pytest.raises(InvalidProgram):
        run(frob, params, Scripted(()))
    with pytest.raises(UnknownCellMethod):
        execute(frob, initial_config(frob, params, Scripted(())), 10)

    # determinism: same program, same oracle, same trace
    p = gen_random(42, 20, ToolParams(maxr=2, maxn=3))
    run_params = replace(ToolParams(maxr=2, maxn=3), step_limit=500)
    first = trace_text(run(p, run_params, Seeded(9)))
    second = trace_text(run(p, run_params, Seeded(9)))
    checks.append(("trace determinism", first == second))

    # observable traces hide auxiliary requests
    aux_params = ToolParams(aux=AuxSpec.parse("x.*"))
    trace = run(parse_program("x.m ; f.m ; !"), aux_params, Scripted(()))
    obs = reference_observable_events(trace.events, aux_params.aux)
    checks.append(("aux filtering", [e.focus for e in obs] == ["f"]))

    # the per-instruction weight table
    mixed = parse_program("f.m ; +f.m ; -f.m ; x.m ; +x.m ; #2 ; \\#1 ; set:1:1 ; i#1 ; i\\#1 ; !")
    weights = [id_weight(u, AuxSpec.parse("x.*")) for u in mixed.instructions]
    checks.append(("weight table", weights == [0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 0]))

    # jump threading is idempotent
    pglb_weights = {
        "plain": 4, "pos_test": 2, "neg_test": 2,
        "fwd_jump": 3, "bwd_jump": 1, "halt": 2,
    }
    idempotent = True
    for seed in range(40):
        p = gen_random(seed, 4 + seed % 17, params, weights=pglb_weights)
        once = thread_jumps(p)
        idempotent = idempotent and thread_jumps(once) == once
    checks.append(("thread_jumps idempotence", idempotent))

    wall = perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    report(
        "semantics laws: deadlocks, cells, determinism, aux filter, weights, threading",
        not failed and wall < 120.0,
        f"failed={failed}, {wall:.1f}s",
    )


def test_unbounded_delay_is_detected_and_witnessed():
    p = parse_program("f.m ; +x.get ; \\#1 ; !")
    params = ToolParams(aux=AuxSpec.parse("x.*"))
    result = compute_mid(build_state_graph(p, params), params.aux)
    witness_weight = (
        replay_segment(p, params, result.witness) if result.witness else -1
    )
    growth = [brute_force_mid(p, params, d) for d in (10, 20, 40)]
    ok = (
        result.value is None
        and bool(result.cycle)
        and witness_weight >= 3
        and growth[0] < growth[1] < growth[2]
    )
    report(
        "aux loop reported unbounded with replayable witness; search grows with depth",
        ok,
        f"witness weight={witness_weight}, growth={growth}",
    )
